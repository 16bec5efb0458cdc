//! Differential tests for the synopsis path summary: `path_support` and
//! `path_subtree_support` must equal a brute-force evaluation of the same
//! chain over every stored path (`for_each_path`), on random tries and on a
//! recursive one with more than 50,000 distinct paths. Each trie is checked
//! again after interleaved count changes and after a `to_bytes`/`from_bytes`
//! round trip, so a stale lookup index cannot go unnoticed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nok_core::sigma::TagCode;
use nok_core::{PathAxis, PathStep, Synopsis};

/// Tags the generated tries use. Chains also draw `0` (the virtual root's
/// placeholder tag, which must never match) and `UNSEEN`.
const TAGS: [u16; 6] = [1, 2, 3, 4, 5, 300];
const UNSEEN: u16 = 7;

fn random_tag(rng: &mut StdRng) -> TagCode {
    TagCode(TAGS[rng.gen_range(0..TAGS.len())])
}

/// A random 1-4 step chain mixing `/`, `//` and `*`.
fn random_chain(rng: &mut StdRng) -> Vec<PathStep> {
    let len = rng.gen_range(1..=4usize);
    (0..len)
        .map(|_| PathStep {
            axis: if rng.gen_bool(0.5) {
                PathAxis::Child
            } else {
                PathAxis::Descendant
            },
            tag: match rng.gen_range(0..10u32) {
                0 | 1 => None,
                2 => Some(TagCode(0)),
                3 => Some(TagCode(UNSEEN)),
                _ => Some(random_tag(rng)),
            },
        })
        .collect()
}

/// Deepest path the tests generate, plus one level for the virtual root.
const MAX_LEVELS: usize = 32;

/// `ends[j]`: the chain can end on `tags[j - 1]`, for `j` in `1..=tags.len()`.
/// Position 0 is the virtual root above `tags[0]`.
fn chain_ends(steps: &[PathStep], tags: &[TagCode]) -> [bool; MAX_LEVELS] {
    assert!(tags.len() < MAX_LEVELS);
    let mut at = [false; MAX_LEVELS];
    at[0] = true;
    for step in steps {
        let mut next = [false; MAX_LEVELS];
        let mut above = false; // the chain so far ends somewhere above `j`
        for j in 1..=tags.len() {
            above |= at[j - 1];
            if step.tag.is_some_and(|t| t != tags[j - 1]) {
                continue;
            }
            next[j] = match step.axis {
                PathAxis::Child => at[j - 1],
                PathAxis::Descendant => above,
            };
        }
        at = next;
    }
    at
}

/// `(support, subtree_support)` of each chain by brute force, in one pass
/// over the stored paths: a path supports a chain when the chain ends on its
/// last tag, and lies in a supporting subtree when the chain ends anywhere
/// along it.
fn oracle(syn: &Synopsis, chains: &[Vec<PathStep>]) -> Vec<(u64, u64)> {
    let mut sums = vec![(0u64, 0u64); chains.len()];
    syn.paths().for_each_path(|tags, count| {
        for (steps, (support, subtree)) in chains.iter().zip(&mut sums) {
            let ends = chain_ends(steps, tags);
            if ends[tags.len()] {
                *support += count;
            }
            if ends[1..=tags.len()].contains(&true) {
                *subtree += count;
            }
        }
    });
    sums
}

fn check_chains(syn: &Synopsis, rng: &mut StdRng, chains: usize, what: &str) {
    let chains: Vec<Vec<PathStep>> = (0..chains).map(|_| random_chain(rng)).collect();
    for (steps, want) in chains.iter().zip(oracle(syn, &chains)) {
        let got = (syn.path_support(steps), syn.path_subtree_support(steps));
        assert_eq!(got, want, "{what}: chain {steps:?}");
    }
}

/// A random document tree, added node by node as a build would: every node
/// counts once under its own root path. Depth and fan-out are bounded by the
/// arguments; returns the node count.
fn add_random_document(syn: &mut Synopsis, rng: &mut StdRng, max_depth: usize, fan: u32) -> u64 {
    let mut nodes = 0u64;
    let mut path = vec![random_tag(rng)];
    let mut pending: Vec<u32> = vec![rng.gen_range(1..=fan)];
    syn.add_path_count(&path, 1);
    nodes += 1;
    while let Some(left) = pending.last_mut() {
        if *left == 0 || path.len() >= max_depth {
            pending.pop();
            path.pop();
            continue;
        }
        *left -= 1;
        path.push(random_tag(rng));
        syn.add_path_count(&path, 1);
        nodes += 1;
        pending.push(rng.gen_range(0..=fan));
    }
    nodes
}

/// Random count changes on existing and new paths, interleaved with
/// queries so each change lands on a trie whose index was just built.
fn mutate_and_check(syn: &mut Synopsis, rng: &mut StdRng, rounds: usize, what: &str) {
    let mut known: Vec<Vec<TagCode>> = Vec::new();
    syn.paths().for_each_path(|tags, _| {
        if known.len() < 4096 {
            known.push(tags.to_vec());
        }
    });
    for _ in 0..rounds {
        let tags = if rng.gen_bool(0.7) {
            known[rng.gen_range(0..known.len())].clone()
        } else {
            let mut t = known[rng.gen_range(0..known.len())].clone();
            t.push(random_tag(rng));
            t
        };
        let n = rng.gen_range(1..=3u64);
        if rng.gen_bool(0.5) {
            syn.sub_path_count(&tags, n);
        } else {
            syn.add_path_count(&tags, n);
        }
        check_chains(syn, rng, 2, what);
    }
}

fn round_trip(syn: &Synopsis) -> Synopsis {
    let node_count = syn.paths().total_count();
    let (stored, back) = Synopsis::from_bytes(&syn.to_bytes(node_count)).expect("decode");
    assert_eq!(stored, node_count);
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_tries_match_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut syn = Synopsis::new();
        for _ in 0..rng.gen_range(1..=4u32) {
            add_random_document(&mut syn, &mut rng, 8, 4);
        }
        check_chains(&syn, &mut rng, 40, "fresh");
        mutate_and_check(&mut syn, &mut rng, 12, "after count changes");
        let back = round_trip(&syn);
        check_chains(&back, &mut rng, 40, "after round trip");
    }
}

#[test]
fn recursive_trie_with_50k_paths_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0013);
    let mut syn = Synopsis::new();
    let mut nodes = 0u64;
    while syn.distinct_paths() < 50_000 {
        nodes += add_random_document(&mut syn, &mut rng, 18, 3);
    }
    // Recursive: far more distinct paths than tags, and some paths repeat.
    assert!(syn.distinct_paths() >= 50_000);
    assert!(nodes > syn.distinct_paths(), "{nodes} nodes");
    check_chains(&syn, &mut rng, 40, "fresh");
    mutate_and_check(&mut syn, &mut rng, 6, "after count changes");
    let back = round_trip(&syn);
    check_chains(&back, &mut rng, 20, "after round trip");
}
