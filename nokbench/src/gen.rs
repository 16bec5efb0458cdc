//! Query tables and the seeded streams drawn from them. The program only
//! ever sees the generated XML, the path strings and the update fragments.

use std::collections::HashSet;

use nok_datagen::DatasetKind;

use crate::rng::{Rng, Zipf};

/// Table 3 cells of `kind` whose number is in `ids`, in `/` and `//`
/// forms: `(cell name, path, is the / form)`.
pub fn table3(kind: DatasetKind, ids: &[usize]) -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    for (i, spec) in nok_datagen::workload(kind) {
        let Some(spec) = spec else { continue };
        if !ids.contains(&i) {
            continue;
        }
        out.push((format!("Q{i}"), spec.path.clone(), true));
        if spec.descendant_variant != spec.path {
            out.push((format!("Q{i}"), spec.descendant_variant, false));
        }
    }
    out
}

/// The `@key` point lookup of one dblp record.
pub fn key_path(tag: &str, key: &str) -> String {
    format!("/dblp/{tag}[@key=\"{key}\"]/title")
}

/// `count` paths `//a/b` over real element names of one document where `b`
/// never occurs as a child of `a`, so the answer is empty.
pub fn zero_support(
    seed: u64,
    salt: u64,
    tags: &[String],
    pairs: &HashSet<(String, String)>,
    count: usize,
) -> Vec<String> {
    let mut rng = Rng::new(seed, salt);
    let mut out = Vec::new();
    while out.len() < count {
        let a = &tags[rng.below(tags.len())];
        let b = &tags[rng.below(tags.len())];
        let path = format!("//{a}/{b}");
        if !pairs.contains(&(a.clone(), b.clone())) && !out.contains(&path) {
            out.push(path);
        }
    }
    out
}

/// One `lowsel` cycle: every query of the table once, in a seeded order.
pub fn lowsel_cycle(seed: u64, cycle: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 1_000 + cycle).shuffle(&mut order);
    order
}

/// Share of zero-support paths in the `point` stream.
pub const POINT_EMPTY_SHARE: f64 = 0.05;

/// A `point` query table: the cells, the zero-support paths and one key
/// lookup per dblp record, addressed by index.
#[derive(Debug, Clone)]
pub struct PointMix {
    /// Table indexes of the Table 3 cells.
    pub cells: Vec<usize>,
    /// Table indexes of the zero-support paths.
    pub empties: Vec<usize>,
    /// Table index of record 0's key lookup; record `i` is at `keys + i`.
    pub keys: usize,
}

impl PointMix {
    /// Block `b` of the stream: each cell and each zero-support path once,
    /// and enough key lookups, drawn Zipf-skewed (s = 1) over the records,
    /// for the zero-support paths to make up [`POINT_EMPTY_SHARE`] of the
    /// block; shuffled. Every block has the same composition, so a run's
    /// percentiles do not depend on how many slow queries its draws hit.
    pub fn block(&self, seed: u64, b: u64, zipf: &Zipf) -> Vec<usize> {
        let mut rng = Rng::new(seed, 2_000 + b);
        let total = (self.empties.len() as f64 / POINT_EMPTY_SHARE).round() as usize;
        let keys = total.saturating_sub(self.cells.len() + self.empties.len());
        let mut out: Vec<usize> = self.cells.iter().chain(&self.empties).copied().collect();
        for _ in 0..keys {
            out.push(self.keys + zipf.sample(&mut rng));
        }
        rng.shuffle(&mut out);
        out
    }
}

/// Key lookups per serve-phase reader block.
pub const SERVE_KEYS_PER_BLOCK: usize = 6;
/// Table 3 cells per serve-phase reader block (75% / 25% split).
pub const SERVE_CELLS_PER_BLOCK: usize = 2;

/// A serve-phase reader request: a cell (index into the cell list) or the
/// key lookup of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeReq {
    /// Table 3 cell.
    Cell(usize),
    /// `@key` lookup of this record.
    Key(usize),
}

/// Block `b` of the serve-phase reader stream: key lookups drawn uniformly
/// over `records`, plus the next cells in round-robin order, shuffled.
pub fn serve_block(seed: u64, b: u64, cells: usize, records: usize) -> Vec<ServeReq> {
    let mut rng = Rng::new(seed, 3_000 + b);
    let mut out: Vec<ServeReq> = (0..SERVE_KEYS_PER_BLOCK)
        .map(|_| ServeReq::Key(rng.below(records)))
        .collect();
    for j in 0..SERVE_CELLS_PER_BLOCK {
        out.push(ServeReq::Cell(
            (b as usize * SERVE_CELLS_PER_BLOCK + j) % cells,
        ));
    }
    rng.shuffle(&mut out);
    out
}

/// The record the writer's `k`-th insert/delete pair targets: a seeded
/// offset plus a golden-ratio stride, so every run spreads its commits
/// evenly over the document (commit cost grows with the edit's position).
pub fn writer_target(seed: u64, pair: u64, records: usize) -> usize {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let x = (Rng::new(seed, 4_000).unit() + pair as f64 * PHI).fract();
    ((x * records as f64) as usize).min(records - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> PointMix {
        PointMix {
            cells: (0..40).collect(),
            empties: vec![40, 41, 42],
            keys: 43,
        }
    }

    #[test]
    fn writer_targets_spread_over_the_document() {
        let n = 1000;
        let t: Vec<usize> = (0..20).map(|k| writer_target(8, k, n)).collect();
        assert!(t.iter().all(|&r| r < n));
        let mut sorted = t.clone();
        sorted.sort_unstable();
        // No two of 20 golden-ratio points are closer than n / 50.
        assert!(
            sorted.windows(2).all(|w| w[1] - w[0] >= n / 50),
            "{sorted:?}"
        );
        assert_ne!(
            t,
            (0..20).map(|k| writer_target(9, k, n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_seed_gives_the_same_streams() {
        let z = Zipf::new(500, 1.0);
        assert_eq!(lowsel_cycle(5, 2, 24), lowsel_cycle(5, 2, 24));
        assert_ne!(lowsel_cycle(5, 2, 24), lowsel_cycle(6, 2, 24));
        assert_eq!(mix().block(9, 3, &z), mix().block(9, 3, &z));
        assert_ne!(mix().block(9, 3, &z), mix().block(10, 3, &z));
        assert_eq!(serve_block(4, 7, 16, 1000), serve_block(4, 7, 16, 1000));
        assert_ne!(serve_block(4, 7, 16, 1000), serve_block(4, 8, 16, 1000));
        assert_eq!(writer_target(1, 3, 100), writer_target(1, 3, 100));
        let tags: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let pairs: HashSet<(String, String)> = [("a".to_string(), "b".to_string())].into();
        let z1 = zero_support(3, 1, &tags, &pairs, 5);
        assert_eq!(z1, zero_support(3, 1, &tags, &pairs, 5));
        assert!(z1.iter().all(|p| p != "//a/b"));
    }

    #[test]
    fn lowsel_cycle_is_a_permutation() {
        let mut c = lowsel_cycle(1, 0, 24);
        c.sort_unstable();
        assert_eq!(c, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn point_block_has_the_stated_composition() {
        let z = Zipf::new(500, 1.0);
        let b = mix().block(2, 0, &z);
        let cells = b.iter().filter(|&&i| i < 40).count();
        let empties = b.iter().filter(|&&i| (40..43).contains(&i)).count();
        let keys = b.iter().filter(|&&i| i >= 43).count();
        assert_eq!((cells, empties, keys), (40, 3, 17));
        assert!((empties as f64 / b.len() as f64 - POINT_EMPTY_SHARE).abs() < 1e-9);
        assert!(b.iter().all(|&i| i < 43 + 500));
    }

    #[test]
    fn serve_block_is_three_quarters_keys_and_cycles_cells() {
        let mut seen = HashSet::new();
        for blk in 0..8 {
            let b = serve_block(3, blk, 16, 1000);
            assert_eq!(b.len(), 8);
            let keys = b.iter().filter(|r| matches!(r, ServeReq::Key(_))).count();
            assert_eq!(keys, 6);
            for r in b {
                if let ServeReq::Cell(c) = r {
                    seen.insert(c);
                }
            }
        }
        assert_eq!(seen.len(), 16, "8 blocks visit every cell once");
    }
}
