//! Property tests on the in-page navigation kernel and the succinct
//! backend's tag codes: for random balanced pages with a random start level
//! (including lengths straddling the 16-entry block boundaries), both
//! backends decode the same levels and block minima, and the block-skipping
//! kernel and the sibling/close scans built on it agree with a naive
//! left-to-right scan of the levels.

use proptest::prelude::*;

use nok_core::cursor::{first_at_or_below, scan_close, scan_sibling};
use nok_core::page::{
    decode_page, encode_content, write_header, BackendKind, DecodedPage, Entry, PageHeader,
    HEADER_SIZE, NO_PAGE,
};
use nok_core::sigma::TagCode;
use nok_core::succinct::{read_varint, write_varint};
use nok_core::NodeAddr;

/// A balanced-parentheses sequence of `pairs` pairs shaped by `coin`
/// (random tree shape): always non-negative prefix excess, ends at zero.
fn balanced_from(pairs: usize, coin: &[bool]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(pairs * 2);
    let mut open = 0usize; // opens still available
    let mut depth = 0usize;
    let mut flips = coin.iter().copied().cycle();
    while bits.len() < pairs * 2 {
        let c = flips.next().unwrap_or(true);
        let must_open = depth == 0 || open < pairs && c;
        if must_open && open < pairs {
            bits.push(true);
            open += 1;
            depth += 1;
        } else if depth > 0 {
            bits.push(false);
            depth -= 1;
        }
    }
    bits
}

/// The page holding entries `[cut, cut + len)` of a balanced document shaped
/// by `coin`, its `st` the level before `cut` lifted by `base`, so the page
/// may start, dip and end at any level. Tag codes cycle through all three
/// varint widths.
fn page_entries(len: usize, cut: usize, base: u16, coin: &[bool]) -> (u16, Vec<Entry>) {
    let bits = balanced_from((cut + len).div_ceil(2) + 1, coin);
    let before: i32 = bits[..cut].iter().map(|&b| if b { 1 } else { -1 }).sum();
    let entries = bits[cut..cut + len]
        .iter()
        .enumerate()
        .map(|(i, &open)| {
            if open {
                Entry::Open(TagCode([3, 200, 20_000][i % 3]))
            } else {
                Entry::Close
            }
        })
        .collect();
    (base + before as u16, entries)
}

/// Encode `entries` under `kind` and decode the page back.
fn decode(kind: BackendKind, st: u16, entries: &[Entry]) -> DecodedPage {
    let content = encode_content(kind, entries);
    let mut buf = vec![0u8; HEADER_SIZE + content.len()];
    write_header(
        &mut buf,
        &PageHeader {
            st,
            lo: 0,
            hi: 0,
            next: NO_PAGE,
            nbytes: content.len() as u16,
        },
    );
    buf[HEADER_SIZE..].copy_from_slice(&content);
    decode_page(kind, &buf).expect("well-formed page decodes")
}

/// Decode one page under both backends and check the kernel and both scans
/// against naive scans for every `from` and every relevant level.
fn check_page(st: u16, entries: &[Entry]) {
    let classic = decode(BackendKind::Classic, st, entries);
    let succinct = decode(BackendKind::Succinct, st, entries);
    assert_eq!(&classic.entries, &succinct.entries);
    assert_eq!(&classic.levels, &succinct.levels);
    assert_eq!(&classic.block_min, &succinct.block_min);
    let levels = &classic.levels;
    let naive_min: Vec<u16> = levels
        .chunks(16)
        .map(|b| *b.iter().min().unwrap())
        .collect();
    assert_eq!(&classic.block_min, &naive_min);

    let n = levels.len();
    let top = levels.iter().copied().max().unwrap_or(st) + 2;
    let at = |j: usize| NodeAddr {
        page: 7,
        entry: j as u32,
    };
    for page in [&classic, &succinct] {
        for from in 0..=n {
            for target in 0..=top {
                let mut examined = 0u64;
                let got = first_at_or_below(page, from, target, &mut examined);
                let want = (from..n).find(|&j| levels[j] <= target);
                assert_eq!(got, want, "kernel from={} target={}", from, target);
                assert!(examined as usize <= n - from, "kernel read past the page");

                let l = target + 1;
                let mut examined = 0u64;
                let got = scan_close(page, 7, from, l, &mut examined);
                assert_eq!(got, want.map(at), "close from={} l={}", from, l);

                let l = target + 2;
                let mut examined = 0u64;
                let got = scan_sibling(page, 7, from, l, &mut examined);
                let want = (from..n).find_map(|j| {
                    if levels[j] + 2 <= l {
                        Some(None)
                    } else if levels[j] == l && page.entries[j].is_open() {
                        Some(Some(at(j)))
                    } else {
                        None
                    }
                });
                assert_eq!(got, want, "sibling from={} l={}", from, l);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block-skipping kernel and the sibling/close scans agree with
    /// naive scans on random pages decoded by both backends, which also
    /// agree on levels and block minima.
    #[test]
    fn excess_search_matches_naive(
        len in prop_oneof![
            Just(15usize), Just(16), Just(17), Just(31), Just(32), Just(33), 1usize..120
        ],
        cut in 0usize..40,
        base in 0u16..4,
        coin in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let (st, entries) = page_entries(len, cut, base, &coin);
        check_page(st, &entries);
    }

    /// Varint round-trip over the whole 15-bit tag-code space (and the
    /// 16-bit values the reader must still parse).
    #[test]
    fn varint_round_trips(vals in proptest::collection::vec(any::<u16>(), 0..64)) {
        let mut buf = Vec::new();
        for v in &vals {
            write_varint(&mut buf, *v);
        }
        let mut pos = 0usize;
        for v in &vals {
            let (got, width) = read_varint(&buf, pos).expect("decode");
            prop_assert_eq!(got, *v);
            pos += width;
        }
        prop_assert_eq!(pos, buf.len());
    }
}

/// Deterministic sweep of the block boundary lengths with adversarial
/// shapes (a deep comb, a flat run of leaves, a mixed shape), each cut at
/// several offsets so pages start inside and outside subtrees.
#[test]
fn boundary_lengths_round_trip() {
    let shapes: [Vec<bool>; 3] = [
        vec![true; 64],
        vec![false; 64],
        (0..64).map(|i| i % 7 < 4).collect(),
    ];
    for len in [1usize, 2, 3, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64] {
        for coin in &shapes {
            for cut in [0usize, 1, 5, 16] {
                let (st, entries) = page_entries(len, cut, 1, coin);
                check_page(st, &entries);
            }
        }
    }
}
