//! The structural page format (paper §4.2, Figures 4–5).
//!
//! A structural page stores a slice of the succinct string representation of
//! the subject tree:
//!
//! ```text
//! +----+----+----+----------+--------+----------------------+----------+
//! | st | lo | hi | nextpage | nbytes | string entries ...   | reserved |
//! | u16| u16| u16| u32      | u16    |                      | (slack)  |
//! +----+----+----+----------+--------+----------------------+----------+
//! ```
//!
//! * `st` — level of the last entry of the *previous* page (0 for the first
//!   page), so a page's per-entry levels can be recomputed locally.
//! * `lo`/`hi` — minimum/maximum entry level in this page; the feather-weight
//!   index used to skip pages during `FOLLOWING-SIBLING` (paper §5).
//! * `nextpage` — chain pointer; document order is the chain order, which is
//!   what makes page insertion (updates) possible.
//!
//! String entries are self-delimiting:
//!
//! * an **open** entry (a character of Σ) is 2 bytes, `0x80|code_hi`,
//!   `code_lo` — the high bit of the first byte marks "tag";
//! * a **close** entry (the `)` character) is the single byte `0x29`.
//!
//! A node therefore costs 3 bytes (2-byte Σ char + 1-byte `)`), exactly the
//! paper's S=2, P=1 accounting, and the capacity formula
//! `C = (B(1-r) - V - I) / (S + P)` applies verbatim.
//!
//! Levels follow the paper's convention: scanning left to right starting
//! from `st`, an open entry's level is `prev + 1` and a close entry's level
//! is `prev - 1` (so the `)` of a node at depth `l` carries level `l-1`).

use crate::sigma::TagCode;
use crate::succinct::{read_varint, varint_len, write_varint};

/// Byte of the close-parenthesis entry (ASCII `)`; high bit clear).
pub const CLOSE_BYTE: u8 = 0x29;

/// Header field offsets.
pub const OFF_ST: usize = 0;
pub const OFF_LO: usize = 2;
pub const OFF_HI: usize = 4;
pub const OFF_NEXT: usize = 6;
pub const OFF_NBYTES: usize = 10;
/// Total header size — the paper's V (st,lo,hi = 6) + I (next page, 4) plus
/// a 2-byte byte-count.
pub const HEADER_SIZE: usize = 12;

/// Sentinel for "end of chain".
pub const NO_PAGE: u32 = u32::MAX;

/// Canonical `st` for a structurally empty page (`entries == 0`), in both
/// the page header and the directory. An empty page has no start level — a
/// stale pre-delete `st` would mislead the skip index's level buckets — so
/// it takes the same sentinel its `lo` does (`lo = u16::MAX, hi = 0`).
/// Navigation never consults an empty page's levels: every path checks
/// `entries == 0` first.
pub const EMPTY_PAGE_ST: u16 = u16::MAX;

/// One entry of the string representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A character of Σ: the open tag of a node.
    Open(TagCode),
    /// A `)`: the close of a node.
    Close,
}

impl Entry {
    /// Encoded width in bytes.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            Entry::Open(_) => 2,
            Entry::Close => 1,
        }
    }

    /// True for [`Entry::Open`].
    #[inline]
    pub fn is_open(self) -> bool {
        matches!(self, Entry::Open(_))
    }
}

/// The parsed header of a structural page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// Level of the last entry of the previous page (0 for the first page).
    pub st: u16,
    /// Minimum entry level in this page.
    pub lo: u16,
    /// Maximum entry level in this page.
    pub hi: u16,
    /// Next page in the chain, or [`NO_PAGE`].
    pub next: u32,
    /// Used content bytes.
    pub nbytes: u16,
}

/// Read the header fields of a raw page. `None` when the buffer is shorter
/// than a header — a corrupt or truncated page must be reportable, never a
/// slice-bounds panic.
pub fn read_header(buf: &[u8]) -> Option<PageHeader> {
    use nok_pager::codec::{get_u16, get_u32};
    if buf.len() < HEADER_SIZE {
        return None;
    }
    Some(PageHeader {
        st: get_u16(buf, OFF_ST),
        lo: get_u16(buf, OFF_LO),
        hi: get_u16(buf, OFF_HI),
        next: get_u32(buf, OFF_NEXT),
        nbytes: get_u16(buf, OFF_NBYTES),
    })
}

/// Write the header fields of a raw page.
pub fn write_header(buf: &mut [u8], h: &PageHeader) {
    use nok_pager::codec::{put_u16, put_u32};
    put_u16(buf, OFF_ST, h.st);
    put_u16(buf, OFF_LO, h.lo);
    put_u16(buf, OFF_HI, h.hi);
    put_u32(buf, OFF_NEXT, h.next);
    put_u16(buf, OFF_NBYTES, h.nbytes);
}

/// Encode an entry, appending to `out`.
pub fn encode_entry(out: &mut Vec<u8>, e: Entry) {
    match e {
        Entry::Open(TagCode(code)) => {
            debug_assert!(code < 1 << 15);
            out.push(0x80 | (code >> 8) as u8);
            out.push((code & 0xFF) as u8);
        }
        Entry::Close => out.push(CLOSE_BYTE),
    }
}

/// Decode the entry starting at `buf[pos]`. Returns the entry and its width.
/// `None` if the bytes are malformed (truncated open entry).
#[inline]
pub fn decode_entry(buf: &[u8], pos: usize) -> Option<(Entry, usize)> {
    let b0 = *buf.get(pos)?;
    if b0 & 0x80 != 0 {
        let b1 = *buf.get(pos + 1)?;
        let code = ((b0 & 0x7F) as u16) << 8 | b1 as u16;
        Some((Entry::Open(TagCode(code)), 2))
    } else {
        Some((Entry::Close, 1))
    }
}

// ---------------------------------------------------------------------------
// Structure backends
// ---------------------------------------------------------------------------

/// Which physical encoding a structural page uses. The classic byte
/// encoding (the paper's 3-bytes-per-node string representation) is the
/// default and the differential oracle; the succinct backend packs the same
/// entry sequence as a balanced-parentheses bitvector plus varint tag codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Paper §4.2 byte entries: 2-byte Σ characters, 1-byte `)`.
    #[default]
    Classic,
    /// Bit-packed balanced parentheses + LEB128 tag codes (PR 9).
    Succinct,
}

impl BackendKind {
    /// The byte persisted in the database superblock to select this backend.
    pub fn format_byte(self) -> u8 {
        match self {
            BackendKind::Classic => 0,
            BackendKind::Succinct => 1,
        }
    }

    /// Inverse of [`BackendKind::format_byte`].
    pub fn from_format_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(BackendKind::Classic),
            1 => Some(BackendKind::Succinct),
            _ => None,
        }
    }

    /// Human-readable name (CLI flags, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Classic => "classic",
            BackendKind::Succinct => "succinct",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "classic" => Some(BackendKind::Classic),
            "succinct" => Some(BackendKind::Succinct),
            _ => None,
        }
    }

    /// The backend implementation for this kind.
    pub fn backend(self) -> &'static dyn StructureBackend {
        match self {
            BackendKind::Classic => &ClassicBackend,
            BackendKind::Succinct => &SuccinctBackend,
        }
    }
}

/// A physical page encoding: how an entry sequence becomes content bytes
/// and back. The 12-byte header (`st`/`lo`/`hi`/`next`/`nbytes`) is shared
/// by all backends; only the content area differs.
pub trait StructureBackend: Sync {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Human-readable name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Encode an entry sequence into content bytes.
    fn encode_content(&self, entries: &[Entry]) -> Vec<u8>;

    /// Decode a raw page (header + content) into entry/level arrays.
    /// `None` on any malformed input.
    fn decode(&self, buf: &[u8]) -> Option<DecodedPage>;

    /// Content bytes an entry sequence described by `acc` occupies.
    fn content_len(&self, acc: &ContentAcc) -> usize;
}

/// Incremental content-size accounting, so the builder and the update
/// splicer can pick page break points without encoding speculatively. Both
/// backends are pure functions of `(entries, opens, total varint bytes)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentAcc {
    /// Total entries.
    pub entries: usize,
    /// Open entries among them.
    pub opens: usize,
    /// Total LEB128 bytes of the open entries' tag codes.
    pub tag_bytes: usize,
}

impl ContentAcc {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for one more entry.
    #[inline]
    pub fn add(&mut self, e: Entry) {
        self.entries += 1;
        if let Entry::Open(TagCode(code)) = e {
            self.opens += 1;
            self.tag_bytes += varint_len(code);
        }
    }

    /// Accumulator over a whole slice.
    pub fn over(entries: &[Entry]) -> Self {
        let mut acc = Self::new();
        for &e in entries {
            acc.add(e);
        }
        acc
    }

    /// Content bytes under `kind`.
    #[inline]
    pub fn bytes(&self, kind: BackendKind) -> usize {
        kind.backend().content_len(self)
    }

    /// Content bytes under `kind` if `e` were appended.
    #[inline]
    pub fn bytes_with(&self, kind: BackendKind, e: Entry) -> usize {
        let mut next = *self;
        next.add(e);
        next.bytes(kind)
    }
}

/// The classic paper encoding (see module docs).
pub struct ClassicBackend;

impl StructureBackend for ClassicBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Classic
    }

    fn encode_content(&self, entries: &[Entry]) -> Vec<u8> {
        let mut out = Vec::with_capacity(entries.iter().map(|e| e.width()).sum());
        for &e in entries {
            encode_entry(&mut out, e);
        }
        out
    }

    fn decode(&self, buf: &[u8]) -> Option<DecodedPage> {
        DecodedPage::decode(buf)
    }

    fn content_len(&self, acc: &ContentAcc) -> usize {
        2 * acc.opens + (acc.entries - acc.opens)
    }
}

/// The succinct encoding. Content layout (after the shared header):
///
/// ```text
/// +---------+---------------------------+---------------------------+
/// | n (u16) | parens bits, ceil(n/8) B  | LEB128 tag codes (opens)  |
/// +---------+---------------------------+---------------------------+
/// ```
///
/// Bit `i` of the parenthesis vector is bit `i % 8` of byte `i / 8`
/// (LSB-first); `1` = open, `0` = close. Tag codes follow in open order.
/// Trailing padding bits of the last parenthesis byte are zero, `nbytes`
/// covers the three fields exactly, and an empty page has `nbytes == 0`
/// (no count word) — the same canonical form the classic backend uses.
pub struct SuccinctBackend;

impl StructureBackend for SuccinctBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Succinct
    }

    fn encode_content(&self, entries: &[Entry]) -> Vec<u8> {
        if entries.is_empty() {
            return Vec::new();
        }
        debug_assert!(entries.len() <= u16::MAX as usize);
        let n = entries.len();
        let mut out = Vec::with_capacity(2 + n.div_ceil(8));
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.resize(2 + n.div_ceil(8), 0);
        for (i, e) in entries.iter().enumerate() {
            if e.is_open() {
                out[2 + i / 8] |= 1 << (i % 8);
            }
        }
        for &e in entries {
            if let Entry::Open(TagCode(code)) = e {
                debug_assert!(code < 1 << 15);
                write_varint(&mut out, code);
            }
        }
        out
    }

    fn decode(&self, buf: &[u8]) -> Option<DecodedPage> {
        let header = read_header(buf)?;
        let content = buf.get(HEADER_SIZE..HEADER_SIZE + header.nbytes as usize)?;
        if content.is_empty() {
            return Some(DecodedPage {
                header,
                entries: Vec::new(),
                levels: Vec::new(),
                byte_offsets: Vec::new(),
                block_min: Vec::new(),
            });
        }
        let n = u16::from_le_bytes([*content.first()?, *content.get(1)?]) as usize;
        if n == 0 {
            return None; // a zero count must be encoded as nbytes == 0
        }
        let paren_bytes = content.get(2..2 + n.div_ceil(8))?;
        let mut entries = Vec::with_capacity(n);
        let mut levels = Vec::with_capacity(n);
        let mut level = header.st as i32;
        let mut tag_pos = 2 + paren_bytes.len();
        for i in 0..n {
            let open = (paren_bytes[i / 8] >> (i % 8)) & 1 == 1;
            if open {
                let (code, width) = read_varint(content, tag_pos)?;
                if code >= 1 << 15 {
                    return None; // tag codes share the classic bound
                }
                tag_pos += width;
                level += 1;
                entries.push(Entry::Open(TagCode(code)));
            } else {
                level -= 1;
                entries.push(Entry::Close);
            }
            if level < 0 {
                return None; // malformed: more closes than opens ever seen
            }
            levels.push(level as u16);
        }
        if tag_pos != content.len() {
            return None; // tag stream must cover nbytes exactly
        }
        // Padding bits of the last parenthesis byte must be zero.
        let pad = paren_bytes.len() * 8 - n;
        if pad > 0 && paren_bytes[paren_bytes.len() - 1] >> (8 - pad) != 0 {
            return None;
        }
        let block_min = block_minima(&levels);
        Some(DecodedPage {
            header,
            entries,
            levels,
            byte_offsets: Vec::new(),
            block_min,
        })
    }

    fn content_len(&self, acc: &ContentAcc) -> usize {
        if acc.entries == 0 {
            0
        } else {
            2 + acc.entries.div_ceil(8) + acc.tag_bytes
        }
    }
}

/// Encode an entry sequence under `kind`.
pub fn encode_content(kind: BackendKind, entries: &[Entry]) -> Vec<u8> {
    kind.backend().encode_content(entries)
}

/// Decode a raw page under `kind`.
pub fn decode_page(kind: BackendKind, buf: &[u8]) -> Option<DecodedPage> {
    kind.backend().decode(buf)
}

/// Entries per navigation block. Small enough that the deep/wide workloads
/// the paper cares about (tens to a few hundred entries between siblings)
/// skip most of a page, large enough that the per-block array stays tiny (a
/// 4 KB page of ~1300 entries carries ~82 minima).
pub const BLOCK_ENTRIES: usize = 16;

/// A structural page decoded into entry/level arrays — the paper's `A[p]`
/// (content) and `L[p]` (levels) from Algorithm 2's `READ-PAGE`.
#[derive(Debug, Clone)]
pub struct DecodedPage {
    /// Parsed header.
    pub header: PageHeader,
    /// Entries in order.
    pub entries: Vec<Entry>,
    /// Level of each entry (paper's convention; see module docs).
    pub levels: Vec<u16>,
    /// Byte offset of each entry within the content area (for updates).
    pub byte_offsets: Vec<u16>,
    /// Minimum level of each [`BLOCK_ENTRIES`]-entry block
    /// (`ceil(len / BLOCK_ENTRIES)` of them): the page header's `lo` one
    /// level down, and, since levels are `st + excess`, the min-excess
    /// directory of the page's parentheses. Computed at decode time by both
    /// backends and cached with the page — never persisted, so the on-disk
    /// format is unchanged.
    pub block_min: Vec<u16>,
}

impl DecodedPage {
    /// Decode a raw page. `None` on any malformed input: a buffer shorter
    /// than the header, an `nbytes` count overrunning the page, a truncated
    /// open entry, or a level sequence dropping below zero.
    pub fn decode(buf: &[u8]) -> Option<DecodedPage> {
        let header = read_header(buf)?;
        let content = buf.get(HEADER_SIZE..HEADER_SIZE + header.nbytes as usize)?;
        let mut entries = Vec::new();
        let mut levels = Vec::new();
        let mut byte_offsets = Vec::new();
        let mut pos = 0usize;
        let mut level = header.st as i32;
        while pos < content.len() {
            let (entry, width) = decode_entry(content, pos)?;
            byte_offsets.push(pos as u16);
            match entry {
                Entry::Open(_) => level += 1,
                Entry::Close => level -= 1,
            }
            if level < 0 {
                return None; // malformed: more closes than opens ever seen
            }
            entries.push(entry);
            levels.push(level as u16);
            pos += width;
        }
        let block_min = block_minima(&levels);
        Some(DecodedPage {
            header,
            entries,
            levels,
            byte_offsets,
            block_min,
        })
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Level of the last entry (st of the next page), or `header.st` when
    /// empty.
    #[inline]
    pub fn end_level(&self) -> u16 {
        self.levels.last().copied().unwrap_or(self.header.st)
    }

    /// Recompute `lo`/`hi` from the level array.
    pub fn level_bounds(&self) -> (u16, u16) {
        match (self.levels.iter().min(), self.levels.iter().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            // An empty page constrains nothing: make [lo,hi] the empty range.
            _ => (u16::MAX, 0),
        }
    }
}

/// The minimum level of each [`BLOCK_ENTRIES`]-entry block of `levels`.
fn block_minima(levels: &[u16]) -> Vec<u16> {
    levels
        .chunks(BLOCK_ENTRIES)
        .map(|block| block.iter().copied().fold(u16::MAX, u16::min))
        .collect()
}

/// Page capacity in *nodes* (the paper's C): how many 3-byte nodes fit in the
/// non-reserved content area. `reserve` is the paper's r.
pub fn capacity(page_size: usize, reserve: f64) -> usize {
    let usable = ((page_size - HEADER_SIZE) as f64 * (1.0 - reserve)).floor() as usize;
    usable / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_encoding_round_trip() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, Entry::Open(TagCode(0)));
        encode_entry(&mut buf, Entry::Close);
        encode_entry(&mut buf, Entry::Open(TagCode(0x7FFF)));
        encode_entry(&mut buf, Entry::Open(TagCode(300)));
        let (e0, w0) = decode_entry(&buf, 0).unwrap();
        assert_eq!((e0, w0), (Entry::Open(TagCode(0)), 2));
        let (e1, w1) = decode_entry(&buf, 2).unwrap();
        assert_eq!((e1, w1), (Entry::Close, 1));
        let (e2, _) = decode_entry(&buf, 3).unwrap();
        assert_eq!(e2, Entry::Open(TagCode(0x7FFF)));
        let (e3, _) = decode_entry(&buf, 5).unwrap();
        assert_eq!(e3, Entry::Open(TagCode(300)));
    }

    #[test]
    fn truncated_open_is_rejected() {
        let buf = vec![0x80];
        assert!(decode_entry(&buf, 0).is_none());
    }

    #[test]
    fn header_round_trip() {
        let mut buf = vec![0u8; 64];
        let h = PageHeader {
            st: 3,
            lo: 1,
            hi: 9,
            next: 42,
            nbytes: 17,
        };
        write_header(&mut buf, &h);
        assert_eq!(read_header(&buf), Some(h));
    }

    /// The paper's worked example: page 1 of Figure 4 contains
    /// `a b z ) e ) c f ) g ) )` and its level sequence is `123232343432`
    /// (with st = 0).
    #[test]
    fn paper_level_sequence() {
        let mut content = Vec::new();
        // a=0, b=1, z=2, e=3, c=4, f=5, g=6
        let seq: &[Option<u16>] = &[
            Some(0),
            Some(1),
            Some(2),
            None,
            Some(3),
            None,
            Some(4),
            Some(5),
            None,
            Some(6),
            None,
            None,
        ];
        for s in seq {
            match s {
                Some(code) => encode_entry(&mut content, Entry::Open(TagCode(*code))),
                None => encode_entry(&mut content, Entry::Close),
            }
        }
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: content.len() as u16,
            },
        );
        buf[HEADER_SIZE..].copy_from_slice(&content);
        let page = DecodedPage::decode(&buf).unwrap();
        assert_eq!(
            page.levels,
            vec![1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 2],
            "levels must match the paper's 123232343432"
        );
        assert_eq!(page.level_bounds(), (1, 4));
        assert_eq!(page.end_level(), 2);
    }

    #[test]
    fn st_offsets_levels_on_later_pages() {
        // Same content, but pretending it continues a page that ended at
        // level 5.
        let mut content = Vec::new();
        encode_entry(&mut content, Entry::Open(TagCode(0)));
        encode_entry(&mut content, Entry::Close);
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        write_header(
            &mut buf,
            &PageHeader {
                st: 5,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: content.len() as u16,
            },
        );
        buf[HEADER_SIZE..].copy_from_slice(&content);
        let page = DecodedPage::decode(&buf).unwrap();
        assert_eq!(page.levels, vec![6, 5]);
    }

    #[test]
    fn short_buffer_header_is_rejected() {
        assert_eq!(read_header(&[0u8; 4]), None);
        assert_eq!(read_header(&[]), None);
        assert!(DecodedPage::decode(&[0u8; 4]).is_none());
    }

    #[test]
    fn overrunning_nbytes_is_rejected() {
        // nbytes claims more content than the buffer holds.
        let mut buf = vec![0u8; HEADER_SIZE + 2];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: 100,
            },
        );
        assert!(DecodedPage::decode(&buf).is_none());
    }

    #[test]
    fn truncated_open_entry_in_page_is_rejected() {
        let mut buf = vec![0u8; HEADER_SIZE + 1];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: 1,
            },
        );
        buf[HEADER_SIZE] = 0x80; // first byte of a 2-byte open, then nothing
        assert!(DecodedPage::decode(&buf).is_none());
    }

    #[test]
    fn malformed_negative_level_rejected() {
        // A close at st=0 would drive the level to -1.
        let mut buf = vec![0u8; HEADER_SIZE + 1];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: 1,
            },
        );
        buf[HEADER_SIZE] = CLOSE_BYTE;
        assert!(DecodedPage::decode(&buf).is_none());
    }

    /// The paper: "assume that each page is 4KB, of which 20% of the space is
    /// reserved for update ... the number of nodes in a page is around 1000."
    #[test]
    fn paper_capacity_figure() {
        let c = capacity(4096, 0.2);
        assert!((1000..=1200).contains(&c), "C = {c}, paper says ≈1000");
        // And "the value of C is around 1000 to 3000 by substituting
        // reasonable values" — e.g. 8K pages with 10% reserve.
        let c2 = capacity(8192, 0.1);
        assert!((2000..=3000).contains(&c2), "C = {c2}");
    }

    #[test]
    fn byte_offsets_track_variable_width() {
        let mut content = Vec::new();
        encode_entry(&mut content, Entry::Open(TagCode(1))); // 2 bytes @0
        encode_entry(&mut content, Entry::Open(TagCode(2))); // 2 bytes @2
        encode_entry(&mut content, Entry::Close); // 1 byte @4
        encode_entry(&mut content, Entry::Close); // 1 byte @5
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: content.len() as u16,
            },
        );
        buf[HEADER_SIZE..].copy_from_slice(&content);
        let page = DecodedPage::decode(&buf).unwrap();
        assert_eq!(page.byte_offsets, vec![0, 2, 4, 5]);
    }

    #[test]
    fn block_summaries_cover_every_block() {
        // 20 opens then 20 closes: levels 1..=20 then 19..=0.
        let mut content = Vec::new();
        for i in 0..20 {
            encode_entry(&mut content, Entry::Open(TagCode(i)));
        }
        for _ in 0..20 {
            encode_entry(&mut content, Entry::Close);
        }
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: content.len() as u16,
            },
        );
        buf[HEADER_SIZE..].copy_from_slice(&content);
        let page = DecodedPage::decode(&buf).unwrap();
        assert_eq!(page.len(), 40);
        assert_eq!(page.block_min.len(), 40usize.div_ceil(BLOCK_ENTRIES));
        for (b, &min) in page.block_min.iter().enumerate() {
            let start = b * BLOCK_ENTRIES;
            let end = (start + BLOCK_ENTRIES).min(page.len());
            assert_eq!(
                min,
                *page.levels[start..end].iter().min().unwrap(),
                "block {b}"
            );
        }
        // Opens at 1..=16, then opens at 17..=20 and closes at 19 down to 8,
        // then closes at 7 down to 0.
        assert_eq!(page.block_min, vec![1, 8, 0]);
    }

    /// Build a raw page under `kind` from an entry sequence.
    fn raw_page(kind: BackendKind, st: u16, entries: &[Entry]) -> Vec<u8> {
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
        buf
    }

    fn paper_entries() -> Vec<Entry> {
        // a b z ) e ) c f ) g ) )  — Figure 4 page 1.
        [
            Some(0),
            Some(1),
            Some(2),
            None,
            Some(3),
            None,
            Some(4),
            Some(5),
            None,
            Some(6),
            None,
            None,
        ]
        .iter()
        .map(|s| match s {
            Some(code) => Entry::Open(TagCode(*code)),
            None => Entry::Close,
        })
        .collect()
    }

    #[test]
    fn succinct_round_trip_matches_classic_decode() {
        let entries = paper_entries();
        for st in [0u16, 5] {
            let classic = decode_page(
                BackendKind::Classic,
                &raw_page(BackendKind::Classic, st, &entries),
            )
            .unwrap();
            let succinct = decode_page(
                BackendKind::Succinct,
                &raw_page(BackendKind::Succinct, st, &entries),
            )
            .unwrap();
            assert_eq!(classic.entries, succinct.entries);
            assert_eq!(classic.levels, succinct.levels);
            assert_eq!(classic.block_min, succinct.block_min);
        }
    }

    #[test]
    fn succinct_content_is_smaller_and_accounted_exactly() {
        let entries = paper_entries();
        let acc = ContentAcc::over(&entries);
        for kind in [BackendKind::Classic, BackendKind::Succinct] {
            let content = encode_content(kind, &entries);
            assert_eq!(content.len(), acc.bytes(kind), "{}", kind.name());
        }
        // 7 opens, 5 closes: classic 19 bytes, succinct 2 + 2 + 7 = 11.
        assert_eq!(acc.bytes(BackendKind::Classic), 19);
        assert_eq!(acc.bytes(BackendKind::Succinct), 11);
        // Incremental accounting agrees with bulk.
        let mut inc = ContentAcc::new();
        for &e in &entries {
            assert_eq!(inc.bytes_with(BackendKind::Succinct, e), {
                let mut next = inc;
                next.add(e);
                next.bytes(BackendKind::Succinct)
            });
            inc.add(e);
        }
        assert_eq!(inc.bytes(BackendKind::Succinct), 11);
    }

    #[test]
    fn succinct_empty_page_is_zero_bytes() {
        assert!(encode_content(BackendKind::Succinct, &[]).is_empty());
        let buf = raw_page(BackendKind::Succinct, 0, &[]);
        let page = decode_page(BackendKind::Succinct, &buf).unwrap();
        assert!(page.is_empty());
        assert!(page.block_min.is_empty());
    }

    #[test]
    fn succinct_malformed_pages_rejected() {
        let entries = paper_entries();
        let good = raw_page(BackendKind::Succinct, 0, &entries);
        // Truncated tag stream: shrink nbytes by one.
        let mut bad = good.clone();
        let h = read_header(&bad).unwrap();
        write_header(
            &mut bad,
            &PageHeader {
                nbytes: h.nbytes - 1,
                ..h
            },
        );
        assert!(decode_page(BackendKind::Succinct, &bad).is_none());
        // Nonzero padding bit past the entry count.
        let mut bad = good.clone();
        bad[HEADER_SIZE + 2 + 1] |= 0x80; // bit 15 of a 12-entry page
        assert!(decode_page(BackendKind::Succinct, &bad).is_none());
        // A leading close underflows the level at st = 0.
        let mut flipped = paper_entries();
        flipped[0] = Entry::Close;
        flipped[3] = Entry::Open(TagCode(0));
        let bad = raw_page(BackendKind::Succinct, 0, &flipped);
        assert!(decode_page(BackendKind::Succinct, &bad).is_none());
        // Explicit zero count with nonzero nbytes is non-canonical.
        let mut buf = vec![0u8; HEADER_SIZE + 2];
        write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 0,
                next: NO_PAGE,
                nbytes: 2,
            },
        );
        assert!(decode_page(BackendKind::Succinct, &buf).is_none());
    }

    #[test]
    fn backend_format_bytes_round_trip() {
        for kind in [BackendKind::Classic, BackendKind::Succinct] {
            assert_eq!(
                BackendKind::from_format_byte(kind.format_byte()),
                Some(kind)
            );
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_format_byte(9), None);
        assert_eq!(BackendKind::from_name("nope"), None);
    }
}
