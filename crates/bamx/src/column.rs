//! Column primitives for the BAMX v2 layout (DESIGN.md §14): LEB128
//! varints, zigzag signed mapping, the per-field column catalogue, and
//! the projection sets that let converters decode only the streams they
//! read.
//!
//! Everything here is a pure byte codec — no I/O, no clock — and every
//! decode is total: malformed bytes return `None`/typed errors upstream,
//! never a panic (the module keeps the decode-path lint gate).

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Maps a signed value onto an unsigned one with small absolute values
/// staying small (`0 → 0, -1 → 1, 1 → 2, …`) — the standard zigzag
/// transform, so deltas around zero stay one varint byte.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `buf[*off..]`, advancing `off`.
///
/// Returns `None` on truncation or a non-canonical >10-byte encoding —
/// the caller wraps that in a typed [`DecodeError`](ngs_formats::error::
/// Error::Decode) carrying the stream context.
#[inline]
pub fn get_varint(buf: &[u8], off: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*off)?;
        *off += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// The eight column streams of a v2 block, in on-disk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColumnKind {
    /// `flag u16 LE + mapq u8` per record (3 bytes, raw).
    Flags = 0,
    /// `ref_id`/`pos0` as per-block delta + zigzag varints (raw).
    Pos = 1,
    /// `next_ref_id`/`next_pos0`/`tlen` as zigzag varints (raw).
    Mate = 2,
    /// `varint len + bytes` per record, DEFLATE-compressed stream.
    Qname = 3,
    /// `varint n_ops + varint ops` per record (raw).
    Cigar = 4,
    /// `varint base count + 4-bit packed bases`, DEFLATE-compressed.
    Seq = 5,
    /// `varint len + raw qualities`, DEFLATE-compressed.
    Qual = 6,
    /// `varint len + BAM tag bytes` per record (raw).
    Tags = 7,
}

/// Number of column streams per block.
pub const N_COLUMNS: usize = 8;

impl ColumnKind {
    /// All columns in on-disk order.
    pub const ALL: [ColumnKind; N_COLUMNS] = [
        ColumnKind::Flags,
        ColumnKind::Pos,
        ColumnKind::Mate,
        ColumnKind::Qname,
        ColumnKind::Cigar,
        ColumnKind::Seq,
        ColumnKind::Qual,
        ColumnKind::Tags,
    ];

    /// Column slot in the on-disk stream order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the stream is DEFLATE-compressed on disk (the codec
    /// table of DESIGN.md §14: text-like payloads compress, varint
    /// streams are already compact).
    #[inline]
    pub fn deflated(self) -> bool {
        matches!(self, ColumnKind::Qname | ColumnKind::Seq | ColumnKind::Qual)
    }

    /// Stable name for observability and errors.
    pub fn name(self) -> &'static str {
        match self {
            ColumnKind::Flags => "flags",
            ColumnKind::Pos => "pos",
            ColumnKind::Mate => "mate",
            ColumnKind::Qname => "qname",
            ColumnKind::Cigar => "cigar",
            ColumnKind::Seq => "seq",
            ColumnKind::Qual => "qual",
            ColumnKind::Tags => "tags",
        }
    }
}

/// A set of columns to decode — the projection a converter declares.
///
/// Every set implicitly contains [`ColumnKind::Flags`] and
/// [`ColumnKind::Pos`]: flags and coordinates are what `is_unmapped`
/// and reference-name reconstruction need, and both streams are a few
/// bytes per record, so carrying them costs nothing while keeping every
/// projected record's identity fields exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet(u8);

impl ColumnSet {
    /// Every column — full record decode.
    pub const ALL: ColumnSet = ColumnSet(0xFF);

    /// The mandatory minimum: flags + positions only (what
    /// `positions()` and coordinate-histogram consumers need).
    pub const POSITIONS: ColumnSet = ColumnSet(0);

    /// A set holding exactly the given columns (plus the mandatory
    /// flags/pos pair).
    pub fn of(kinds: &[ColumnKind]) -> ColumnSet {
        let mut bits = 0u8;
        for k in kinds {
            bits |= 1 << k.index();
        }
        ColumnSet(bits)
    }

    /// Whether `kind` must be decoded under this projection.
    #[inline]
    pub fn contains(self, kind: ColumnKind) -> bool {
        matches!(kind, ColumnKind::Flags | ColumnKind::Pos) || self.0 & (1 << kind.index()) != 0
    }

    /// The union of two projections.
    pub fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// True when this is the full-decode set.
    pub fn is_all(self) -> bool {
        ColumnKind::ALL.iter().all(|&k| self.contains(k))
    }
}

impl Default for ColumnSet {
    fn default() -> Self {
        ColumnSet::ALL
    }
}

/// Deep-code observability (no constructor seam in the decode path):
/// `OnceLock`-cached handles on the global registry, gated on
/// `ngs_obs::enabled()` — the same pattern as the shard repository.
pub(crate) mod obs {
    use std::sync::{Arc, OnceLock};

    use ngs_obs::Counter;

    pub(crate) struct Counters {
        /// Decompressed column-stream bytes made available to decoders —
        /// the projection win is this counter shrinking versus a full
        /// scan (`tests/projection_bytes.rs` checks the same win in shard
        /// bytes read).
        pub(crate) column_bytes_decoded: Arc<Counter>,
        /// Column streams skipped entirely by a projection.
        pub(crate) columns_skipped: Arc<Counter>,
    }

    pub(crate) fn counters() -> Option<&'static Counters> {
        if !ngs_obs::enabled() {
            return None;
        }
        static COUNTERS: OnceLock<Counters> = OnceLock::new();
        Some(COUNTERS.get_or_init(|| {
            let r = ngs_obs::global();
            Counters {
                column_bytes_decoded: r.counter("bamx.column_bytes_decoded"),
                columns_skipped: r.counter("bamx.columns_skipped"),
            }
        }))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX, i64::MIN, i32::MAX as i64 + 7] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut off = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut off), Some(v));
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn varint_truncation_and_overflow_are_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut off = 0;
            assert_eq!(get_varint(&buf[..cut], &mut off), None, "cut {cut}");
        }
        // 10 continuation bytes with a large final digit overflow u64.
        let bomb = [0xFFu8; 11];
        let mut off = 0;
        assert_eq!(get_varint(&bomb, &mut off), None);
    }

    #[test]
    fn column_sets_imply_flags_and_pos() {
        let s = ColumnSet::of(&[ColumnKind::Seq]);
        assert!(s.contains(ColumnKind::Seq));
        assert!(s.contains(ColumnKind::Flags));
        assert!(s.contains(ColumnKind::Pos));
        assert!(!s.contains(ColumnKind::Qual));
        assert!(ColumnSet::ALL.is_all());
        assert!(!ColumnSet::POSITIONS.is_all());
        assert!(s.union(ColumnSet::of(&[ColumnKind::Qual])).contains(ColumnKind::Qual));
    }
}
