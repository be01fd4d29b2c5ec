//! Fixed-width BAMX record encode/decode.
//!
//! Unlike BAM, every field slot has a layout-determined width; actual
//! lengths are stored in the fixed prefix and the remainder of each slot
//! is zero padding:
//!
//! | bytes | field |
//! |---|---|
//! | 0–1 | flag u16 |
//! | 2 | mapq u8 |
//! | 3 | reserved (0) |
//! | 4–7 | ref_id i32 |
//! | 8–11 | pos0 i32 |
//! | 12–15 | next_ref_id i32 |
//! | 16–19 | next_pos0 i32 |
//! | 20–27 | tlen i64 |
//! | 28–29 | qname length u16 |
//! | 30–31 | CIGAR op count u16 |
//! | 32–35 | SEQ length u32 |
//! | 36–39 | tag block length u32 |
//! | 40 | QUAL present u8 (0/1) |
//! | 41– | slots: qname (`max_qname`), CIGAR words (`4 × max_cigar_ops`), packed SEQ (`⌈max_seq / 2⌉`), QUAL (`max_seq`), tags (`max_tags`) |
//!
//! All integers are little-endian. Reading a record back builds nothing:
//! [`fields`] borrows its [`RecordFields`] from the record's bytes.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use ngs_formats::error::{Error, Result};
use ngs_formats::fields::{FieldsScratch, RecordFields, RefIds, StoredFields};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::view::{Alignment, FieldsView};

use crate::baix::position_key;
use crate::layout::{BamxLayout, FIXED_FIELDS_SIZE};

/// Encodes `record` into exactly `layout.record_size()` bytes appended to
/// `out` — [`encode_fields`] over [`RecordFields::from_record`]. Builds
/// the header's [`RefIds`] on every call; writers build it once.
pub fn encode(record: &AlignmentRecord, header: &SamHeader, layout: &BamxLayout, out: &mut Vec<u8>) -> Result<()> {
    let mut scratch = FieldsScratch::default();
    let fields = RecordFields::from_record(record, &RefIds::new(header), &mut scratch)?;
    encode_fields(&fields, layout, out).map(drop)
}

/// A record's variable lengths, checked against a layout and narrowed to
/// the widths both BAMX layouts store.
pub(crate) struct Lengths {
    pub(crate) qname: u16,
    pub(crate) cigar_ops: u16,
    pub(crate) seq: u32,
    pub(crate) tags: u32,
}

/// A layout maximum as a slot width.
fn width(max: u32) -> Result<usize> {
    usize::try_from(max).map_err(|_| Error::InvalidRecord("BAMX layout exceeds the address space".into()))
}

/// The one validation every BAMX encoder runs before writing a byte: each
/// variable field within the layout maxima, and qualities, when present,
/// as long as the sequence. (The i32 coordinate domain is checked where
/// fields are made: [`RecordFields`] holds coordinates as `i32`.)
pub(crate) fn check(f: &RecordFields<'_>, layout: &BamxLayout) -> Result<Lengths> {
    fn within<T: TryFrom<usize> + PartialOrd>(len: usize, max: T, what: &str) -> Result<T> {
        T::try_from(len)
            .ok()
            .filter(|n| *n <= max)
            .ok_or_else(|| Error::InvalidRecord(format!("{what} BAMX layout")))
    }
    let lengths = Lengths {
        qname: within(f.qname().len(), layout.max_qname, "qname exceeds")?,
        cigar_ops: within(f.n_cigar_ops(), layout.max_cigar_ops, "CIGAR exceeds")?,
        seq: within(f.l_seq(), layout.max_seq, "sequence exceeds")?,
        tags: within(f.tags().len(), layout.max_tags, "tags exceed")?,
    };
    if f.qual().is_some_and(|q| q.len() != f.l_seq()) {
        return Err(Error::InvalidRecord("SEQ/QUAL length mismatch".into()));
    }
    Ok(lengths)
}

/// Encodes one record into exactly `layout.record_size()` bytes appended
/// to `out` and returns its BAIX [`position_key`]. A record the layout
/// rejects writes nothing.
pub fn encode_fields(f: &RecordFields<'_>, layout: &BamxLayout, out: &mut Vec<u8>) -> Result<u64> {
    let lengths = check(f, layout)?;
    let start = out.len();
    let pad = |out: &mut Vec<u8>, slot: usize, used: usize| out.resize(out.len() + slot - used, 0);

    out.extend_from_slice(&f.flag().to_le_bytes());
    out.push(f.mapq());
    out.push(0); // reserved
    out.extend_from_slice(&f.ref_id().to_le_bytes());
    out.extend_from_slice(&f.pos0().to_le_bytes());
    out.extend_from_slice(&f.next_ref_id().to_le_bytes());
    out.extend_from_slice(&f.next_pos0().to_le_bytes());
    out.extend_from_slice(&f.tlen().to_le_bytes());
    out.extend_from_slice(&lengths.qname.to_le_bytes());
    out.extend_from_slice(&lengths.cigar_ops.to_le_bytes());
    out.extend_from_slice(&lengths.seq.to_le_bytes());
    out.extend_from_slice(&lengths.tags.to_le_bytes());
    out.push(u8::from(f.qual().is_some()));

    out.extend_from_slice(f.qname());
    pad(out, usize::from(layout.max_qname), f.qname().len());
    out.extend_from_slice(f.cigar_bytes());
    pad(out, usize::from(layout.max_cigar_ops) * 4, f.cigar_bytes().len());
    out.extend_from_slice(f.packed_seq());
    pad(out, layout.seq_bytes(), f.packed_seq().len());
    let qual = f.qual().unwrap_or_default();
    out.extend_from_slice(qual);
    pad(out, width(layout.max_seq)?, qual.len());
    out.extend_from_slice(f.tags());
    pad(out, width(layout.max_tags)?, f.tags().len());

    debug_assert_eq!(out.len() - start, layout.record_size());
    Ok(position_key(f.ref_id(), f.pos0()))
}

/// `N` little-endian bytes at `at` (the caller has checked the length).
fn le<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut b = [0u8; N];
    b.copy_from_slice(&buf[at..at + N]);
    b
}

/// Reads the (ref_id, pos0) key of an encoded record without full decode —
/// the hot path for BAIX index construction.
pub fn peek_position(buf: &[u8]) -> Result<(i32, i32)> {
    if buf.len() < 12 {
        return Err(Error::InvalidRecord("BAMX record too short".into()));
    }
    Ok((i32::from_le_bytes(le(buf, 4)), i32::from_le_bytes(le(buf, 8))))
}

/// The fields of one fixed-width record, borrowed from `buf` (which must
/// hold at least one record of the given layout) — the v1 read
/// front-end. In order, it rejects a short buffer, lengths beyond the
/// layout, what [`RecordFields::from_stored`] rejects (a CIGAR op code
/// above 8, a tag block that does not walk), and a mate reference id
/// that is neither −1, the record's own, nor in `header`.
pub fn fields<'a>(buf: &'a [u8], header: &SamHeader, layout: &BamxLayout) -> Result<RecordFields<'a>> {
    if buf.len() < layout.record_size() {
        return Err(Error::InvalidRecord("BAMX record truncated".into()));
    }
    let qname_len = usize::from(u16::from_le_bytes(le(buf, 28)));
    let n_cigar = usize::from(u16::from_le_bytes(le(buf, 30)));
    let seq_len = u32::from_le_bytes(le(buf, 32));
    let tag_len = u32::from_le_bytes(le(buf, 36));
    if qname_len > usize::from(layout.max_qname)
        || n_cigar > usize::from(layout.max_cigar_ops)
        || seq_len > layout.max_seq
        || tag_len > layout.max_tags
    {
        return Err(Error::InvalidRecord("BAMX lengths exceed layout".into()));
    }
    let (seq_len, tag_len) = (width(seq_len)?, width(tag_len)?);

    let qname_at = FIXED_FIELDS_SIZE;
    let cigar_at = qname_at + usize::from(layout.max_qname);
    let seq_at = cigar_at + usize::from(layout.max_cigar_ops) * 4;
    let qual_at = seq_at + layout.seq_bytes();
    let tags_at = qual_at + width(layout.max_seq)?;
    let ref_id = i32::from_le_bytes(le(buf, 4));
    let next_ref_id = i32::from_le_bytes(le(buf, 12));
    let fields = RecordFields::from_stored(StoredFields {
        flag: u16::from_le_bytes(le(buf, 0)),
        mapq: buf[2],
        ref_id,
        pos0: i32::from_le_bytes(le(buf, 8)),
        next_ref_id,
        next_pos0: i32::from_le_bytes(le(buf, 16)),
        tlen: i64::from_le_bytes(le(buf, 20)),
        qname: &buf[qname_at..qname_at + qname_len],
        cigar: &buf[cigar_at..cigar_at + n_cigar * 4],
        l_seq: seq_len,
        seq: &buf[seq_at..qual_at],
        qual: (buf[40] != 0).then(|| &buf[qual_at..qual_at + seq_len]),
        tags: &buf[tags_at..tags_at + tag_len],
    })?;
    if next_ref_id >= 0 && next_ref_id != ref_id && header.reference_name(next_ref_id).is_none() {
        return Err(Error::InvalidRecord("next_ref_id out of range".into()));
    }
    Ok(fields)
}

/// Decodes one fixed-width record from `buf` into an owned record: the
/// [`fields`] front-end, then [`Alignment::to_record`].
pub fn decode(buf: &[u8], header: &SamHeader, layout: &BamxLayout) -> Result<AlignmentRecord> {
    Ok(FieldsView::new(fields(buf, header, layout)?, header).to_record())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ngs_formats::header::ReferenceSequence;
    use ngs_formats::sam;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 100_000 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 100_000 },
        ])
    }

    fn rec(line: &str) -> AlignmentRecord {
        sam::parse_record(line.as_bytes(), 1).unwrap()
    }

    #[test]
    fn roundtrip_mixed_records() {
        let h = header();
        let records = vec![
            rec("read1\t99\tchr1\t100\t60\t40M2I48M\t=\t300\t290\tACGTACGTAC\tIIIIIIIIII\tNM:i:2\tRG:Z:g"),
            rec("r2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*"),
            rec("alignment-with-a-very-long-name\t16\tchr2\t5000\t37\t90M\tchr1\t100\t0\tACGT\t*"),
        ];
        let layout = BamxLayout::compute(&records).unwrap();
        let mut buf = Vec::new();
        for r in &records {
            encode(r, &h, &layout, &mut buf).unwrap();
        }
        assert_eq!(buf.len(), layout.record_size() * records.len());
        for (i, r) in records.iter().enumerate() {
            let slice = &buf[i * layout.record_size()..(i + 1) * layout.record_size()];
            assert_eq!(&decode(slice, &h, &layout).unwrap(), r, "record {i}");
        }
    }

    #[test]
    fn peek_matches_decode() {
        let h = header();
        let r = rec("x\t0\tchr2\t4321\t60\t4M\t*\t0\t0\tACGT\tIIII");
        let layout = BamxLayout::compute([&r]).unwrap();
        let mut buf = Vec::new();
        encode(&r, &h, &layout, &mut buf).unwrap();
        let (ref_id, pos0) = peek_position(&buf).unwrap();
        assert_eq!(ref_id, 1);
        assert_eq!(pos0, 4320);
    }

    #[test]
    fn layout_violations_rejected() {
        let h = header();
        let small = BamxLayout { max_qname: 2, max_cigar_ops: 1, max_seq: 2, max_tags: 0 };
        let r = rec("toolong\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        let mut buf = Vec::new();
        assert!(encode(&r, &h, &small, &mut buf).is_err());
    }

    /// Regression: POS/PNEXT are i64 on [`AlignmentRecord`] but i32 on
    /// disk; a coordinate past `i32::MAX` must be a typed encode error,
    /// never a silent `as i32` wrap that round-trips as a different
    /// coordinate.
    #[test]
    fn pos_past_i32_max_rejected_at_encode() {
        let h = header();
        let mut r = rec("x\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        let layout = BamxLayout::compute([&r]).unwrap();
        r.pos = i32::MAX as i64 + 2; // pos0 = i32::MAX + 1
        let mut buf = Vec::new();
        let err = encode(&r, &h, &layout, &mut buf).unwrap_err();
        assert!(err.to_string().contains("POS"), "{err}");
        assert!(buf.is_empty(), "a rejected record must write nothing");
        // The last representable coordinate still encodes and round-trips.
        r.pos = i32::MAX as i64 + 1; // pos0 = i32::MAX exactly
        encode(&r, &h, &layout, &mut buf).unwrap();
        assert_eq!(decode(&buf, &h, &layout).unwrap().pos, r.pos);
    }

    #[test]
    fn pnext_past_i32_max_rejected_at_encode() {
        let h = header();
        let mut r = rec("x\t99\tchr1\t100\t60\t4M\t=\t300\t290\tACGT\tIIII");
        let layout = BamxLayout::compute([&r]).unwrap();
        r.pnext = i32::MAX as i64 + 2;
        let mut buf = Vec::new();
        let err = encode(&r, &h, &layout, &mut buf).unwrap_err();
        assert!(err.to_string().contains("PNEXT"), "{err}");
    }

    #[test]
    fn truncated_buffer_rejected() {
        let h = header();
        let r = rec("x\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        let layout = BamxLayout::compute([&r]).unwrap();
        let mut buf = Vec::new();
        encode(&r, &h, &layout, &mut buf).unwrap();
        assert!(decode(&buf[..buf.len() - 1], &h, &layout).is_err());
    }

    #[test]
    fn all_records_same_size() {
        let h = header();
        let records = vec![
            rec("a\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\tNM:i:1"),
            rec("ridiculous-name\t0\tchr1\t2\t60\t1M1I1M1D1M\t*\t0\t0\tACGTA\tIIIII"),
        ];
        let layout = BamxLayout::compute(&records).unwrap();
        let sizes: Vec<usize> = records
            .iter()
            .map(|r| {
                let mut b = Vec::new();
                encode(r, &h, &layout, &mut b).unwrap();
                b.len()
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[0], layout.record_size());
    }
}
