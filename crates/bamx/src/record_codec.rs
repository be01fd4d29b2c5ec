//! Fixed-width BAMX record encode/decode.
//!
//! Unlike BAM, every field slot has a layout-determined width; actual
//! lengths are stored in the fixed prefix and the remainder of each slot
//! is zero padding.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ngs_formats::bam::decode_tags;
use ngs_formats::cigar::{Cigar, CigarOp};
use ngs_formats::error::{Error, Result};
use ngs_formats::fields::{FieldsScratch, RecordFields, RefIds};
use ngs_formats::flags::Flags;
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::seq;

use crate::baix::position_key;
use crate::layout::BamxLayout;

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
    pad(out, layout.max_qname as usize, f.qname().len());
    out.extend_from_slice(f.cigar_bytes());
    pad(out, layout.max_cigar_ops as usize * 4, f.cigar_bytes().len());
    out.extend_from_slice(f.packed_seq());
    pad(out, layout.seq_bytes(), f.packed_seq().len());
    let qual = f.qual().unwrap_or_default();
    out.extend_from_slice(qual);
    pad(out, layout.max_seq as usize, qual.len());
    out.extend_from_slice(f.tags());
    pad(out, layout.max_tags as usize, f.tags().len());

    debug_assert_eq!(out.len() - start, layout.record_size());
    Ok(position_key(f.ref_id(), f.pos0()))
}

/// Reads the (ref_id, pos0) key of an encoded record without full decode —
/// the hot path for BAIX index construction.
pub fn peek_position(buf: &[u8]) -> Result<(i32, i32)> {
    if buf.len() < 12 {
        return Err(Error::InvalidRecord("BAMX record too short".into()));
    }
    let ref_id = i32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let pos0 = i32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    Ok((ref_id, pos0))
}

/// Decodes one fixed-width record from `buf` (which must be exactly one
/// record of the given layout).
pub fn decode(buf: &[u8], header: &SamHeader, layout: &BamxLayout) -> Result<AlignmentRecord> {
    if buf.len() < layout.record_size() {
        return Err(Error::InvalidRecord("BAMX record truncated".into()));
    }
    let flag = Flags(u16::from_le_bytes([buf[0], buf[1]]));
    let mapq = buf[2];
    let ref_id = i32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let pos0 = i32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let next_ref_id = i32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
    let next_pos0 = i32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
    let tlen = {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[20..28]);
        i64::from_le_bytes(b)
    };
    let qname_len = u16::from_le_bytes([buf[28], buf[29]]) as usize;
    let n_cigar = u16::from_le_bytes([buf[30], buf[31]]) as usize;
    let seq_len = u32::from_le_bytes([buf[32], buf[33], buf[34], buf[35]]) as usize;
    let tag_len = u32::from_le_bytes([buf[36], buf[37], buf[38], buf[39]]) as usize;
    let qual_present = buf[40] != 0;

    if qname_len > layout.max_qname as usize
        || n_cigar > layout.max_cigar_ops as usize
        || seq_len > layout.max_seq as usize
        || tag_len > layout.max_tags as usize
    {
        return Err(Error::InvalidRecord("BAMX lengths exceed layout".into()));
    }

    let mut off = crate::layout::FIXED_FIELDS_SIZE;
    let qname = buf[off..off + qname_len].to_vec();
    off += layout.max_qname as usize;

    let mut cigar_ops = Vec::with_capacity(n_cigar);
    for i in 0..n_cigar {
        let p = off + i * 4;
        let enc = u32::from_le_bytes([buf[p], buf[p + 1], buf[p + 2], buf[p + 3]]);
        cigar_ops.push((enc >> 4, CigarOp::from_bam_code(enc & 0xF)?));
    }
    off += layout.max_cigar_ops as usize * 4;

    let seq_bases = seq::unpack(&buf[off..off + layout.seq_bytes()], seq_len)?;
    off += layout.seq_bytes();

    let qual =
        if qual_present { buf[off..off + seq_len].to_vec() } else { Vec::new() };
    off += layout.max_seq as usize;

    let tags = decode_tags(&buf[off..off + tag_len])?;

    let rname = match header.reference_name(ref_id) {
        Some(n) => n.to_vec(),
        None => b"*".to_vec(),
    };
    let rnext = if next_ref_id < 0 {
        b"*".to_vec()
    } else if next_ref_id == ref_id {
        b"=".to_vec()
    } else {
        header
            .reference_name(next_ref_id)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| Error::InvalidRecord("next_ref_id out of range".into()))?
    };

    Ok(AlignmentRecord {
        qname: if qname == b"*" { Vec::new() } else { qname },
        flag,
        rname,
        pos: pos0 as i64 + 1,
        mapq,
        cigar: Cigar(cigar_ops),
        rnext,
        pnext: next_pos0 as i64 + 1,
        tlen,
        seq: seq_bases,
        qual,
        tags,
    })
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
