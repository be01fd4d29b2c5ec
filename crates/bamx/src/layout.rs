//! BAMX fixed-width record layout.
//!
//! The paper's key preprocessing idea: pad every variable-length BAM field
//! (name, CIGAR, sequence, qualities, tags) to a per-dataset maximum so
//! that every record occupies the same number of bytes, making record `i`
//! addressable at `header + i * record_size` — which is what enables
//! embarrassingly-parallel partitioning and partial conversion.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ngs_formats::error::{Error, Result};
use ngs_formats::record::{AlignmentRecord, FieldLengths};

/// Size of the fixed (non-padded) portion of a BAMX record.
pub const FIXED_FIELDS_SIZE: usize = 2  // flag
    + 1  // mapq
    + 1  // pad/reserved
    + 4  // ref_id
    + 4  // pos0
    + 4  // next_ref_id
    + 4  // next_pos0
    + 8  // tlen (widened vs BAM for safety)
    + 2  // qname_len
    + 2  // n_cigar
    + 4  // seq_len
    + 4  // tag_len
    + 1; // qual_present

/// Per-dataset field maxima that define the padded record shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BamxLayout {
    /// Maximum read-name length in bytes.
    pub max_qname: u16,
    /// Maximum number of CIGAR operations.
    pub max_cigar_ops: u16,
    /// Maximum sequence length in bases.
    pub max_seq: u32,
    /// Maximum encoded tag-block length in bytes.
    pub max_tags: u32,
}

impl BamxLayout {
    /// A layout with all maxima zero; grow with [`Self::observe`].
    pub fn empty() -> Self {
        BamxLayout { max_qname: 0, max_cigar_ops: 0, max_seq: 0, max_tags: 0 }
    }

    /// Expands the layout so `record` fits.
    pub fn observe(&mut self, record: &AlignmentRecord) -> Result<()> {
        self.observe_lengths(&FieldLengths::of(record)?)
    }

    /// Expands the layout so a record with these field lengths fits —
    /// the layout pass proper: preprocessing measures lengths off the
    /// raw input and never builds a record to call [`Self::observe`].
    pub fn observe_lengths(&mut self, lengths: &FieldLengths) -> Result<()> {
        let too_long = |what: &str| Error::InvalidRecord(format!("{what} for BAMX"));
        let qname = u16::try_from(lengths.qname).map_err(|_| too_long("read name too long"))?;
        let cigar_ops =
            u16::try_from(lengths.cigar_ops).map_err(|_| too_long("too many CIGAR ops"))?;
        let seq = u32::try_from(lengths.seq).map_err(|_| too_long("sequence too long"))?;
        let tags = u32::try_from(lengths.tags).map_err(|_| too_long("tag block too long"))?;
        self.max_qname = self.max_qname.max(qname);
        self.max_cigar_ops = self.max_cigar_ops.max(cigar_ops);
        self.max_seq = self.max_seq.max(seq);
        self.max_tags = self.max_tags.max(tags);
        Ok(())
    }

    /// Merges two layouts (pointwise maxima) — used when combining the
    /// per-rank layouts of a parallel preprocessing run.
    pub fn merge(&self, other: &BamxLayout) -> BamxLayout {
        BamxLayout {
            max_qname: self.max_qname.max(other.max_qname),
            max_cigar_ops: self.max_cigar_ops.max(other.max_cigar_ops),
            max_seq: self.max_seq.max(other.max_seq),
            max_tags: self.max_tags.max(other.max_tags),
        }
    }

    /// Bytes occupied by the packed (2-bases-per-byte) sequence field.
    pub fn seq_bytes(&self) -> usize {
        (self.max_seq as usize).div_ceil(2)
    }

    /// Total fixed record size implied by the maxima.
    pub fn record_size(&self) -> usize {
        FIXED_FIELDS_SIZE
            + self.max_qname as usize
            + self.max_cigar_ops as usize * 4
            + self.seq_bytes()
            + self.max_seq as usize // qualities
            + self.max_tags as usize
    }

    /// Serializes the layout (12 bytes).
    pub fn encode(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..2].copy_from_slice(&self.max_qname.to_le_bytes());
        out[2..4].copy_from_slice(&self.max_cigar_ops.to_le_bytes());
        out[4..8].copy_from_slice(&self.max_seq.to_le_bytes());
        out[8..12].copy_from_slice(&self.max_tags.to_le_bytes());
        out
    }

    /// Deserializes a layout.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 12 {
            return Err(Error::InvalidRecord("truncated BAMX layout".into()));
        }
        Ok(BamxLayout {
            max_qname: u16::from_le_bytes([bytes[0], bytes[1]]),
            max_cigar_ops: u16::from_le_bytes([bytes[2], bytes[3]]),
            max_seq: u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            max_tags: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        })
    }

    /// Computes the layout covering every record in `records`.
    pub fn compute<'a>(records: impl IntoIterator<Item = &'a AlignmentRecord>) -> Result<Self> {
        let mut layout = Self::empty();
        for r in records {
            layout.observe(r)?;
        }
        Ok(layout)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ngs_formats::sam;

    fn rec(line: &str) -> AlignmentRecord {
        sam::parse_record(line.as_bytes(), 1).unwrap()
    }

    #[test]
    fn observe_tracks_maxima() {
        let mut l = BamxLayout::empty();
        l.observe(&rec("short\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII")).unwrap();
        l.observe(&rec("muchlongername\t0\tchr1\t1\t60\t2M1I5M\t*\t0\t0\tACGTACGT\tIIIIIIII\tNM:i:1")).unwrap();
        assert_eq!(l.max_qname, 14);
        assert_eq!(l.max_cigar_ops, 3);
        assert_eq!(l.max_seq, 8);
        assert!(l.max_tags >= 4); // NM:c:1 encodes as 2+1+1 bytes
    }

    #[test]
    fn record_size_formula() {
        let l = BamxLayout { max_qname: 20, max_cigar_ops: 4, max_seq: 90, max_tags: 16 };
        assert_eq!(
            l.record_size(),
            FIXED_FIELDS_SIZE + 20 + 16 + 45 + 90 + 16
        );
    }

    #[test]
    fn odd_sequence_length_rounds_up() {
        let l = BamxLayout { max_qname: 1, max_cigar_ops: 0, max_seq: 5, max_tags: 0 };
        assert_eq!(l.seq_bytes(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let l = BamxLayout { max_qname: 254, max_cigar_ops: 7, max_seq: 151, max_tags: 999 };
        assert_eq!(BamxLayout::decode(&l.encode()).unwrap(), l);
        assert!(BamxLayout::decode(&[0u8; 5]).is_err());
    }

    #[test]
    fn merge_is_pointwise_max() {
        let a = BamxLayout { max_qname: 10, max_cigar_ops: 2, max_seq: 100, max_tags: 5 };
        let b = BamxLayout { max_qname: 5, max_cigar_ops: 9, max_seq: 50, max_tags: 50 };
        let m = a.merge(&b);
        assert_eq!(m, BamxLayout { max_qname: 10, max_cigar_ops: 9, max_seq: 100, max_tags: 50 });
    }

    #[test]
    fn compute_over_slice() {
        let records = vec![
            rec("a\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII"),
            rec("bb\t0\tchr1\t2\t60\t8M\t*\t0\t0\tACGTACGT\tIIIIIIII"),
        ];
        let l = BamxLayout::compute(&records).unwrap();
        assert_eq!(l.max_qname, 2);
        assert_eq!(l.max_seq, 8);
    }
}
