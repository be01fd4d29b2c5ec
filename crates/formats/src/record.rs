//! The alignment record model — the "alignment object" of the paper's
//! converter runtime, shared by every parser and target-format emitter.

use crate::cigar::Cigar;
use crate::error::Result;
use crate::flags::Flags;
use crate::tags::{Tag, TagValue};
use crate::view::Alignment;

/// A single sequence alignment record (one SAM line / one BAM record).
///
/// Text-oriented conventions are used so the record can exist without a
/// header dictionary: reference names are stored as byte strings (`*` for
/// none) and `pos` is the 1-based SAM coordinate (`0` = unavailable).
/// The BAM codec translates to/from reference ids and 0-based coordinates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlignmentRecord {
    /// Query (read) name; `*` when unavailable.
    pub qname: Vec<u8>,
    /// Bitwise FLAG.
    pub flag: Flags,
    /// Reference sequence name; `*` when unmapped.
    pub rname: Vec<u8>,
    /// 1-based leftmost mapping position; 0 when unavailable.
    pub pos: i64,
    /// Mapping quality; 255 = unavailable.
    pub mapq: u8,
    /// CIGAR operations (empty = `*`).
    pub cigar: Cigar,
    /// Reference name of the mate (`*` none, `=` same as `rname`).
    pub rnext: Vec<u8>,
    /// 1-based position of the mate; 0 when unavailable.
    pub pnext: i64,
    /// Observed template length.
    pub tlen: i64,
    /// Read bases (ASCII); empty = `*`.
    pub seq: Vec<u8>,
    /// Raw Phred qualities (NOT +33 encoded); empty = `*`.
    pub qual: Vec<u8>,
    /// Optional typed tags.
    pub tags: Vec<Tag>,
}

impl AlignmentRecord {
    /// A minimal mapped record, useful in tests and generators.
    pub fn mapped(
        qname: &[u8],
        rname: &[u8],
        pos: i64,
        mapq: u8,
        cigar: Cigar,
        seq: &[u8],
        qual: &[u8],
    ) -> Self {
        AlignmentRecord {
            qname: qname.to_vec(),
            flag: Flags::default(),
            rname: rname.to_vec(),
            pos,
            mapq,
            cigar,
            rnext: b"*".to_vec(),
            pnext: 0,
            tlen: 0,
            seq: seq.to_vec(),
            qual: qual.to_vec(),
            tags: Vec::new(),
        }
    }

    /// True if the record is unmapped (by FLAG or missing coordinates).
    pub fn is_unmapped(&self) -> bool {
        Alignment::is_unmapped(self)
    }

    /// 0-based start position, or `None` if unmapped.
    pub fn start0(&self) -> Option<i64> {
        Alignment::start0(self)
    }

    /// 0-based exclusive end position on the reference, derived from the
    /// CIGAR (or start+1 for an empty CIGAR), or `None` if unmapped.
    pub fn end0(&self) -> Option<i64> {
        Alignment::end0(self)
    }

    /// Looks up a tag by key.
    pub fn tag(&self, key: [u8; 2]) -> Option<&TagValue> {
        self.tags.iter().find(|t| t.key == key).map(|t| &t.value)
    }

    /// Read length inferred from SEQ, falling back to the CIGAR query
    /// length when SEQ is `*`.
    pub fn read_len(&self) -> usize {
        if self.seq.is_empty() {
            self.cigar.query_len() as usize
        } else {
            self.seq.len()
        }
    }

    /// Approximate in-memory footprint in bytes, used by buffer sizing.
    pub fn heap_size(&self) -> usize {
        self.qname.len()
            + self.rname.len()
            + self.rnext.len()
            + self.seq.len()
            + self.qual.len()
            + self.cigar.0.len() * 8
            + self.tags.len() * 24
    }
}

/// The lengths of a record's four variable-length fields, as a
/// fixed-width layout stores them — everything a layout pass needs, and
/// measurable from raw BAM bytes ([`crate::bam::measure_record`]) or a
/// SAM line ([`crate::sam::measure_record`]) without building the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldLengths {
    /// Stored read-name bytes (≥ 1: a missing name is stored as `*`).
    pub qname: usize,
    /// CIGAR operations.
    pub cigar_ops: usize,
    /// Sequence bases.
    pub seq: usize,
    /// Bytes of the BAM-encoded tag block, every integer in its
    /// narrowest width.
    pub tags: usize,
}

impl FieldLengths {
    /// The lengths of an already-materialised record. Fails on the tags
    /// [`crate::bam::encode_tags`] fails on.
    pub fn of(record: &AlignmentRecord) -> Result<Self> {
        Ok(FieldLengths {
            qname: record.qname.len().max(1),
            cigar_ops: record.cigar.len(),
            seq: record.seq.len(),
            tags: crate::bam::encoded_tags_len(&record.tags)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::Cigar;

    fn sample() -> AlignmentRecord {
        AlignmentRecord::mapped(
            b"read1",
            b"chr1",
            100,
            60,
            Cigar::parse(b"10M2D5M").unwrap(),
            b"ACGTACGTACACGTA",
            &[30; 15],
        )
    }

    #[test]
    fn coordinates() {
        let r = sample();
        assert!(!r.is_unmapped());
        assert_eq!(r.start0(), Some(99));
        assert_eq!(r.end0(), Some(99 + 17)); // 10M + 2D + 5M
    }

    #[test]
    fn unmapped_detection() {
        let mut r = sample();
        r.flag |= Flags::UNMAPPED;
        assert!(r.is_unmapped());
        assert_eq!(r.start0(), None);

        let mut r = sample();
        r.rname = b"*".to_vec();
        assert!(r.is_unmapped());

        let mut r = sample();
        r.pos = 0;
        assert!(r.is_unmapped());
    }

    #[test]
    fn empty_cigar_spans_one_base() {
        let mut r = sample();
        r.cigar = Cigar::empty();
        assert_eq!(r.end0(), Some(100));
    }

    #[test]
    fn tag_lookup() {
        let mut r = sample();
        r.tags.push(Tag::new(*b"NM", TagValue::Int(2)));
        assert_eq!(r.tag(*b"NM"), Some(&TagValue::Int(2)));
        assert_eq!(r.tag(*b"XX"), None);
    }

    #[test]
    fn read_len_fallback() {
        let mut r = sample();
        assert_eq!(r.read_len(), 15);
        r.seq.clear();
        assert_eq!(r.read_len(), 15); // query_len of 10M2D5M = 15
    }
}
