//! Read-only access to one alignment, whatever holds it — the one input
//! of the target emitters (DESIGN.md §17).
//!
//! An emitter reads a record through [`Alignment`], which both the owned
//! [`AlignmentRecord`] and a [`FieldsView`] — a record's [`RecordFields`]
//! as a BAMX shard stores them, plus the header that names their
//! references — implement. Each target's formatting is therefore written
//! once, and converting from a shard builds no record: names are
//! borrowed from the header, SEQ unpacks two bases per table lookup
//! straight into the output, QUAL is copied and offset in place, and tags
//! render from the binary block. Either form gives the same bytes:
//! [`Alignment::to_record`] of a view is the record an owned decode of
//! the same shard bytes gives.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use crate::cigar::{self, Cigar, CigarOp};
use crate::fields::RecordFields;
use crate::flags::Flags;
use crate::header::SamHeader;
use crate::record::AlignmentRecord;
use crate::seq;
use crate::tags::{Tag, TagValueRef};

/// One alignment's fields in the record model's conventions: names as
/// text (`*` for none, `=` for a mate on the record's own reference),
/// 1-based positions (0 = unavailable), empty QNAME, SEQ and QUAL when
/// unavailable.
pub trait Alignment {
    /// Read name; empty when unavailable.
    fn qname(&self) -> &[u8];
    /// Bitwise FLAG.
    fn flag(&self) -> Flags;
    /// Reference name; `*` when none.
    fn rname(&self) -> &[u8];
    /// 1-based leftmost position; 0 when unavailable.
    fn pos(&self) -> i64;
    /// Mapping quality.
    fn mapq(&self) -> u8;
    /// Mate reference name (`*` none, `=` same as [`Self::rname`]).
    fn rnext(&self) -> &[u8];
    /// 1-based mate position; 0 when unavailable.
    fn pnext(&self) -> i64;
    /// Observed template length.
    fn tlen(&self) -> i64;
    /// CIGAR operations in order (none = `*`).
    fn cigar_ops(&self) -> impl Iterator<Item = (u32, CigarOp)> + '_;
    /// Number of bases in SEQ (0 = `*`).
    fn seq_len(&self) -> usize;
    /// Appends SEQ's bases, as ASCII, to `out`.
    fn push_seq(&self, out: &mut Vec<u8>);
    /// Raw Phred qualities (not +33); empty when absent.
    fn qual(&self) -> &[u8];
    /// The optional tags in order.
    fn tags(&self) -> impl Iterator<Item = ([u8; 2], TagValueRef<'_>)> + '_;

    /// True if unmapped by FLAG or missing coordinates.
    fn is_unmapped(&self) -> bool {
        self.flag().is_unmapped() || self.rname() == b"*" || self.pos() == 0
    }

    /// 0-based start, or `None` if unmapped.
    fn start0(&self) -> Option<i64> {
        (!self.is_unmapped()).then(|| self.pos() - 1)
    }

    /// 0-based exclusive end on the reference, from the CIGAR (start + 1
    /// for an empty CIGAR), or `None` if unmapped.
    fn end0(&self) -> Option<i64> {
        let start = self.start0()?;
        let span = i64::try_from(cigar::reference_len(self.cigar_ops()).max(1)).ok()?;
        Some(start + span)
    }

    /// Appends the SAM text of the CIGAR (`*` when empty).
    fn write_cigar(&self, out: &mut Vec<u8>) {
        cigar::write_sam(self.cigar_ops(), out);
    }

    /// Appends SEQ reverse-complemented, written in place in `out`.
    fn push_seq_revcomp(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.push_seq(out);
        seq::reverse_complement_in_place(&mut out[start..]);
    }

    /// Appends QUAL as Phred+33 text, reversed when `reverse`.
    fn push_qual33(&self, reverse: bool, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(self.qual());
        let text = &mut out[start..];
        if reverse {
            text.reverse();
        }
        for q in text {
            *q = q.wrapping_add(33);
        }
    }

    /// The value of the first tag named `key`.
    fn tag(&self, key: [u8; 2]) -> Option<TagValueRef<'_>> {
        self.tags().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The owned record holding these fields.
    fn to_record(&self) -> AlignmentRecord {
        let mut bases = Vec::with_capacity(self.seq_len());
        self.push_seq(&mut bases);
        AlignmentRecord {
            qname: self.qname().to_vec(),
            flag: self.flag(),
            rname: self.rname().to_vec(),
            pos: self.pos(),
            mapq: self.mapq(),
            cigar: Cigar(self.cigar_ops().collect()),
            rnext: self.rnext().to_vec(),
            pnext: self.pnext(),
            tlen: self.tlen(),
            seq: bases,
            qual: self.qual().to_vec(),
            tags: self.tags().map(|(key, value)| Tag { key, value: value.into_owned() }).collect(),
        }
    }
}

impl Alignment for AlignmentRecord {
    fn qname(&self) -> &[u8] {
        &self.qname
    }

    fn flag(&self) -> Flags {
        self.flag
    }

    fn rname(&self) -> &[u8] {
        &self.rname
    }

    fn pos(&self) -> i64 {
        self.pos
    }

    fn mapq(&self) -> u8 {
        self.mapq
    }

    fn rnext(&self) -> &[u8] {
        &self.rnext
    }

    fn pnext(&self) -> i64 {
        self.pnext
    }

    fn tlen(&self) -> i64 {
        self.tlen
    }

    fn cigar_ops(&self) -> impl Iterator<Item = (u32, CigarOp)> + '_ {
        self.cigar.0.iter().copied()
    }

    fn seq_len(&self) -> usize {
        self.seq.len()
    }

    fn push_seq(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq);
    }

    fn qual(&self) -> &[u8] {
        &self.qual
    }

    fn tags(&self) -> impl Iterator<Item = ([u8; 2], TagValueRef<'_>)> + '_ {
        self.tags.iter().map(|t| (t.key, TagValueRef::from(&t.value)))
    }

    fn to_record(&self) -> AlignmentRecord {
        self.clone()
    }
}

/// A record's [`RecordFields`] with the header whose dictionary names
/// their reference ids: what the BAMX read front-ends hand each emitter,
/// borrowed from the shard bytes.
#[derive(Debug, Clone, Copy)]
pub struct FieldsView<'a> {
    fields: RecordFields<'a>,
    header: &'a SamHeader,
}

impl<'a> FieldsView<'a> {
    /// `fields` read against `header`: every mate reference id is −1,
    /// the record's own, or an index into `header`'s dictionary.
    pub fn new(fields: RecordFields<'a>, header: &'a SamHeader) -> Self {
        FieldsView { fields, header }
    }

    /// The fields.
    pub fn fields(&self) -> &RecordFields<'a> {
        &self.fields
    }

    fn name(&self, id: i32) -> &'a [u8] {
        self.header.reference_name(id).unwrap_or(b"*")
    }
}

impl Alignment for FieldsView<'_> {
    fn qname(&self) -> &[u8] {
        match self.fields.qname() {
            b"*" => b"",
            name => name,
        }
    }

    fn flag(&self) -> Flags {
        Flags(self.fields.flag())
    }

    fn rname(&self) -> &[u8] {
        self.name(self.fields.ref_id())
    }

    fn pos(&self) -> i64 {
        i64::from(self.fields.pos0()) + 1
    }

    fn mapq(&self) -> u8 {
        self.fields.mapq()
    }

    fn rnext(&self) -> &[u8] {
        let next = self.fields.next_ref_id();
        if next < 0 {
            b"*"
        } else if next == self.fields.ref_id() {
            b"="
        } else {
            self.name(next)
        }
    }

    fn pnext(&self) -> i64 {
        i64::from(self.fields.next_pos0()) + 1
    }

    fn tlen(&self) -> i64 {
        self.fields.tlen()
    }

    fn cigar_ops(&self) -> impl Iterator<Item = (u32, CigarOp)> + '_ {
        // Every op code is ≤ 8 (`RecordFields` invariant): nothing is
        // filtered out.
        self.fields
            .cigar_words()
            .filter_map(|w| CigarOp::from_bam_code(w & 0xF).ok().map(|op| (w >> 4, op)))
    }

    fn seq_len(&self) -> usize {
        self.fields.l_seq()
    }

    fn push_seq(&self, out: &mut Vec<u8>) {
        seq::unpack_into(self.fields.packed_seq(), self.fields.l_seq(), out);
    }

    fn qual(&self) -> &[u8] {
        self.fields.qual().unwrap_or_default()
    }

    fn tags(&self) -> impl Iterator<Item = ([u8; 2], TagValueRef<'_>)> + '_ {
        // The block walks to its end (`RecordFields` invariant).
        crate::bam::tags(self.fields.tags()).map_while(Result::ok)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fields::{FieldsScratch, RefIds};
    use crate::header::ReferenceSequence;
    use crate::sam;

    fn header() -> SamHeader {
        SamHeader::from_references(
            ["chr1", "chr2"]
                .iter()
                .map(|n| ReferenceSequence { name: n.as_bytes().to_vec(), length: 1000 })
                .collect(),
        )
    }

    #[test]
    fn a_view_reads_as_the_record_it_was_made_from() {
        let h = header();
        let refs = RefIds::new(&h);
        for line in [
            &b"r1\t99\tchr1\t100\t60\t3M1I4M\t=\t300\t290\tACGTACGTA\tIIIIIIII#\tNM:i:2\tRG:Z:g\tXB:B:s,-5,300\tXF:f:1.5\tXA:A:x\tXH:H:1AFF"[..],
            b"*\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*",
            b"r3\t16\tchr2\t7\t1\t5M\tchr1\t9\t-3\tACGTN\t*",
        ] {
            let record = sam::parse_record(line, 1).unwrap();
            let mut scratch = FieldsScratch::default();
            let fields = RecordFields::from_record(&record, &refs, &mut scratch).unwrap();
            let view = FieldsView::new(fields, &h);
            assert_eq!(view.to_record(), record);
            assert_eq!(view.start0(), record.start0());
            assert_eq!(view.end0(), record.end0());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            view.push_seq_revcomp(&mut a);
            record.push_seq_revcomp(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn qualities_offset_in_place() {
        let record = sam::parse_record(b"r\t0\tchr1\t1\t0\t3M\t*\t0\t0\tACG\t!5I", 1).unwrap();
        let mut out = b">".to_vec();
        record.push_qual33(false, &mut out);
        record.push_qual33(true, &mut out);
        assert_eq!(out, b">!5II5!");
    }
}
