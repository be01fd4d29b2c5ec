//! Record fields as BAMX stores them, borrowed from the input — the one
//! input of the BAMX encoders (DESIGN.md §16).
//!
//! Preprocessing never builds an [`AlignmentRecord`]. Its front-ends — a
//! raw BAM body ([`crate::bam::view::transcode`]), a SAM line
//! ([`crate::sam::parse_fields`]) and, for callers that already hold one,
//! an owned record ([`RecordFields::from_record`]) — each produce a
//! [`RecordFields`]: every field in the width and encoding the BAMX
//! layouts store, borrowed from the input where its bytes already have
//! that form and from a reusable [`FieldsScratch`] where they do not.
//! Whatever the front-end, the fields equal what the owned path gives —
//! `bam::decode_record` or `sam::parse_record`, then
//! [`RecordFields::from_record`] — so shards stay byte-identical.
//!
//! Every conversion from an input width to an API width here goes
//! through `try_from` with a typed error.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use std::collections::HashMap;

use crate::cigar::CigarOp;
use crate::error::{Error, Result};
use crate::header::SamHeader;
use crate::record::AlignmentRecord;
use crate::seq;

/// One record's fields in BAMX form. Built only by the front-ends of
/// this crate, which keep the invariants the accessors document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFields<'a> {
    pub(crate) flag: u16,
    pub(crate) mapq: u8,
    pub(crate) ref_id: i32,
    pub(crate) pos0: i32,
    pub(crate) next_ref_id: i32,
    pub(crate) next_pos0: i32,
    pub(crate) tlen: i64,
    pub(crate) qname: &'a [u8],
    pub(crate) cigar: &'a [u8],
    pub(crate) l_seq: usize,
    pub(crate) seq: &'a [u8],
    pub(crate) qual: Option<&'a [u8]>,
    pub(crate) tags: &'a [u8],
}

impl<'a> RecordFields<'a> {
    /// Bitwise FLAG.
    pub fn flag(&self) -> u16 {
        self.flag
    }

    /// Mapping quality.
    pub fn mapq(&self) -> u8 {
        self.mapq
    }

    /// Reference id as a name round trip through the header gives it:
    /// −1 for none, and the first index of a name the dictionary repeats.
    pub fn ref_id(&self) -> i32 {
        self.ref_id
    }

    /// 0-based leftmost position (−1 when unavailable).
    pub fn pos0(&self) -> i32 {
        self.pos0
    }

    /// Mate reference id, canonical like [`Self::ref_id`].
    pub fn next_ref_id(&self) -> i32 {
        self.next_ref_id
    }

    /// 0-based mate position (−1 when unavailable).
    pub fn next_pos0(&self) -> i32 {
        self.next_pos0
    }

    /// Observed template length.
    pub fn tlen(&self) -> i64 {
        self.tlen
    }

    /// Read name as stored: never empty (`*` when unavailable).
    pub fn qname(&self) -> &'a [u8] {
        self.qname
    }

    /// CIGAR as BAM stores it: `(len << 4) | op` words, 4 bytes each,
    /// little-endian, every op code ≤ 8.
    pub fn cigar_bytes(&self) -> &'a [u8] {
        self.cigar
    }

    /// Number of CIGAR operations.
    pub fn n_cigar_ops(&self) -> usize {
        self.cigar.len() / 4
    }

    /// The CIGAR words in order.
    pub fn cigar_words(&self) -> impl Iterator<Item = u32> + 'a {
        self.cigar
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
    }

    /// Sequence length in bases.
    pub fn l_seq(&self) -> usize {
        self.l_seq
    }

    /// Bases packed two per byte, high nibble first: `l_seq.div_ceil(2)`
    /// bytes, the pad nibble of an odd length zero.
    pub fn packed_seq(&self) -> &'a [u8] {
        self.seq
    }

    /// Raw Phred qualities (not +33), `None` when absent. When present
    /// the length may differ from [`Self::l_seq`]; the encoders reject
    /// that.
    pub fn qual(&self) -> Option<&'a [u8]> {
        self.qual
    }

    /// The BAM tag block, every integer in its narrowest type.
    pub fn tags(&self) -> &'a [u8] {
        self.tags
    }

    /// The fields of an owned record — the adapter for callers that hold
    /// [`AlignmentRecord`]s. Names resolve through `refs`; SEQ is packed,
    /// and CIGAR and tags encoded, into `scratch`.
    pub fn from_record(
        record: &'a AlignmentRecord,
        refs: &RefIds,
        scratch: &'a mut FieldsScratch,
    ) -> Result<Self> {
        let ref_id = refs.resolve(&record.rname)?;
        let next_ref_id = refs.resolve_mate(&record.rnext, ref_id)?;
        scratch.tags.clear();
        for tag in &record.tags {
            crate::bam::encode_tag(tag, &mut scratch.tags)?;
        }
        let pos0 = pos0_of("POS", record.pos)?;
        let next_pos0 = pos0_of("PNEXT", record.pnext)?;
        cigar_words_into(record.cigar.0.iter().copied(), &mut scratch.cigar);
        scratch.seq.clear();
        seq::pack_into(&record.seq, &mut scratch.seq);
        Ok(RecordFields {
            flag: record.flag.0,
            mapq: record.mapq,
            ref_id,
            pos0,
            next_ref_id,
            next_pos0,
            tlen: record.tlen,
            qname: if record.qname.is_empty() {
                b"*"
            } else {
                &record.qname
            },
            cigar: &scratch.cigar,
            l_seq: record.seq.len(),
            seq: &scratch.seq,
            qual: (!record.qual.is_empty()).then_some(&record.qual[..]),
            tags: &scratch.tags,
        })
    }
}

/// Reusable buffers the front-ends encode into when the input's bytes do
/// not already have BAMX form. One per thread; nothing is allocated per
/// record once they have grown.
#[derive(Debug, Default)]
pub struct FieldsScratch {
    pub(crate) ops: Vec<(u32, CigarOp)>,
    pub(crate) cigar: Vec<u8>,
    pub(crate) seq: Vec<u8>,
    pub(crate) qual: Vec<u8>,
    pub(crate) tags: Vec<u8>,
}

/// Reference-id resolution for one header, built once and shared.
///
/// Text front-ends resolve names through a map in which the first
/// occurrence of a name wins, as `SamHeader::reference_id` does. The BAM
/// front-end maps the refID it already holds through a per-index table
/// of what a name round trip (`decode_record`, then resolving the name
/// again) gives: out of range → −1, a repeated name → its first index.
#[derive(Debug, Clone)]
pub struct RefIds {
    by_name: HashMap<Vec<u8>, i32>,
    /// Index → the id its name resolves to as a reference (`RNAME`).
    as_ref: Vec<i32>,
    /// Index → the id its name resolves to as a mate reference
    /// (`RNEXT`); `None` for the name `=`, which means "the record's own
    /// reference" there.
    as_mate: Vec<Option<i32>>,
}

impl RefIds {
    /// The table for `header`'s dictionary.
    pub fn new(header: &SamHeader) -> Self {
        let mut by_name = HashMap::with_capacity(header.references.len());
        for (id, r) in (0..=i32::MAX).zip(&header.references) {
            by_name.entry(r.name.clone()).or_insert(id);
        }
        let lookup = |name: &[u8]| match name {
            b"*" | b"" => -1,
            // Every dictionary name is in the map.
            _ => by_name.get(name).copied().unwrap_or(-1),
        };
        let as_ref: Vec<i32> = header.references.iter().map(|r| lookup(&r.name)).collect();
        let as_mate = header
            .references
            .iter()
            .map(|r| (r.name != b"=").then(|| lookup(&r.name)))
            .collect();
        RefIds {
            by_name,
            as_ref,
            as_mate,
        }
    }

    /// The id of reference `name` (`*` or empty → −1).
    pub fn resolve(&self, name: &[u8]) -> Result<i32> {
        match name {
            b"*" | b"" => Ok(-1),
            _ => {
                self.by_name.get(name).copied().ok_or_else(|| {
                    Error::UnknownReference(String::from_utf8_lossy(name).into_owned())
                })
            }
        }
    }

    /// The id of mate reference `name` for a record on `ref_id` (`=` →
    /// `ref_id`).
    pub fn resolve_mate(&self, name: &[u8], ref_id: i32) -> Result<i32> {
        if name == b"=" {
            Ok(ref_id)
        } else {
            self.resolve(name)
        }
    }

    /// The canonical id of a stored refID; out of range → −1.
    pub(crate) fn canonical(&self, raw: i32) -> i32 {
        usize::try_from(raw)
            .ok()
            .and_then(|i| self.as_ref.get(i))
            .copied()
            .unwrap_or(-1)
    }

    /// The canonical id of a stored mate refID that differs from the
    /// record's own, given the record's canonical id; `None` when out of
    /// range.
    pub(crate) fn canonical_mate(&self, raw: i32, ref_id: i32) -> Option<i32> {
        let mate = self.as_mate.get(usize::try_from(raw).ok()?)?;
        Some(mate.unwrap_or(ref_id))
    }
}

/// The 0-based BAM coordinate of the 1-based `pos` (0 = unavailable):
/// the one check that a coordinate fits the i32 every layout stores.
pub(crate) fn pos0_of(what: &str, pos: i64) -> Result<i32> {
    pos.checked_sub(1)
        .and_then(|v| i32::try_from(v).ok())
        .ok_or_else(|| Error::InvalidRecord(format!("{what} {pos} unrepresentable (i32)")))
}

/// Replaces `out` with the BAM CIGAR words of `ops`.
pub(crate) fn cigar_words_into(ops: impl Iterator<Item = (u32, CigarOp)>, out: &mut Vec<u8>) {
    out.clear();
    for (len, op) in ops {
        out.extend_from_slice(&((len << 4) | op.to_bam_code()).to_le_bytes());
    }
}

/// Where a BAM tag is written: a buffer, or a byte count for a layout
/// pass that only measures.
pub(crate) trait TagSink {
    fn put(&mut self, bytes: &[u8]);
}

impl TagSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl TagSink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// The one integer-tag ladder: the narrowest of BAM's `c C s S i I` that
/// holds `v`, as `(type, width in bytes)`. Encoding, measuring and
/// transcoding all size integers through it, so a tag is written at the
/// length it was measured at.
pub(crate) fn int_tag_type(v: i64) -> Result<(u8, usize)> {
    Ok(if i8::try_from(v).is_ok() {
        (b'c', 1)
    } else if u8::try_from(v).is_ok() {
        (b'C', 1)
    } else if i16::try_from(v).is_ok() {
        (b's', 2)
    } else if u16::try_from(v).is_ok() {
        (b'S', 2)
    } else if i32::try_from(v).is_ok() {
        (b'i', 4)
    } else if u32::try_from(v).is_ok() {
        (b'I', 4)
    } else {
        return Err(Error::InvalidTag(format!(
            "integer {v} unrepresentable in BAM"
        )));
    })
}

/// Writes the type byte and value of integer tag `v` in its narrowest
/// type: the low `width` bytes of `v`, little-endian, are its two's
/// complement in that type.
pub(crate) fn put_int_tag(v: i64, out: &mut impl TagSink) -> Result<()> {
    let (ty, width) = int_tag_type(v)?;
    out.put(&[ty]);
    out.put(&v.to_le_bytes()[..width]);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::header::ReferenceSequence;

    fn header(names: &[&str]) -> SamHeader {
        SamHeader::from_references(
            names
                .iter()
                .map(|n| ReferenceSequence {
                    name: n.as_bytes().to_vec(),
                    length: 100,
                })
                .collect(),
        )
    }

    #[test]
    fn ref_ids_follow_the_name_round_trip() {
        let refs = RefIds::new(&header(&["chr1", "chr2", "chr1", "*", "="]));
        assert_eq!(refs.resolve(b"chr2").unwrap(), 1);
        assert_eq!(refs.resolve(b"chr1").unwrap(), 0, "first occurrence wins");
        assert_eq!(refs.resolve(b"*").unwrap(), -1);
        assert_eq!(refs.resolve_mate(b"=", 1).unwrap(), 1);
        assert!(matches!(
            refs.resolve(b"chrZ"),
            Err(Error::UnknownReference(_))
        ));
        assert_eq!(
            [0, 1, 2, 3, 4, 5, -1].map(|i| refs.canonical(i)),
            [0, 1, 0, -1, 4, -1, -1]
        );
        assert_eq!(refs.canonical_mate(2, 1), Some(0));
        assert_eq!(
            refs.canonical_mate(4, 1),
            Some(1),
            "a mate named = is the record's own"
        );
        assert_eq!(refs.canonical_mate(5, 1), None);
    }

    #[test]
    fn pos0_is_the_i32_domain_check() {
        assert_eq!(pos0_of("POS", 1).unwrap(), 0);
        assert_eq!(pos0_of("POS", 0).unwrap(), -1);
        assert_eq!(pos0_of("POS", i32::MAX as i64 + 1).unwrap(), i32::MAX);
        let err = pos0_of("PNEXT", i32::MAX as i64 + 2).unwrap_err();
        assert!(err.to_string().contains("PNEXT"), "{err}");
        assert!(pos0_of("POS", i64::MIN).is_err());
    }
}
