//! BAM record bodies transcoded to BAMX fields without being decoded.
//!
//! A BAMX record holds BAM's fields at fixed offsets, so most of a BAM
//! body is already in the form the BAMX encoders take: the coordinates
//! and template length are the same little-endian integers, the read
//! name copies minus its NUL, CIGAR words and packed SEQ copy as they
//! are, and QUAL is an all-`0xFF` run when absent. [`transcode`] borrows
//! all of that from the body, re-emits only the tag block (integers at
//! their width by value) and maps the reference ids through [`RefIds`] —
//! no [`AlignmentRecord`](crate::record::AlignmentRecord), no allocation,
//! no per-record name lookup. It keeps every check of
//! [`decode_record`](super::decode_record), in the same order, so a
//! damaged body gives the decoder's error.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use super::Cursor;
use crate::cigar::CigarOp;
use crate::error::{Error, Result};
use crate::fields::{put_int_tag, FieldsScratch, RecordFields, RefIds, TagSink};

/// The fields of one BAM record *body* (excluding the `block_size`
/// prefix): what `RecordFields::from_record(&decode_record(body, header)?,
/// ..)` gives, byte for byte, with `refs` built from the same header.
/// The tag block is re-emitted into `scratch`, as is an odd-length SEQ
/// whose pad nibble is not zero; everything else is borrowed.
pub fn transcode<'a>(
    body: &'a [u8],
    refs: &RefIds,
    scratch: &'a mut FieldsScratch,
) -> Result<RecordFields<'a>> {
    let mut c = Cursor { data: body, pos: 0 };
    let ref_id = c.i32()?;
    let pos0 = c.i32()?;
    let l_read_name = usize::from(c.u8()?);
    let mapq = c.u8()?;
    c.take(2)?; // bin
    let n_cigar = usize::from(c.u16()?);
    let flag = c.u16()?;
    let l_seq = usize::try_from(c.u32()?)
        .map_err(|_| Error::InvalidBam("l_seq exceeds the address space".into()))?;
    let next_ref_id = c.i32()?;
    let next_pos0 = c.i32()?;
    let tlen = c.i32()?;

    if l_read_name == 0 {
        return Err(Error::InvalidBam("zero-length read name".into()));
    }
    let Some((&0, qname)) = c.take(l_read_name)?.split_last() else {
        return Err(Error::InvalidBam("read name not NUL-terminated".into()));
    };
    let cigar_at = c.pos;
    for _ in 0..n_cigar {
        CigarOp::from_bam_code(c.u32()? & 0xF)?;
    }
    let cigar = &body[cigar_at..c.pos];
    let packed = c.take(l_seq.div_ceil(2))?;
    let qual = c.take(l_seq)?;

    let FieldsScratch { seq, tags, .. } = scratch;
    tags.clear();
    while c.remaining() > 0 {
        transcode_tag(&mut c, tags)?;
    }
    let ref_id_canonical = refs.canonical(ref_id);
    let next_ref_id = if next_ref_id < 0 {
        -1
    } else if next_ref_id == ref_id {
        ref_id_canonical
    } else {
        refs.canonical_mate(next_ref_id, ref_id_canonical)
            .ok_or_else(|| Error::InvalidBam(format!("next_refID {next_ref_id} out of range")))?
    };
    // Unpacking and packing again zeroes the pad nibble of an odd length.
    let packed = match packed.split_last() {
        Some((&last, whole)) if l_seq % 2 == 1 && last & 0x0F != 0 => {
            seq.clear();
            seq.extend_from_slice(whole);
            seq.push(last & 0xF0);
            &seq[..]
        }
        _ => packed,
    };
    Ok(RecordFields {
        flag,
        mapq,
        ref_id: ref_id_canonical,
        pos0,
        next_ref_id,
        next_pos0,
        tlen: i64::from(tlen),
        qname: if qname.is_empty() { b"*" } else { qname },
        cigar,
        l_seq,
        seq: packed,
        qual: (!qual.iter().all(|&q| q == 0xFF)).then_some(qual),
        tags,
    })
}

/// Steps over one raw tag and writes it to `out` as
/// [`encode_tag`](super::encode_tag) writes its decoded form: every
/// integer in its narrowest type, everything else as stored. The grammar
/// and error order of [`decode_tag`](super::decode_tag); the layout pass
/// measures with a byte-counting `out`.
pub(super) fn transcode_tag(c: &mut Cursor<'_>, out: &mut impl TagSink) -> Result<()> {
    out.put(c.take(2)?);
    let ty = c.u8()?;
    let int = match ty {
        b'c' => i64::from(i8::from_le_bytes([c.u8()?])),
        b'C' => i64::from(c.u8()?),
        b's' => i64::from(i16::from_le_bytes(c.u16()?.to_le_bytes())),
        b'S' => i64::from(c.u16()?),
        b'i' => i64::from(c.i32()?),
        b'I' => i64::from(c.u32()?),
        b'A' | b'f' => {
            out.put(&[ty]);
            out.put(c.take(if ty == b'A' { 1 } else { 4 })?);
            return Ok(());
        }
        b'Z' | b'H' => {
            out.put(&[ty]);
            out.put(c.cstr()?);
            out.put(&[0]);
            return Ok(());
        }
        b'B' => {
            let subtype = c.u8()?;
            let n = c.u32()?;
            let width = match subtype {
                b'c' | b'C' => 1,
                b's' | b'S' => 2,
                b'i' | b'I' | b'f' => 4,
                other => return Err(Error::InvalidTag(format!("unknown array subtype {other}"))),
            };
            let elements = usize::try_from(n).map_or(usize::MAX, |n| n.saturating_mul(width));
            out.put(&[ty, subtype]);
            out.put(&n.to_le_bytes());
            out.put(c.take(elements)?);
            return Ok(());
        }
        other => return Err(Error::InvalidTag(format!("unknown tag type {other}"))),
    };
    put_int_tag(int, out)
}
