//! BAM binary format: record encode/decode (SAM spec §4.2) and
//! BGZF-wrapped file reading/writing.

use std::io::{Read, Seek, Write};

use ngs_bgzf::{BgzfReader, BgzfWriter, VirtualOffset};

use crate::binning::reg2bin;
use crate::cigar::{Cigar, CigarOp};
use crate::error::{Error, Result};
use crate::fields::{int_tag_type, put_int_tag};
use crate::flags::Flags;
use crate::header::{ReferenceSequence, SamHeader};
use crate::record::{AlignmentRecord, FieldLengths};
use crate::seq;
use crate::tags::{Tag, TagArray, TagValue};

pub mod view;

/// BAM file magic.
pub const MAGIC: [u8; 4] = [b'B', b'A', b'M', 1];

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Encodes `record` into the BAM wire format (including the leading
/// `block_size` field), appending to `out`.
pub fn encode_record(record: &AlignmentRecord, header: &SamHeader, out: &mut Vec<u8>) -> Result<()> {
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]); // placeholder for block_size

    let ref_id = resolve_ref(header, &record.rname)?;
    let pos0 = record.pos - 1; // SAM 1-based (0 = missing) → BAM 0-based (-1)
    let next_ref_id = if record.rnext == b"=" { ref_id } else { resolve_ref(header, &record.rnext)? };
    let next_pos0 = record.pnext - 1;
    // BAM coordinates are i32; SAM text allows wider values. Refuse to
    // truncate silently.
    for (what, v) in [("POS", pos0), ("PNEXT", next_pos0), ("TLEN", record.tlen)] {
        if v < i32::MIN as i64 || v > i32::MAX as i64 {
            return Err(Error::InvalidBam(format!("{what} {v} unrepresentable in BAM (i32)")));
        }
    }

    let bin = if pos0 < 0 {
        reg2bin(-1, 0)
    } else {
        let span = record.cigar.reference_len().max(1) as i64;
        reg2bin(pos0, pos0 + span)
    };

    let name_len = record.qname.len().max(1) + 1; // NUL-terminated, '*' stored literally? no: store as-is
    if name_len > 255 {
        return Err(Error::InvalidBam("read name longer than 254 bytes".into()));
    }

    out.extend_from_slice(&(ref_id).to_le_bytes());
    out.extend_from_slice(&(pos0 as i32).to_le_bytes());
    out.push(name_len as u8);
    out.push(record.mapq);
    out.extend_from_slice(&bin.to_le_bytes());
    out.extend_from_slice(&(record.cigar.len() as u16).to_le_bytes());
    out.extend_from_slice(&record.flag.0.to_le_bytes());
    out.extend_from_slice(&(record.seq.len() as u32).to_le_bytes());
    out.extend_from_slice(&next_ref_id.to_le_bytes());
    out.extend_from_slice(&(next_pos0 as i32).to_le_bytes());
    out.extend_from_slice(&(record.tlen as i32).to_le_bytes());

    if record.qname.is_empty() {
        out.push(b'*');
    } else {
        out.extend_from_slice(&record.qname);
    }
    out.push(0);

    for &(len, op) in &record.cigar.0 {
        let enc = (len << 4) | op.to_bam_code();
        out.extend_from_slice(&enc.to_le_bytes());
    }

    out.extend_from_slice(&seq::pack(&record.seq));
    if record.qual.is_empty() {
        // Missing qualities are stored as 0xFF × l_seq.
        out.extend(std::iter::repeat_n(0xFFu8, record.seq.len()));
    } else {
        if record.qual.len() != record.seq.len() && !record.seq.is_empty() {
            return Err(Error::InvalidBam("SEQ and QUAL lengths differ".into()));
        }
        out.extend_from_slice(&record.qual);
    }

    for tag in &record.tags {
        encode_tag(tag, out)?;
    }

    let block_size = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&block_size.to_le_bytes());
    Ok(())
}

fn resolve_ref(header: &SamHeader, name: &[u8]) -> Result<i32> {
    if name == b"*" || name.is_empty() {
        return Ok(-1);
    }
    header
        .reference_id(name)
        .map(|i| i as i32)
        .ok_or_else(|| Error::UnknownReference(String::from_utf8_lossy(name).into_owned()))
}

/// Appends `tag` as BAM stores it, every integer in its narrowest type.
pub(crate) fn encode_tag(tag: &Tag, out: &mut Vec<u8>) -> Result<()> {
    out.extend_from_slice(&tag.key);
    match &tag.value {
        TagValue::Char(c) => {
            out.push(b'A');
            out.push(*c);
        }
        TagValue::Int(v) => put_int_tag(*v, out)?,
        TagValue::Float(f) => {
            out.push(b'f');
            out.extend_from_slice(&f.to_le_bytes());
        }
        TagValue::String(s) => {
            out.push(b'Z');
            out.extend_from_slice(s);
            out.push(0);
        }
        TagValue::Hex(s) => {
            out.push(b'H');
            out.extend_from_slice(s);
            out.push(0);
        }
        TagValue::Array(a) => {
            out.push(b'B');
            out.push(a.subtype());
            out.extend_from_slice(&(a.len() as u32).to_le_bytes());
            match a {
                TagArray::I8(v) => out.extend(v.iter().map(|&x| x as u8)),
                TagArray::U8(v) => out.extend_from_slice(v),
                TagArray::I16(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
                TagArray::U16(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
                TagArray::I32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
                TagArray::U32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
                TagArray::F32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            }
        }
    }
    Ok(())
}

/// Encodes a tag list into the BAM tag wire format (used verbatim by the
/// BAMX fixed-layout records).
pub fn encode_tags(tags: &[Tag]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for t in tags {
        encode_tag(t, &mut out)?;
    }
    Ok(out)
}

/// `encode_tags(tags)?.len()` without encoding: the layout pass reads
/// only this length, once per record. Fails on the same tags
/// [`encode_tags`] fails on.
pub fn encoded_tags_len(tags: &[Tag]) -> Result<usize> {
    let mut len = 0usize;
    for t in tags {
        // Key, type byte, then the value.
        len += 3 + match &t.value {
            TagValue::Char(_) => 1,
            TagValue::Int(v) => int_tag_type(*v)?.1,
            TagValue::Float(_) => 4,
            TagValue::String(s) | TagValue::Hex(s) => s.len() + 1,
            TagValue::Array(a) => {
                let width = match a {
                    TagArray::I8(_) | TagArray::U8(_) => 1,
                    TagArray::I16(_) | TagArray::U16(_) => 2,
                    TagArray::I32(_) | TagArray::U32(_) | TagArray::F32(_) => 4,
                };
                // Subtype byte, u32 count, elements.
                1 + 4 + a.len() * width
            }
        };
    }
    Ok(len)
}

/// Decodes a BAM tag block back into a tag list.
pub fn decode_tags(bytes: &[u8]) -> Result<Vec<Tag>> {
    let mut c = Cursor { data: bytes, pos: 0 };
    let mut tags = Vec::new();
    while c.remaining() > 0 {
        tags.push(decode_tag(&mut c)?);
    }
    Ok(tags)
}

// ---------------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.data.len() - self.pos {
            return Err(Error::InvalidBam("record truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn i32(&mut self) -> Result<i32> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn cstr(&mut self) -> Result<&'a [u8]> {
        let rest = &self.data[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| Error::InvalidBam("unterminated string".into()))?;
        let s = &rest[..end];
        self.pos += end + 1;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Decodes one BAM record *body* (excluding the `block_size` prefix).
pub fn decode_record(body: &[u8], header: &SamHeader) -> Result<AlignmentRecord> {
    let mut c = Cursor { data: body, pos: 0 };
    let ref_id = c.i32()?;
    let pos0 = c.i32()?;
    let l_read_name = c.u8()? as usize;
    let mapq = c.u8()?;
    let _bin = c.u16()?;
    let n_cigar = c.u16()? as usize;
    let flag = Flags(c.u16()?);
    let l_seq = c.u32()? as usize;
    let next_ref_id = c.i32()?;
    let next_pos0 = c.i32()?;
    let tlen = c.i32()?;

    if l_read_name == 0 {
        return Err(Error::InvalidBam("zero-length read name".into()));
    }
    let name_bytes = c.take(l_read_name)?;
    if name_bytes[l_read_name - 1] != 0 {
        return Err(Error::InvalidBam("read name not NUL-terminated".into()));
    }
    let qname = name_bytes[..l_read_name - 1].to_vec();

    let mut cigar_ops = Vec::with_capacity(n_cigar);
    for _ in 0..n_cigar {
        let enc = c.u32()?;
        cigar_ops.push((enc >> 4, CigarOp::from_bam_code(enc & 0xF)?));
    }

    let packed = c.take(l_seq.div_ceil(2))?;
    let seq_bases = seq::unpack(packed, l_seq)?;
    let qual_raw = c.take(l_seq)?;
    let qual = if qual_raw.iter().all(|&q| q == 0xFF) { Vec::new() } else { qual_raw.to_vec() };

    let mut tags = Vec::new();
    while c.remaining() > 0 {
        tags.push(decode_tag(&mut c)?);
    }

    let rname = match header.reference_name(ref_id) {
        Some(n) => n.to_vec(),
        None => b"*".to_vec(),
    };
    let rnext = if next_ref_id < 0 {
        b"*".to_vec()
    } else if next_ref_id == ref_id && ref_id >= 0 {
        b"=".to_vec()
    } else {
        header
            .reference_name(next_ref_id)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| Error::InvalidBam(format!("next_refID {next_ref_id} out of range")))?
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
        tlen: tlen as i64,
        seq: if seq_bases.is_empty() { Vec::new() } else { seq_bases },
        qual,
        tags,
    })
}

fn decode_tag(c: &mut Cursor<'_>) -> Result<Tag> {
    let key_bytes = c.take(2)?;
    let key = [key_bytes[0], key_bytes[1]];
    let type_char = c.u8()?;
    let value = match type_char {
        b'A' => TagValue::Char(c.u8()?),
        b'c' => TagValue::Int(c.u8()? as i8 as i64),
        b'C' => TagValue::Int(c.u8()? as i64),
        b's' => TagValue::Int(c.u16()? as i16 as i64),
        b'S' => TagValue::Int(c.u16()? as i64),
        b'i' => TagValue::Int(c.i32()? as i64),
        b'I' => TagValue::Int(c.u32()? as i64),
        b'f' => TagValue::Float(c.f32()?),
        b'Z' => TagValue::String(c.cstr()?.to_vec()),
        b'H' => TagValue::Hex(c.cstr()?.to_vec()),
        b'B' => {
            let subtype = c.u8()?;
            let n = c.u32()? as usize;
            let arr = match subtype {
                b'c' => TagArray::I8(c.take(n)?.iter().map(|&b| b as i8).collect()),
                b'C' => TagArray::U8(c.take(n)?.to_vec()),
                b's' => {
                    let raw = c.take(n * 2)?;
                    TagArray::I16(raw.chunks_exact(2).map(|b| i16::from_le_bytes([b[0], b[1]])).collect())
                }
                b'S' => {
                    let raw = c.take(n * 2)?;
                    TagArray::U16(raw.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])).collect())
                }
                b'i' => {
                    let raw = c.take(n * 4)?;
                    TagArray::I32(raw.chunks_exact(4).map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
                }
                b'I' => {
                    let raw = c.take(n * 4)?;
                    TagArray::U32(raw.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
                }
                b'f' => {
                    let raw = c.take(n * 4)?;
                    TagArray::F32(raw.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
                }
                other => {
                    return Err(Error::InvalidTag(format!("unknown array subtype {other}")))
                }
            };
            TagValue::Array(arr)
        }
        other => return Err(Error::InvalidTag(format!("unknown tag type {other}"))),
    };
    Ok(Tag { key, value })
}

/// Measures one BAM record *body* (excluding the `block_size` prefix)
/// without decoding it: the three counts sit at fixed offsets, and the
/// tag length is the transcoder's walk over the raw tag block
/// ([`view::transcode`]) counting instead of copying, every integer sized
/// by value as [`encode_tags`] will re-encode it — so a BAM whose
/// writer stored `5` as an `i` measures exactly what
/// `FieldLengths::of(&decode_record(..)?)` reports. Every length is
/// bounds-checked against the body. Field *contents* (CIGAR op codes,
/// reference ids) are not looked at: a record that is sound in shape but
/// bad in content passes here and fails in [`decode_record`].
pub fn measure_record(body: &[u8]) -> Result<FieldLengths> {
    let mut c = Cursor { data: body, pos: 0 };
    c.take(8)?; // refID, pos
    let l_read_name = c.u8()? as usize;
    c.take(3)?; // mapq, bin
    let n_cigar = c.u16()? as usize;
    c.take(2)?; // flag
    let l_seq = c.u32()? as usize;
    c.take(12)?; // next_refID, next_pos, tlen

    if l_read_name == 0 {
        return Err(Error::InvalidBam("zero-length read name".into()));
    }
    if c.take(l_read_name)?[l_read_name - 1] != 0 {
        return Err(Error::InvalidBam("read name not NUL-terminated".into()));
    }
    c.take(n_cigar * 4)?;
    c.take(l_seq.div_ceil(2))?;
    c.take(l_seq)?;
    let mut tags = 0usize;
    while c.remaining() > 0 {
        view::transcode_tag(&mut c, &mut tags)?;
    }
    Ok(FieldLengths {
        // `observe` counts a missing name as the one byte of `*`.
        qname: (l_read_name - 1).max(1),
        cigar_ops: n_cigar,
        seq: l_seq,
        tags,
    })
}

// ---------------------------------------------------------------------------
// File-level header encode/decode
// ---------------------------------------------------------------------------

/// Serializes the BAM file prologue (magic + header text + dictionary).
pub fn encode_header(header: &SamHeader, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(header.text.len() as u32).to_le_bytes());
    out.extend_from_slice(header.text.as_bytes());
    out.extend_from_slice(&(header.references.len() as u32).to_le_bytes());
    for r in &header.references {
        out.extend_from_slice(&((r.name.len() + 1) as u32).to_le_bytes());
        out.extend_from_slice(&r.name);
        out.push(0);
        out.extend_from_slice(&(r.length as u32).to_le_bytes());
    }
}

fn read_exact_into<R: Read>(r: &mut R, n: usize) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    append_exact(r, &mut buf, n)?;
    Ok(buf)
}

/// Appends exactly `n` bytes of `r` to `out`, growing it in bounded
/// steps: `n` comes from an untrusted length prefix, so reserving it up
/// front would let a corrupt field drive a multi-GiB allocation before
/// the read ever fails at EOF.
fn append_exact<R: Read>(r: &mut R, out: &mut Vec<u8>, n: usize) -> Result<()> {
    const STEP: usize = 1 << 20;
    let mut remaining = n;
    while remaining > 0 {
        let step = remaining.min(STEP);
        let start = out.len();
        out.resize(start + step, 0);
        r.read_exact(&mut out[start..])?;
        remaining -= step;
    }
    Ok(())
}

/// Appends one record as a BAM stream stores it (`block_size`, then the
/// body) to `out` and returns the body length; `None` at a clean end of
/// stream.
fn read_stored<R: Read>(r: &mut R, out: &mut Vec<u8>) -> Result<Option<usize>> {
    let mut size = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut size[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(Error::InvalidBam("truncated block_size".into()));
        }
        filled += n;
    }
    let block_size = u32::from_le_bytes(size) as usize;
    out.extend_from_slice(&size);
    append_exact(r, out, block_size)?;
    Ok(Some(block_size))
}

/// Parses the BAM prologue from a decompressed stream.
pub fn decode_header<R: Read>(r: &mut R) -> Result<SamHeader> {
    let magic = read_exact_into(r, 4)?;
    if magic != MAGIC {
        return Err(Error::InvalidBam("bad BAM magic".into()));
    }
    let l_text = {
        let b = read_exact_into(r, 4)?;
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
    };
    let text_bytes = read_exact_into(r, l_text)?;
    let text = String::from_utf8_lossy(&text_bytes).into_owned();
    let n_ref = {
        let b = read_exact_into(r, 4)?;
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
    };
    // `n_ref` is untrusted; cap the up-front reservation and let the vector
    // grow naturally if a (legitimate) dictionary really is that large.
    let mut references = Vec::with_capacity(n_ref.min(4096));
    for _ in 0..n_ref {
        let l_name = {
            let b = read_exact_into(r, 4)?;
            u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
        };
        if l_name == 0 {
            return Err(Error::InvalidBam("zero-length reference name".into()));
        }
        let name_bytes = read_exact_into(r, l_name)?;
        let l_ref = {
            let b = read_exact_into(r, 4)?;
            u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64
        };
        references.push(ReferenceSequence { name: name_bytes[..l_name - 1].to_vec(), length: l_ref });
    }
    // Trust the binary dictionary over the text (they should agree, but the
    // dictionary is authoritative for refID resolution).
    let parsed = SamHeader::parse(&text).unwrap_or_default();
    let references = if references.is_empty() { parsed.references } else { references };
    Ok(SamHeader { text, references })
}

// ---------------------------------------------------------------------------
// Streaming reader / writer
// ---------------------------------------------------------------------------

/// Streaming BAM reader, generic over the *inflated* byte stream `S`.
///
/// [`BamReader::new`] wraps a BGZF-compressed source in a [`BgzfReader`]
/// — the reader for seeks and virtual offsets. Sequential whole-file
/// reads hand [`BamReader::from_inflated`] a stream that is already
/// inflated, normally `ngs_bgzf::ReadAheadReader`, which inflates
/// members on helper threads ahead of the parse.
pub struct BamReader<S> {
    inner: S,
    header: SamHeader,
    scratch: Vec<u8>,
}

impl<R: Read> BamReader<BgzfReader<R>> {
    /// Opens a BGZF-compressed BAM stream and parses its header.
    pub fn new(inner: R) -> Result<Self> {
        Self::from_inflated(BgzfReader::new(inner))
    }

    /// The virtual offset of the next record (valid between records).
    pub fn virtual_position(&self) -> VirtualOffset {
        self.inner.virtual_position()
    }
}

impl<S: Read> BamReader<S> {
    /// Opens a BAM stream over already-inflated bytes and parses its
    /// header.
    pub fn from_inflated(mut inner: S) -> Result<Self> {
        let header = decode_header(&mut inner)?;
        Ok(BamReader { inner, header, scratch: Vec::with_capacity(1024) })
    }

    /// The parsed header.
    pub fn header(&self) -> &SamHeader {
        &self.header
    }

    /// Reads the next record's raw body (the bytes after `block_size`),
    /// undecoded; `None` at EOF. The slice is valid until the next read.
    pub fn read_body(&mut self) -> Result<Option<&[u8]>> {
        self.scratch.clear();
        Ok(read_stored(&mut self.inner, &mut self.scratch)?.map(|_| &self.scratch[4..]))
    }

    /// Appends the next record to `out` as the stream stores it — the
    /// `block_size` prefix, then the body — and returns the body length;
    /// `None` at EOF. On an error `out` is left as it was.
    pub fn append_record(&mut self, out: &mut Vec<u8>) -> Result<Option<usize>> {
        let start = out.len();
        read_stored(&mut self.inner, out).inspect_err(|_| out.truncate(start))
    }

    /// Reads the next record; `None` at EOF.
    pub fn read_record(&mut self) -> Result<Option<AlignmentRecord>> {
        if self.read_body()?.is_none() {
            return Ok(None);
        }
        decode_record(&self.scratch[4..], &self.header).map(Some)
    }

    /// Iterator-style adapter.
    pub fn records(&mut self) -> impl Iterator<Item = Result<AlignmentRecord>> + '_ {
        std::iter::from_fn(move || self.read_record().transpose())
    }
}

impl<R: Read + Seek> BamReader<BgzfReader<R>> {
    /// Repositions the reader so the next [`Self::read_record`] starts at
    /// `voffset` (which must point at a record boundary, e.g. one
    /// previously returned by [`Self::virtual_position`]).
    pub fn seek_virtual(&mut self, voffset: VirtualOffset) -> Result<()> {
        self.inner.seek_virtual(voffset)?;
        Ok(())
    }
}

/// Streaming BAM writer over a BGZF-compressed sink.
pub struct BamWriter<W: Write> {
    inner: BgzfWriter<W>,
    header: SamHeader,
    scratch: Vec<u8>,
}

impl<W: Write> BamWriter<W> {
    /// Creates a writer and emits the BAM prologue.
    pub fn new(inner: W, header: SamHeader) -> Result<Self> {
        let mut bgzf = BgzfWriter::new(inner);
        let mut prologue = Vec::new();
        encode_header(&header, &mut prologue);
        bgzf.write_all(&prologue)?;
        Ok(BamWriter { inner: bgzf, header, scratch: Vec::with_capacity(1024) })
    }

    /// Writes one record.
    pub fn write_record(&mut self, record: &AlignmentRecord) -> Result<()> {
        self.scratch.clear();
        encode_record(record, &self.header, &mut self.scratch)?;
        self.inner.write_all(&self.scratch)?;
        Ok(())
    }

    /// Finishes the BGZF stream (EOF marker) and returns the sink.
    pub fn finish(self) -> Result<W> {
        Ok(self.inner.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;
    use std::io::Cursor as IoCursor;

    fn test_header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 248_956_422 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 242_193_529 },
        ])
    }

    fn rich_record() -> AlignmentRecord {
        let line = "read1\t99\tchr1\t12345\t60\t40M2I48M\t=\t12500\t245\tACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTAC\tIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\tNM:i:2\tRG:Z:grp1\tXS:f:-3.5\tXB:B:s,-5,10,300\tXT:A:U\tXH:H:1A2B";
        sam::parse_record(line.as_bytes(), 1).unwrap()
    }

    #[test]
    fn record_roundtrip() {
        let header = test_header();
        let rec = rich_record();
        let mut buf = Vec::new();
        encode_record(&rec, &header, &mut buf).unwrap();
        let block_size = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(block_size, buf.len() - 4);
        let decoded = decode_record(&buf[4..], &header).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn unmapped_record_roundtrip() {
        let header = test_header();
        let rec = sam::parse_record(b"u1\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut buf = Vec::new();
        encode_record(&rec, &header, &mut buf).unwrap();
        let decoded = decode_record(&buf[4..], &header).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn missing_qual_roundtrip() {
        let header = test_header();
        let rec = sam::parse_record(b"q1\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\t*", 1).unwrap();
        let mut buf = Vec::new();
        encode_record(&rec, &header, &mut buf).unwrap();
        let decoded = decode_record(&buf[4..], &header).unwrap();
        assert!(decoded.qual.is_empty());
        assert_eq!(decoded, rec);
    }

    #[test]
    fn mate_on_other_chromosome() {
        let header = test_header();
        let rec =
            sam::parse_record(b"m1\t1\tchr1\t100\t60\t4M\tchr2\t555\t0\tACGT\tIIII", 1).unwrap();
        let mut buf = Vec::new();
        encode_record(&rec, &header, &mut buf).unwrap();
        let decoded = decode_record(&buf[4..], &header).unwrap();
        assert_eq!(decoded.rnext, b"chr2");
        assert_eq!(decoded.pnext, 555);
    }

    #[test]
    fn unknown_reference_rejected() {
        let header = test_header();
        let rec = sam::parse_record(b"r\t0\tchrZ\t1\t60\t4M\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            encode_record(&rec, &header, &mut buf),
            Err(Error::UnknownReference(_))
        ));
    }

    #[test]
    fn all_int_tag_widths_roundtrip() {
        let header = test_header();
        for v in [0i64, -1, 127, -128, 255, 256, -32768, 65535, 65536, -2147483648, 2147483647, 4294967295] {
            let mut rec = rich_record();
            rec.tags = vec![Tag::new(*b"XV", TagValue::Int(v))];
            let mut buf = Vec::new();
            encode_record(&rec, &header, &mut buf).unwrap();
            let decoded = decode_record(&buf[4..], &header).unwrap();
            assert_eq!(decoded.tag(*b"XV"), Some(&TagValue::Int(v)), "value {v}");
        }
        // Out of range for BAM.
        let mut rec = rich_record();
        rec.tags = vec![Tag::new(*b"XV", TagValue::Int(1i64 << 40))];
        let mut buf = Vec::new();
        assert!(encode_record(&rec, &header, &mut buf).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let header = test_header();
        let recs: Vec<AlignmentRecord> = (0..100)
            .map(|i| {
                let line = format!(
                    "read{i}\t0\tchr{}\t{}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII\tNM:i:{}",
                    i % 2 + 1,
                    1000 + i * 10,
                    i % 5
                );
                sam::parse_record(line.as_bytes(), 1).unwrap()
            })
            .collect();

        let mut w = BamWriter::new(Vec::new(), header.clone()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let file = w.finish().unwrap();
        assert!(ngs_bgzf::reader::validate(&file).unwrap());

        let mut r = BamReader::new(IoCursor::new(&file)).unwrap();
        assert_eq!(r.header().references, header.references);
        let decoded: Vec<_> = r.records().map(|x| x.unwrap()).collect();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn truncated_record_detected() {
        let header = test_header();
        let rec = rich_record();
        let mut buf = Vec::new();
        encode_record(&rec, &header, &mut buf).unwrap();
        assert!(decode_record(&buf[4..buf.len() - 3], &header).is_err());
    }

    #[test]
    fn header_prologue_roundtrip() {
        let header = test_header();
        let mut buf = Vec::new();
        encode_header(&header, &mut buf);
        let decoded = decode_header(&mut IoCursor::new(&buf)).unwrap();
        assert_eq!(decoded.references, header.references);
        assert_eq!(decoded.text, header.text);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = b"SAM\x01rest".to_vec();
        buf.resize(32, 0);
        assert!(decode_header(&mut IoCursor::new(&buf)).is_err());
    }

    #[test]
    fn empty_bam_file() {
        let header = test_header();
        let w = BamWriter::new(Vec::new(), header).unwrap();
        let file = w.finish().unwrap();
        let mut r = BamReader::new(IoCursor::new(&file)).unwrap();
        assert!(r.read_record().unwrap().is_none());
    }

    #[test]
    fn encoded_tags_len_equals_the_encoded_length_for_every_tag_type() {
        let int = |v: i64| Tag::new(*b"XI", TagValue::Int(v));
        let mut tags = vec![
            Tag::new(*b"XA", TagValue::Char(b'U')),
            Tag::new(*b"XF", TagValue::Float(-3.5)),
            Tag::new(*b"XZ", TagValue::String(b"grp1".to_vec())),
            Tag::new(*b"XE", TagValue::String(Vec::new())),
            Tag::new(*b"XH", TagValue::Hex(b"1A2B".to_vec())),
            Tag::new(*b"B0", TagValue::Array(TagArray::I8(vec![-1, 2, 3]))),
            Tag::new(*b"B1", TagValue::Array(TagArray::U8(vec![1; 7]))),
            Tag::new(*b"B2", TagValue::Array(TagArray::I16(vec![-5, 10, 300]))),
            Tag::new(*b"B3", TagValue::Array(TagArray::U16(vec![65_535]))),
            Tag::new(*b"B4", TagValue::Array(TagArray::I32(vec![-70_000, 70_000]))),
            Tag::new(*b"B5", TagValue::Array(TagArray::U32(vec![4_000_000_000; 5]))),
            Tag::new(*b"B6", TagValue::Array(TagArray::F32(vec![0.5, 1.5]))),
            Tag::new(*b"B7", TagValue::Array(TagArray::U8(Vec::new()))),
        ];
        // Every boundary of the narrowest-integer choice (c C s S i I).
        let edges = [
            0i64, -1, 127, 128, -128, -129, 255, 256, 32_767, 32_768, -32_768, -32_769, 65_535,
            65_536, i32::MAX as i64, i32::MAX as i64 + 1, i32::MIN as i64, u32::MAX as i64,
        ];
        tags.extend(edges.iter().map(|&v| int(v)));
        for t in &tags {
            let one = std::slice::from_ref(t);
            assert_eq!(encoded_tags_len(one).unwrap(), encode_tags(one).unwrap().len(), "{t:?}");
        }
        assert_eq!(encoded_tags_len(&tags).unwrap(), encode_tags(&tags).unwrap().len());
        assert_eq!(encoded_tags_len(&[]).unwrap(), 0);
        // Both refuse what BAM cannot hold.
        for v in [u32::MAX as i64 + 1, i32::MIN as i64 - 1, i64::MAX, i64::MIN] {
            assert!(encode_tags(&[int(v)]).is_err());
            assert!(encoded_tags_len(&[int(v)]).is_err());
        }
        // And on a parsed record.
        let rec = rich_record();
        assert_eq!(encoded_tags_len(&rec.tags).unwrap(), encode_tags(&rec.tags).unwrap().len());
    }
}

#[cfg(test)]
mod measure_tests {
    use super::*;
    use crate::sam;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![ReferenceSequence { name: b"chr1".to_vec(), length: 1 << 20 }])
    }

    fn body_of(line: &str) -> Vec<u8> {
        let rec = sam::parse_record(line.as_bytes(), 1).unwrap();
        let mut buf = Vec::new();
        encode_record(&rec, &header(), &mut buf).unwrap();
        buf[4..].to_vec()
    }

    #[test]
    fn measures_what_observe_would_see() {
        let body = body_of("read1\t0\tchr1\t100\t60\t3M1I4M\t*\t0\t0\tACGTACGT\tIIIIIIII\tNM:i:1\tRG:Z:grp");
        let lengths = measure_record(&body).unwrap();
        assert_eq!(lengths, FieldLengths { qname: 5, cigar_ops: 3, seq: 8, tags: 4 + 7 });
        assert_eq!(lengths, FieldLengths::of(&decode_record(&body, &header()).unwrap()).unwrap());
        // A missing name is the one byte of `*`, with or without it stored.
        let star = body_of("*\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*");
        assert_eq!(measure_record(&star).unwrap(), FieldLengths { qname: 1, cigar_ops: 0, seq: 0, tags: 0 });
        let mut bare_nul = star.clone();
        bare_nul[8] = 1; // l_read_name: just the terminator
        bare_nul.remove(32);
        assert_eq!(measure_record(&bare_nul).unwrap().qname, 1);
        assert!(decode_record(&bare_nul, &header()).unwrap().qname.is_empty());
    }

    #[test]
    fn integer_tags_are_sized_by_value_not_by_stored_type() {
        let mut body = body_of("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        body.extend_from_slice(b"XAi");
        body.extend_from_slice(&5i32.to_le_bytes()); // 5 stored in four bytes
        body.extend_from_slice(b"XBI");
        body.extend_from_slice(&300u32.to_le_bytes()); // 300 stored in four
        body.extend_from_slice(b"XCs");
        body.extend_from_slice(&(-200i16).to_le_bytes()); // already narrowest
        let lengths = measure_record(&body).unwrap();
        assert_eq!(lengths.tags, (3 + 1) + (3 + 2) + (3 + 2));
        let decoded = decode_record(&body, &header()).unwrap();
        assert_eq!(encode_tags(&decoded.tags).unwrap().len(), lengths.tags);
    }

    #[test]
    fn overruns_and_unknown_types_are_typed_errors() {
        let body = body_of("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\tXZ:Z:text");
        let tags_at = body.len() - b"XZZtext\0".len();
        for cut in (0..body.len()).filter(|&cut| cut != tags_at) {
            // Every other prefix ends inside a field or the unterminated tag.
            assert!(measure_record(&body[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(measure_record(&body[..tags_at]).unwrap().tags, 0);
        let mut zero_name = body.clone();
        zero_name[8] = 0;
        assert!(matches!(measure_record(&zero_name), Err(Error::InvalidBam(_))));
        let mut huge_seq = body.clone();
        huge_seq[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(measure_record(&huge_seq), Err(Error::InvalidBam(_))));
        let mut unknown = body_of("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        unknown.extend_from_slice(b"XQq\x01");
        assert!(matches!(measure_record(&unknown), Err(Error::InvalidTag(_))));
        let mut bad_array = body_of("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        bad_array.extend_from_slice(b"XBBz\x01\x00\x00\x00\x07");
        assert!(matches!(measure_record(&bad_array), Err(Error::InvalidTag(_))));
        let mut long_array = body_of("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII");
        long_array.extend_from_slice(b"XBBi\xff\xff\xff\xff");
        assert!(matches!(measure_record(&long_array), Err(Error::InvalidBam(_))));
    }

    #[test]
    fn reader_over_inflated_bytes_yields_bodies_and_records() {
        let header = header();
        let lines = ["a\t0\tchr1\t10\t60\t4M\t*\t0\t0\tACGT\tIIII", "bb\t0\tchr1\t20\t60\t2M\t*\t0\t0\tAC\tII"];
        let mut raw = Vec::new();
        encode_header(&header, &mut raw);
        for line in lines {
            encode_record(&sam::parse_record(line.as_bytes(), 1).unwrap(), &header, &mut raw).unwrap();
        }
        let mut bodies = BamReader::from_inflated(&raw[..]).unwrap();
        assert_eq!(measure_record(bodies.read_body().unwrap().unwrap()).unwrap().qname, 1);
        assert_eq!(bodies.read_record().unwrap().unwrap().qname, b"bb");
        assert!(bodies.read_body().unwrap().is_none());
        // A stream cut inside a record is an error, not a short record.
        let mut cut = BamReader::from_inflated(&raw[..raw.len() - 3]).unwrap();
        assert!(cut.read_body().unwrap().is_some());
        assert!(cut.read_body().is_err());
    }
}

#[cfg(test)]
mod coordinate_range_tests {
    use super::*;
    use crate::sam;

    #[test]
    fn positions_beyond_i32_rejected_not_truncated() {
        let header = SamHeader::from_references(vec![ReferenceSequence {
            name: b"big".to_vec(),
            length: 4_000_000_000,
        }]);
        let rec =
            sam::parse_record(b"r\t0\tbig\t3000000000\t60\t4M\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut buf = Vec::new();
        let err = encode_record(&rec, &header, &mut buf).unwrap_err();
        assert!(err.to_string().contains("unrepresentable"), "{err}");
        // Same guard on the mate position.
        let rec =
            sam::parse_record(b"r\t0\tbig\t1\t60\t4M\t=\t3000000000\t0\tACGT\tIIII", 1).unwrap();
        let mut buf = Vec::new();
        assert!(encode_record(&rec, &header, &mut buf).is_err());
    }
}
