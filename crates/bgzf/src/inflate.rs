//! DEFLATE decompression (RFC 1951): stored, fixed-Huffman and
//! dynamic-Huffman blocks, through one bounded, table-driven core
//! ([`Inflater`], DESIGN.md §15).
//!
//! The core inflates into a slice and stops at its end, so a caller that
//! knows the declared size of a stream (BGZF `ISIZE`, a BAMX v2 column's
//! `raw_len` prefix) sizes the slice to it and can never be made to
//! produce more. [`inflate`] / [`inflate_into`] wrap the same core for
//! callers with no declared size, growing a `Vec` as output arrives.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use crate::bits::BitReader;
use crate::error::{Error, Result};
use crate::huffman::{build_decode_table, build_multi_literal_table, entry, multi, Alphabet};

/// End-of-block symbol in the literal/length alphabet.
pub(crate) const END_OF_BLOCK: u16 = 256;

/// Base match lengths for length codes 257..=285.
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];

/// Extra bits for length codes 257..=285.
pub(crate) const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Base distances for distance codes 0..=29.
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for distance codes 0..=29.
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];

/// Order in which code-length code lengths are stored in a dynamic header.
pub(crate) const CLC_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub(crate) fn fixed_lit_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    l[144..256].iter_mut().for_each(|x| *x = 9);
    l[256..280].iter_mut().for_each(|x| *x = 7);
    l
}

/// Fixed distance code lengths: thirty 5-bit codes.
pub(crate) fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

/// Index width of the primary literal/length table.
const LITLEN_BITS: u32 = 10;
/// Index width of the multi-literal table: two literal codes pair when
/// their lengths sum to at most this.
const MULTI_BITS: u32 = 11;
/// Multi-literal entries one word refill pays for: each consumes at most
/// [`MULTI_BITS`] of the ≥ 56 counted bits a refill leaves.
const RUN_ENTRIES: u32 = 56 / MULTI_BITS;
/// Output bytes one literal run may touch: two literals per entry, and
/// the last entry stores a whole `u32`.
const RUN_WINDOW: usize = 16;
const _: () = assert!((RUN_ENTRIES - 1) * 2 + 4 <= RUN_WINDOW as u32);
/// Index width of the primary distance table.
const DIST_BITS: u32 = 8;
/// Index width of the code-length-code table: its codes are ≤ 7 bits, so
/// it never needs a sub-table.
const CLC_BITS: u32 = 7;

/// Output room the fast loop wants before each symbol: the longest match
/// plus the 7 bytes a word-wise copy may write past its end.
const FAST_OUT_ROOM: usize = 258 + 8;

/// First output buffer of a caller that declared no size.
const UNSIZED_FIRST_BUFFER: usize = 4096;

/// How a decode step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// The final block ended.
    Done,
    /// The next symbol does not fit in the output slice; nothing of it
    /// was consumed.
    OutputFull,
}

/// Where a stream stands between decode steps.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// Before a block header (or past the last block, when `last` is set).
    Header,
    /// Inside a stored block with this many bytes left.
    Stored(usize),
    /// Inside a Huffman-coded block; `fixed` selects the static tables.
    Huffman { fixed: bool },
}

/// One stream being decoded: the bit reader plus the block state that a
/// step which ran out of output room resumes from.
struct Stream<'a> {
    bits: BitReader<'a>,
    block: Block,
    /// The current block has BFINAL set.
    last: bool,
    /// Output bytes produced so far.
    produced: usize,
}

impl<'a> Stream<'a> {
    fn new(input: &'a [u8]) -> Self {
        Stream { bits: BitReader::new(input), block: Block::Header, last: false, produced: 0 }
    }
}

/// The decode tables of one Huffman-coded block.
#[derive(Debug, Default)]
struct Tables {
    litlen: Vec<u32>,
    dist: Vec<u32>,
    /// Runs of short literals, built from `litlen`.
    multi: Vec<u32>,
}

/// The decode tables of the fixed Huffman codes, built once.
fn fixed_tables() -> &'static Tables {
    static FIXED: OnceLock<Tables> = OnceLock::new();
    FIXED.get_or_init(|| {
        let mut t = Tables::default();
        let built = build_decode_table(&fixed_lit_lengths(), LITLEN_BITS, Alphabet::LitLen, &mut t.litlen)
            .and(build_decode_table(&fixed_dist_lengths(), DIST_BITS, Alphabet::Distance, &mut t.dist));
        debug_assert!(built.is_ok(), "fixed tables are valid");
        build_multi_literal_table(&t.litlen, LITLEN_BITS, MULTI_BITS, &mut t.multi);
        t
    })
}

/// The DEFLATE decoder: one table-driven core that writes into a slice
/// and never past it, plus the scratch tables it rebuilds per dynamic
/// block. Keep one around to decode many streams without reallocating
/// (about 14 KiB; [`crate::BgzfReader`] owns one).
#[derive(Debug, Default)]
pub struct Inflater {
    tables: Tables,
    clc: Vec<u32>,
}

impl Inflater {
    /// Creates a decoder with empty scratch tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decompresses one complete DEFLATE stream into `out`, which the
    /// caller sized to the stream's *declared* length (BGZF `ISIZE`, a
    /// column's `raw_len` prefix). The stream must produce exactly
    /// `out.len()` bytes: the first byte beyond that, or a final block
    /// ending short of it, is [`Error::Corrupt`] — nothing is ever written
    /// outside `out`, whatever the input expands to. Returns the number of
    /// *input* bytes consumed.
    pub fn inflate_exact(&mut self, input: &[u8], out: &mut [u8]) -> Result<usize> {
        let mut stream = Stream::new(input);
        match self.run(&mut stream, out)? {
            Status::Done if stream.produced == out.len() => Ok(stream.bits.bytes_consumed()),
            Status::Done => Err(Error::Corrupt("stream ends short of its declared size")),
            Status::OutputFull => Err(Error::Corrupt("stream outruns its declared size")),
        }
    }

    /// Decodes until the final block ends or the next symbol no longer
    /// fits in `out[s.produced..]`.
    fn run(&mut self, s: &mut Stream<'_>, out: &mut [u8]) -> Result<Status> {
        loop {
            match s.block {
                Block::Header => {
                    if s.last {
                        s.bits.align_to_byte();
                        return Ok(Status::Done);
                    }
                    s.last = s.bits.read_bit()? == 1;
                    s.block = match s.bits.read_bits(2)? {
                        0b00 => {
                            s.bits.align_to_byte();
                            let header = s.bits.take_aligned(4)?;
                            let len = u16::from_le_bytes([header[0], header[1]]);
                            let nlen = u16::from_le_bytes([header[2], header[3]]);
                            if len != !nlen {
                                return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
                            }
                            Block::Stored(usize::from(len))
                        }
                        0b01 => Block::Huffman { fixed: true },
                        0b10 => {
                            self.read_dynamic_header(&mut s.bits)?;
                            Block::Huffman { fixed: false }
                        }
                        _ => return Err(Error::Corrupt("reserved BTYPE 11")),
                    };
                }
                Block::Stored(left) => {
                    let n = left.min(out.len() - s.produced);
                    out[s.produced..s.produced + n].copy_from_slice(s.bits.take_aligned(n)?);
                    s.produced += n;
                    if n < left {
                        s.block = Block::Stored(left - n);
                        return Ok(Status::OutputFull);
                    }
                    s.block = Block::Header;
                }
                Block::Huffman { fixed } => {
                    let tables = if fixed { fixed_tables() } else { &self.tables };
                    if inflate_block(&mut s.bits, tables, out, &mut s.produced)? == Status::OutputFull {
                        return Ok(Status::OutputFull);
                    }
                    s.block = Block::Header;
                }
            }
        }
    }

    /// Parses a dynamic block header into the scratch tables.
    fn read_dynamic_header(&mut self, r: &mut BitReader<'_>) -> Result<()> {
        let hlit = r.read_bits(5)? as usize + 257;
        let hdist = r.read_bits(5)? as usize + 1;
        let hclen = r.read_bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return Err(Error::Corrupt("dynamic header symbol counts out of range"));
        }

        let mut clc_lengths = [0u8; 19];
        for &idx in CLC_ORDER.iter().take(hclen) {
            clc_lengths[idx] = r.read_bits(3)? as u8;
        }
        build_decode_table(&clc_lengths, CLC_BITS, Alphabet::CodeLength, &mut self.clc)?;

        // Literal/length and distance code lengths share one RLE-coded stream.
        let total = hlit + hdist;
        let mut lengths = [0u8; 286 + 30];
        let mut n = 0usize;
        while n < total {
            r.refill();
            let e = self.clc[(r.peek() as usize) & ((1 << CLC_BITS) - 1)];
            if e & entry::LITERAL == 0 {
                return Err(Error::InvalidHuffman("code not in table"));
            }
            if entry::consumed(e) > r.available() {
                return Err(Error::UnexpectedEof);
            }
            r.consume(entry::consumed(e));
            let (value, repeat) = match entry::value(e) {
                sym @ 0..=15 => (sym as u8, 1),
                16 => {
                    let prev = n.checked_sub(1).map(|p| lengths[p]);
                    (prev.ok_or(Error::Corrupt("repeat with no prior length"))?, 3 + r.read_bits(2)?)
                }
                17 => (0, 3 + r.read_bits(3)?),
                _ => (0, 11 + r.read_bits(7)?),
            };
            let run = lengths
                .get_mut(n..n + repeat as usize)
                .filter(|_| n + repeat as usize <= total)
                .ok_or(Error::Corrupt("code length run overflows header counts"))?;
            run.fill(value);
            n += repeat as usize;
        }
        if lengths[usize::from(END_OF_BLOCK)] == 0 {
            return Err(Error::Corrupt("dynamic block lacks end-of-block code"));
        }
        let t = &mut self.tables;
        build_decode_table(&lengths[..hlit], LITLEN_BITS, Alphabet::LitLen, &mut t.litlen)?;
        build_decode_table(&lengths[hlit..total], DIST_BITS, Alphabet::Distance, &mut t.dist)?;
        build_multi_literal_table(&t.litlen, LITLEN_BITS, MULTI_BITS, &mut t.multi);
        Ok(())
    }
}

/// Decompresses a complete DEFLATE stream from `input` into a new buffer,
/// for callers with no declared size to hold the stream to.
///
/// `size_hint` sizes the first output buffer; the output grows as the
/// stream produces it.
pub fn inflate(input: &[u8], size_hint: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(size_hint);
    inflate_into(input, &mut out)?;
    Ok(out)
}

/// Decompresses a complete DEFLATE stream of undeclared size, appending to
/// `out` (back-references never reach into what `out` held before).
/// Returns the number of *input* bytes consumed, so callers can locate a
/// trailer that follows the compressed data.
pub fn inflate_into(input: &[u8], out: &mut Vec<u8>) -> Result<usize> {
    let start = out.len();
    let mut inflater = Inflater::new();
    let mut stream = Stream::new(input);
    let mut room = (out.capacity() - start).max(UNSIZED_FIRST_BUFFER);
    loop {
        out.resize(start + room, 0);
        let status = inflater.run(&mut stream, &mut out[start..]);
        if !matches!(status, Ok(Status::OutputFull)) {
            out.truncate(start + stream.produced);
            return status.map(|_| stream.bits.bytes_consumed());
        }
        room *= 2;
    }
}

/// Resolves the table entry for the bits at the front of `r`: `primary`
/// is the first `N` entries of `table` as an array, so the masked index
/// needs no bounds check. A leaf reached through a sub-table pointer is
/// returned with the primary index width added to its consumed-bits
/// field, so callers consume once.
#[inline(always)]
fn lookup<const N: usize>(r: &BitReader<'_>, primary: &[u32; N], table: &[u32]) -> u32 {
    descend(entry_at(primary, r), r, N.trailing_zeros(), table)
}

/// The entry of `table` the bits at the front of `r` index; the masked
/// index needs no bounds check.
#[inline(always)]
fn entry_at<const N: usize>(table: &[u32; N], r: &BitReader<'_>) -> u32 {
    table[(r.peek() as usize) & (N - 1)]
}

/// Follows primary entry `e` of `table` (index `primary_bits` wide) to
/// its leaf, as [`lookup`] does.
#[inline(always)]
fn descend(e: u32, r: &BitReader<'_>, primary_bits: u32, table: &[u32]) -> u32 {
    if e & entry::SUBTABLE == 0 {
        return e;
    }
    let sub = (r.peek() >> primary_bits) as usize & ((1 << entry::extra(e)) - 1);
    let leaf = table[entry::value(e) as usize + sub];
    leaf + primary_bits * u32::from(leaf & entry::INVALID == 0)
}

/// Decodes one Huffman-coded block body into `out[*pos..]`: a fast loop
/// while a whole input word and [`FAST_OUT_ROOM`] bytes of output are
/// ahead, then one bounds-checked symbol at a time at the edges.
fn inflate_block(
    r: &mut BitReader<'_>,
    tables: &Tables,
    out: &mut [u8],
    pos: &mut usize,
) -> Result<Status> {
    let (lit, dist) = (&tables.litlen[..], &tables.dist[..]);
    let (Some((lit_primary, _)), Some((dist_primary, _)), Some((multi, _))) = (
        lit.split_first_chunk::<{ 1 << LITLEN_BITS }>(),
        dist.split_first_chunk::<{ 1 << DIST_BITS }>(),
        tables.multi.split_first_chunk::<{ 1 << MULTI_BITS }>(),
    ) else {
        return Err(Error::Corrupt("decode tables not built"));
    };
    let mut p = *pos;
    // Fast loop. A word refill leaves ≥ 56 counted bits: enough for
    // [`RUN_ENTRIES`] multi-literal entries, for one literal of any length,
    // or for a whole match (≤ 15 + 5 + 15 + 13 = 48), so nothing in here
    // compares against `available`.
    while r.has_word() && out.len() - p >= FAST_OUT_ROOM {
        r.refill_word();
        let mut m = entry_at(multi, r);
        if m & multi::COUNT != 0 {
            // A run of short literals, each entry's bytes stored whole
            // into a window that holds the longest run.
            let window = &mut out[p..p + RUN_WINDOW];
            let mut q = 0;
            for _ in 0..RUN_ENTRIES {
                if m & multi::COUNT == 0 {
                    break;
                }
                r.consume(multi::consumed(m));
                window[q..q + 4].copy_from_slice(&multi::literals(m).to_le_bytes());
                q += multi::count(m);
                m = entry_at(multi, r);
            }
            p += q;
            continue;
        }
        // Not a short literal: `m` is the literal/length table's own entry.
        // A code and its extra bits go in one shift (literals and end of
        // block have none); the extra bits are read from the bits saved
        // before it.
        let e = descend(m, r, LITLEN_BITS, lit);
        let saved = r.peek();
        r.consume(entry::consumed(e) + entry::extra(e));
        if e & entry::LITERAL != 0 {
            // A literal code longer than the primary index.
            out[p] = entry::value(e) as u8;
            p += 1;
            continue;
        }
        if e & entry::EXCEPTIONAL != 0 {
            *pos = p;
            return if e & entry::END_OF_BLOCK != 0 {
                Ok(Status::Done)
            } else {
                Err(Error::Corrupt("invalid literal/length code"))
            };
        }
        let len = entry::with_extra(e, saved) as usize;
        let d = lookup(r, dist_primary, dist);
        if d & entry::EXCEPTIONAL != 0 {
            return Err(Error::Corrupt("invalid distance code"));
        }
        let saved = r.peek();
        r.consume(entry::consumed(d) + entry::extra(d));
        let distance = entry::with_extra(d, saved) as usize;
        if distance > p {
            return Err(Error::Corrupt("back-reference before start of output"));
        }
        copy_match_fast(out, p, distance, len);
        p += len;
    }

    // Careful loop: the same symbols with every bit and byte checked, and
    // a symbol that does not fit handed back unconsumed.
    let status = loop {
        let before = *r;
        r.refill();
        let e = lookup(r, lit_primary, lit);
        if entry::consumed(e) > r.available() {
            return Err(Error::UnexpectedEof);
        }
        r.consume(entry::consumed(e));
        if e & entry::LITERAL != 0 {
            if p == out.len() {
                *r = before;
                break Status::OutputFull;
            }
            out[p] = entry::value(e) as u8;
            p += 1;
            continue;
        }
        if e & entry::EXCEPTIONAL != 0 {
            if e & entry::END_OF_BLOCK != 0 {
                break Status::Done;
            }
            return Err(Error::Corrupt("invalid literal/length code"));
        }
        r.refill();
        if entry::extra(e) > r.available() {
            return Err(Error::UnexpectedEof);
        }
        let len = (entry::value(e) + r.take(entry::extra(e))) as usize;
        let d = lookup(r, dist_primary, dist);
        if d & entry::EXCEPTIONAL != 0 {
            return Err(Error::Corrupt("invalid distance code"));
        }
        if entry::consumed(d) + entry::extra(d) > r.available() {
            return Err(Error::UnexpectedEof);
        }
        r.consume(entry::consumed(d));
        let distance = (entry::value(d) + r.take(entry::extra(d))) as usize;
        if distance > p {
            return Err(Error::Corrupt("back-reference before start of output"));
        }
        if len > out.len() - p {
            *r = before;
            break Status::OutputFull;
        }
        copy_match(out, p, distance, len);
        p += len;
    };
    *pos = p;
    Ok(status)
}

/// Copies a length/distance match inside `out`; overlapping copies
/// (distance < length) replicate previously written bytes, per DEFLATE
/// semantics. Requires `distance ≤ p` and `p + length ≤ out.len()`.
#[inline]
fn copy_match(out: &mut [u8], p: usize, distance: usize, length: usize) {
    let src = p - distance;
    if distance >= length {
        out.copy_within(src..src + length, p);
    } else if distance == 1 {
        let b = out[src];
        out[p..p + length].fill(b);
    } else {
        for k in 0..length {
            out[p + k] = out[src + k];
        }
    }
}

/// [`copy_match`] with [`FAST_OUT_ROOM`] bytes of room after `p`: eight
/// bytes per step when the distance allows, which may write up to seven
/// bytes past the match (later output, or the caller's trim, overwrites
/// them).
#[inline(always)]
fn copy_match_fast(out: &mut [u8], p: usize, distance: usize, length: usize) {
    if distance < 8 {
        return copy_match(out, p, distance, length);
    }
    let (mut src, mut dst) = (p - distance, p);
    while dst < p + length {
        let mut word = [0u8; 8];
        word.copy_from_slice(&out[src..src + 8]);
        out[dst..dst + 8].copy_from_slice(&word);
        src += 8;
        dst += 8;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    /// Builds a raw stored-block stream by hand.
    fn stored_stream(payload: &[u8], final_block: bool) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(final_block as u32, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        let len = payload.len() as u32;
        w.write_bits(len & 0xFFFF, 16);
        w.write_bits(!len & 0xFFFF, 16);
        w.write_aligned_bytes(payload);
        w.into_bytes()
    }

    #[test]
    fn stored_block() {
        let data = stored_stream(b"hello stored world", true);
        assert_eq!(inflate(&data, 0).unwrap(), b"hello stored world");
    }

    #[test]
    fn stored_block_bad_nlen() {
        let mut data = stored_stream(b"abc", true);
        data[3] ^= 0xFF; // corrupt NLEN
        assert!(inflate(&data, 0).is_err());
    }

    #[test]
    fn multiple_stored_blocks() {
        let mut data = stored_stream(b"first|", false);
        data.extend(stored_stream(b"second", true));
        assert_eq!(inflate(&data, 0).unwrap(), b"first|second");
    }

    #[test]
    fn fixed_block_literals_only() {
        // Hand-assemble a fixed block containing "AB" + EOB.
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        let enc = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        enc.encode(&mut w, b'A' as usize);
        enc.encode(&mut w, b'B' as usize);
        enc.encode(&mut w, 256);
        let data = w.into_bytes();
        assert_eq!(inflate(&data, 0).unwrap(), b"AB");
    }

    #[test]
    fn fixed_block_with_match() {
        // "abcabc": literals a,b,c then match len 3 dist 3.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        for &b in b"abc" {
            lit.encode(&mut w, b as usize);
        }
        lit.encode(&mut w, 257); // length code for len=3, no extra bits
        dst.encode(&mut w, 2); // distance code for d=3, no extra bits
        lit.encode(&mut w, 256);
        let data = w.into_bytes();
        assert_eq!(inflate(&data, 0).unwrap(), b"abcabc");
    }

    #[test]
    fn overlapping_match_replicates() {
        // "aaaaaa": literal 'a' then match len 5 dist 1.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        lit.encode(&mut w, b'a' as usize);
        lit.encode(&mut w, 259); // len=5
        dst.encode(&mut w, 0); // d=1
        lit.encode(&mut w, 256);
        let data = w.into_bytes();
        assert_eq!(inflate(&data, 0).unwrap(), b"aaaaaa");
    }

    #[test]
    fn distance_too_far_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        lit.encode(&mut w, b'a' as usize);
        lit.encode(&mut w, 257);
        dst.encode(&mut w, 3); // d=4 > 1 byte of history
        lit.encode(&mut w, 256);
        let data = w.into_bytes();
        assert!(inflate(&data, 0).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = stored_stream(b"hello", true);
        assert!(inflate(&data[..data.len() - 2], 0).is_err());
    }

    #[test]
    fn empty_fixed_block() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        lit.encode(&mut w, 256);
        let data = w.into_bytes();
        assert_eq!(inflate(&data, 0).unwrap(), b"");
    }

    #[test]
    fn consumed_reports_trailer_position() {
        let mut data = stored_stream(b"xyz", true);
        let body = data.len();
        data.extend_from_slice(&[0xDE, 0xAD]); // fake trailer
        let mut out = Vec::new();
        let used = inflate_into(&data, &mut out).unwrap();
        assert_eq!(used, body);
        assert_eq!(out, b"xyz");
    }

    /// `x` then `n` matches of <len 258, dist 1> in one fixed block: about
    /// two bits of input per 258 bytes of output.
    fn run_bomb(n: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        lit.encode(&mut w, b'x' as usize);
        for _ in 0..n {
            lit.encode(&mut w, 285);
            dst.encode(&mut w, 0);
        }
        lit.encode(&mut w, 256);
        w.into_bytes()
    }

    #[test]
    fn exact_decode_needs_exactly_the_declared_size() {
        let data = run_bomb(40);
        let n = 1 + 40 * 258;
        let mut inflater = Inflater::new();
        let mut out = vec![0u8; n];
        assert_eq!(inflater.inflate_exact(&data, &mut out).unwrap(), data.len());
        assert!(out.iter().all(|&b| b == b'x'));
        // One byte short: the stream outruns the declaration.
        assert!(matches!(
            inflater.inflate_exact(&data, &mut out[..n - 1]),
            Err(Error::Corrupt("stream outruns its declared size"))
        ));
        // One byte long: it ends short of it.
        let mut long = vec![0u8; n + 1];
        assert!(matches!(
            inflater.inflate_exact(&data, &mut long),
            Err(Error::Corrupt("stream ends short of its declared size"))
        ));
        // Empty declaration, empty stream.
        assert_eq!(inflater.inflate_exact(&[0x03, 0x00], &mut []).unwrap(), 2);
    }

    #[test]
    fn exact_decode_never_writes_past_the_declared_size() {
        // ~1000x expansion; the declared size is a small window inside a
        // larger buffer whose tail must come back untouched.
        let data = run_bomb(2000);
        let mut buf = vec![0xEEu8; 8192];
        let mut inflater = Inflater::new();
        for declared in [0usize, 1, 2, 257, 258, 259, 260, 1000, 4096] {
            buf.fill(0xEE);
            let r = inflater.inflate_exact(&data, &mut buf[..declared]);
            assert!(matches!(r, Err(Error::Corrupt(_))), "declared {declared}");
            assert!(buf[declared..].iter().all(|&b| b == 0xEE), "declared {declared}");
        }
    }

    #[test]
    fn exact_decode_bounds_stored_blocks_too() {
        let data = stored_stream(b"0123456789", true);
        let mut out = [0u8; 10];
        assert_eq!(Inflater::new().inflate_exact(&data, &mut out).unwrap(), data.len());
        assert_eq!(&out, b"0123456789");
        assert!(Inflater::new().inflate_exact(&data, &mut out[..9]).is_err());
        let mut long = [0u8; 11];
        assert!(Inflater::new().inflate_exact(&data, &mut long).is_err());
    }

    #[test]
    fn unsized_decode_grows_across_blocks_and_inside_matches() {
        // Three blocks (stored, fixed run, stored) whose output crosses
        // the first buffer and several doublings, with matches straddling
        // every growth point.
        let mut w = BitWriter::new();
        let stored = |w: &mut BitWriter, payload: &[u8], last: bool| {
            w.write_bits(last as u32, 1);
            w.write_bits(0b00, 2);
            w.align_to_byte();
            w.write_bits(payload.len() as u32, 16);
            w.write_bits(!(payload.len() as u32) & 0xFFFF, 16);
            w.write_aligned_bytes(payload);
        };
        stored(&mut w, &[b'x'; 3000], false);
        w.write_bits(0, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        lit.encode(&mut w, b'x' as usize);
        for _ in 0..300 {
            lit.encode(&mut w, 285);
            dst.encode(&mut w, 0);
        }
        lit.encode(&mut w, 256);
        stored(&mut w, b"tail", true);
        let data = w.into_bytes();
        let out = inflate(&data, 0).unwrap();
        assert_eq!(out.len(), 3000 + 1 + 300 * 258 + 4);
        assert!(out[..out.len() - 4].iter().all(|&b| b == b'x'));
        assert_eq!(&out[out.len() - 4..], b"tail");
        // The same through an exact decode and with a generous hint.
        let mut exact = vec![0u8; out.len()];
        Inflater::new().inflate_exact(&data, &mut exact).unwrap();
        assert_eq!(exact, out);
        assert_eq!(inflate(&data, 1 << 20).unwrap(), out);
    }

    #[test]
    fn appending_decode_cannot_reference_what_was_there_before() {
        // A distance-4 match after one literal: legal only if the match
        // could see the caller's prefix, which it must not.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let lit = crate::huffman::Encoder::from_lengths(&fixed_lit_lengths()).unwrap();
        let dst = crate::huffman::Encoder::from_lengths(&fixed_dist_lengths()).unwrap();
        lit.encode(&mut w, b'a' as usize);
        lit.encode(&mut w, 257);
        dst.encode(&mut w, 3);
        lit.encode(&mut w, 256);
        let data = w.into_bytes();
        let mut out = b"prefix".to_vec();
        assert!(inflate_into(&data, &mut out).is_err());
    }

    #[test]
    fn one_inflater_decodes_many_streams() {
        // Dynamic tables of one stream must not leak into the next.
        let a = crate::deflate::deflate(&b"abcabcabd".repeat(50), crate::deflate::Options::default());
        let b = crate::deflate::deflate(&b"zyxwvu zyxwvv".repeat(40), crate::deflate::Options::default());
        let fixed = run_bomb(3);
        let mut inflater = Inflater::new();
        for _ in 0..3 {
            let mut out = vec![0u8; 450];
            inflater.inflate_exact(&a, &mut out).unwrap();
            assert_eq!(out, b"abcabcabd".repeat(50));
            let mut out = vec![0u8; 1 + 3 * 258];
            inflater.inflate_exact(&fixed, &mut out).unwrap();
            let mut out = vec![0u8; 520];
            inflater.inflate_exact(&b, &mut out).unwrap();
            assert_eq!(out, b"zyxwvu zyxwvv".repeat(40));
        }
    }
}
