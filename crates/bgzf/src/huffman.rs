//! Canonical Huffman coding used by DEFLATE.
//!
//! Both directions are implemented from scratch:
//! * building *length-limited* code lengths from symbol frequencies
//!   (heap-based Huffman with zlib-style overflow repair, limit 15);
//! * assigning canonical codes from lengths (RFC 1951 §3.2.2);
//! * building the decoder's packed lookup tables ([`build_decode_table`]):
//!   one `u32` per entry, a primary table indexed by the next few input
//!   bits and second-level sub-tables for codes longer than that index.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bits::BitWriter;
use crate::error::{Error, Result};
use crate::inflate::{DIST_BASE, DIST_EXTRA, END_OF_BLOCK, LENGTH_BASE, LENGTH_EXTRA};

/// Maximum code length permitted by DEFLATE.
pub const MAX_BITS: usize = 15;

/// A canonical Huffman *encoder*: per-symbol code + length.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Per symbol: bit-reversed (ready-to-emit LSB-first) code in the low
    /// 16 bits, code length above them; 0 means the symbol is unused.
    table: Vec<u32>,
}

impl Encoder {
    /// Builds an encoder from canonical code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self> {
        let codes = assign_codes(lengths)?;
        let table =
            codes.iter().zip(lengths).map(|(&c, &l)| c as u32 | (l as u32) << 16).collect();
        Ok(Encoder { table })
    }

    /// Emits `symbol` into `w`.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let e = self.table[symbol];
        debug_assert!(e >> 16 > 0, "encoding symbol {symbol} with zero length");
        w.write_bits(e & 0xFFFF, e >> 16);
    }

    /// Emits `symbol` followed by `extra_bits` bits of `extra` in one
    /// write (a code is ≤ 15 bits and DEFLATE's extra fields ≤ 13).
    #[inline]
    pub fn encode_with_extra(&self, w: &mut BitWriter, symbol: usize, extra: u32, extra_bits: u32) {
        let e = self.table[symbol];
        debug_assert!(e >> 16 > 0, "encoding symbol {symbol} with zero length");
        w.write_bits((e & 0xFFFF) | extra << (e >> 16), (e >> 16) + extra_bits);
    }
}

/// Decode-table entry layout (one `u32`):
///
/// | bits   | meaning                                                        |
/// |--------|----------------------------------------------------------------|
/// | 0..8   | input bits this entry consumes (a sub-table entry counts only  |
/// |        | the bits beyond the primary index; a pointer, the index width) |
/// | 8..12  | extra-bit count of a length/distance entry, or the index width |
/// |        | of the sub-table a pointer leads to                            |
/// | 12..16 | kind flags, below; none set = a length or distance entry       |
/// | 16..32 | literal byte, length/distance base value, code-length symbol,  |
/// |        | or sub-table offset                                            |
pub(crate) mod entry {
    /// The value is a literal byte (or a code-length symbol).
    pub const LITERAL: u32 = 1 << 15;
    /// End of block.
    pub const END_OF_BLOCK: u32 = 1 << 14;
    /// Pointer to a sub-table.
    pub const SUBTABLE: u32 = 1 << 13;
    /// No code is assigned to this bit pattern (incomplete set), or the
    /// symbol is one DEFLATE reserves (286, 287; distance 30, 31).
    pub const INVALID: u32 = 1 << 12;
    /// Anything that is neither a literal nor a length/distance.
    pub const EXCEPTIONAL: u32 = END_OF_BLOCK | SUBTABLE | INVALID;

    /// Bits the entry consumes.
    #[inline(always)]
    pub fn consumed(e: u32) -> u32 {
        e & 0xFF
    }
    /// Extra-bit count, or a pointer's sub-table index width.
    #[inline(always)]
    pub fn extra(e: u32) -> u32 {
        (e >> 8) & 0xF
    }
    /// Symbol, base value or sub-table offset.
    #[inline(always)]
    pub fn value(e: u32) -> u32 {
        e >> 16
    }
}

/// Which alphabet a decode table serves (decides what a symbol's entry
/// carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alphabet {
    /// Code-length code of a dynamic header: value = symbol 0..=18.
    CodeLength,
    /// Literal/length: literals, end of block, length base + extra bits.
    LitLen,
    /// Distance: base + extra bits.
    Distance,
}

impl Alphabet {
    /// The entry for `symbol`, without its consumed-bits field.
    fn entry(self, symbol: usize) -> u32 {
        let base_extra = |base: u16, extra: u8| (base as u32) << 16 | (extra as u32) << 8;
        match self {
            Alphabet::CodeLength => (symbol as u32) << 16 | entry::LITERAL,
            Alphabet::LitLen => match symbol {
                0..=255 => (symbol as u32) << 16 | entry::LITERAL,
                s if s == END_OF_BLOCK as usize => entry::END_OF_BLOCK,
                257..=285 => base_extra(LENGTH_BASE[symbol - 257], LENGTH_EXTRA[symbol - 257]),
                _ => entry::INVALID,
            },
            Alphabet::Distance => match symbol {
                0..=29 => base_extra(DIST_BASE[symbol], DIST_EXTRA[symbol]),
                _ => entry::INVALID,
            },
        }
    }
}

/// Builds the packed decode table for canonical code `lengths` into
/// `table` (cleared first; its allocation is reused): `1 << primary_bits`
/// primary entries, then one sub-table per primary index that longer
/// codes share.
///
/// Returns an error for over-subscribed length sets. Incomplete sets are
/// accepted (DEFLATE allows a single-code distance tree); bit patterns no
/// code owns decode to [`entry::INVALID`].
pub(crate) fn build_decode_table(
    lengths: &[u8],
    primary_bits: u32,
    alphabet: Alphabet,
    table: &mut Vec<u32>,
) -> Result<()> {
    let mut next_code = first_codes(lengths)?;
    let primary_size = 1usize << primary_bits;
    let primary_mask = primary_size - 1;
    table.clear();
    table.resize(primary_size, entry::INVALID);

    // Canonical codes, bit-reversed to match the LSB-first stream. Short
    // codes fill every primary slot whose low bits equal the code; long
    // ones first only record, in the slot they share, how wide their
    // sub-table has to be.
    let mut reversed = [0u16; 288];
    for (sym, &l) in lengths.iter().enumerate() {
        if l == 0 {
            continue;
        }
        let len = l as u32;
        let rev = reverse_bits(next_code[l as usize], l);
        next_code[l as usize] += 1;
        reversed[sym] = rev;
        if len <= primary_bits {
            let e = alphabet.entry(sym) | len;
            for slot in (rev as usize..primary_size).step_by(1 << len) {
                table[slot] = e;
            }
        } else {
            let slot = rev as usize & primary_mask;
            let width = (len - primary_bits).max(entry::extra(table[slot]));
            table[slot] = entry::SUBTABLE | width << 8 | primary_bits;
        }
    }
    for (sym, &l) in lengths.iter().enumerate() {
        let len = l as u32;
        if len <= primary_bits {
            continue;
        }
        let rev = reversed[sym] as usize;
        let slot = rev & primary_mask;
        let width = entry::extra(table[slot]);
        let mut offset = entry::value(table[slot]) as usize;
        if offset == 0 {
            // First code of this sub-table: allocate it.
            offset = table.len();
            table.resize(offset + (1 << width), entry::INVALID);
            table[slot] |= (offset as u32) << 16;
        }
        let e = alphabet.entry(sym) | (len - primary_bits);
        for sub in ((rev >> primary_bits)..1 << width).step_by(1 << (len - primary_bits)) {
            table[offset + sub] = e;
        }
    }
    Ok(())
}

/// Validates a length set and returns the first canonical code of each
/// length (RFC 1951 §3.2.2).
fn first_codes(lengths: &[u8]) -> Result<[u16; MAX_BITS + 1]> {
    if lengths.len() > 288 {
        return Err(Error::InvalidHuffman("alphabet larger than 288 symbols"));
    }
    let mut count = [0u16; MAX_BITS + 1];
    for &l in lengths {
        if l as usize > MAX_BITS {
            return Err(Error::InvalidHuffman("code length exceeds 15"));
        }
        count[l as usize] += 1;
    }
    count[0] = 0;
    // Over-subscription: Σ count[l] · 2^(MAX−l) must not exceed 2^MAX.
    let mut left: i64 = 1;
    for &c in &count[1..=MAX_BITS] {
        left <<= 1;
        left -= c as i64;
        if left < 0 {
            return Err(Error::InvalidHuffman("oversubscribed code set"));
        }
    }
    let mut next_code = [0u16; MAX_BITS + 1];
    let mut code = 0u16;
    for bits in 1..=MAX_BITS {
        code = (code + count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    Ok(next_code)
}

/// Assigns canonical codes (already bit-reversed for LSB-first emission)
/// from code lengths.
fn assign_codes(lengths: &[u8]) -> Result<Vec<u16>> {
    let mut next_code = first_codes(lengths)?;
    let mut codes = vec![0u16; lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[sym] = reverse_bits(next_code[l as usize], l);
            next_code[l as usize] += 1;
        }
    }
    Ok(codes)
}

/// Reverses the low `len` bits of `code`.
#[inline]
fn reverse_bits(code: u16, len: u8) -> u16 {
    code.reverse_bits() >> (16 - len as u32)
}

/// Builds length-limited (≤ `max_bits`) Huffman code lengths for the given
/// symbol frequencies. Symbols with zero frequency get length 0.
///
/// Uses a binary-heap Huffman construction followed by the classic overflow
/// repair: codes deeper than the limit are raised to the limit and paid for
/// by deepening the shallowest leaves, preserving the Kraft sum.
pub fn build_lengths(freqs: &[u64], max_bits: usize) -> Vec<u8> {
    assert!(max_bits <= MAX_BITS);
    let n = freqs.len();
    let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    assert!(
        used.len() <= 1 << max_bits,
        "{} symbols cannot fit in {max_bits}-bit codes",
        used.len()
    );
    let mut lengths = vec![0u8; n];
    match used.len() {
        0 => return lengths,
        1 => {
            // DEFLATE requires at least a 1-bit code for a lone symbol.
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman over (freq, node). Internal nodes get indices >= n.
    #[derive(PartialEq, Eq)]
    struct Item {
        freq: u64,
        node: usize,
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap: reverse compare; tie-break on node id for
            // determinism.
            other.freq.cmp(&self.freq).then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::with_capacity(used.len());
    for &i in &used {
        heap.push(Item { freq: freqs[i], node: i });
    }
    // parent[k] for every node; leaves are 0..n, internals n..
    let mut parent = vec![usize::MAX; n + used.len()];
    let mut next_internal = n;
    // Two or more symbols are in use, so the heap holds a pair until the
    // last merge leaves the root as the newest internal node.
    while let (Some(a), Some(b)) = (heap.pop(), heap.pop()) {
        parent[a.node] = next_internal;
        parent[b.node] = next_internal;
        if heap.is_empty() {
            break;
        }
        heap.push(Item { freq: a.freq.saturating_add(b.freq), node: next_internal });
        next_internal += 1;
    }
    let root = next_internal;

    // Depth of each used leaf.
    let mut bl_count = vec![0u64; 64];
    let mut depths = vec![0u8; n];
    for &i in &used {
        let mut d = 0usize;
        let mut node = i;
        while node != root {
            node = parent[node];
            d += 1;
        }
        let d = d.max(1);
        depths[i] = d.min(63) as u8;
        bl_count[d.min(63)] += 1;
    }

    // Overflow repair if any depth exceeds max_bits.
    let overflow: u64 = bl_count[(max_bits + 1)..64.min(bl_count.len())].iter().sum();
    if overflow > 0 {
        // Move overflowed leaves to max_bits.
        let deep: u64 = bl_count[(max_bits + 1)..].iter().sum();
        bl_count[max_bits] += deep;
        bl_count[(max_bits + 1)..].fill(0);
        // Restore the Kraft equality with zlib's repair move: take one leaf
        // at the deepest level `bits < max_bits`, turn it into an internal
        // node whose children are that leaf and one leaf pulled up from
        // `max_bits`. Each move lowers the Kraft sum (in units of
        // 2^-max_bits) by exactly 1, so the loop lands on equality.
        let mut kraft: i64 = 0;
        for (d, &c) in bl_count.iter().enumerate().take(max_bits + 1).skip(1) {
            kraft += (c as i64) << (max_bits - d);
        }
        let capacity: i64 = 1i64 << max_bits;
        while kraft > capacity {
            let mut bits = max_bits - 1;
            while bl_count[bits] == 0 {
                bits -= 1;
            }
            debug_assert!(bl_count[max_bits] > 0, "repair needs a max-depth leaf");
            bl_count[bits] -= 1;
            bl_count[bits + 1] += 2;
            bl_count[max_bits] -= 1;
            kraft -= 1;
        }

        // Reassign depths: sort used symbols by (original depth, freq desc)
        // then deal lengths from shortest to longest.
        let mut order: Vec<usize> = used.clone();
        order.sort_by(|&a, &b| {
            depths[a]
                .cmp(&depths[b])
                .then(freqs[b].cmp(&freqs[a]))
                .then(a.cmp(&b))
        });
        let mut idx = 0;
        for (d, &c) in bl_count.iter().enumerate().take(max_bits + 1).skip(1) {
            for _ in 0..c {
                depths[order[idx]] = d as u8;
                idx += 1;
            }
        }
        debug_assert_eq!(idx, order.len());
    }

    for &i in &used {
        lengths[i] = depths[i];
    }
    lengths
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bits::BitReader;

    /// A decode table over plain symbols (the code-length alphabet maps a
    /// symbol to itself), at a chosen primary width.
    struct Decoder {
        table: Vec<u32>,
        primary_bits: u32,
    }

    impl Decoder {
        fn from_lengths(lengths: &[u8], primary_bits: u32) -> Result<Self> {
            let mut table = Vec::new();
            build_decode_table(lengths, primary_bits, Alphabet::CodeLength, &mut table)?;
            Ok(Decoder { table, primary_bits })
        }

        /// One symbol, resolved the way the inflate core does it.
        fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
            r.refill();
            let mut e = self.table[r.peek() as usize & ((1 << self.primary_bits) - 1)];
            let mut used = 0;
            if e & entry::SUBTABLE != 0 {
                used = entry::consumed(e);
                let sub = (r.peek() >> used) as usize & ((1 << entry::extra(e)) - 1);
                e = self.table[entry::value(e) as usize + sub];
            }
            if e & entry::LITERAL == 0 {
                return Err(Error::InvalidHuffman("code not in table"));
            }
            used += entry::consumed(e);
            if used > r.available() {
                return Err(Error::UnexpectedEof);
            }
            r.consume(used);
            Ok(entry::value(e) as u16)
        }
    }

    fn roundtrip(lengths: &[u8], stream: &[u16]) {
        let enc = Encoder::from_lengths(lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s as usize);
        }
        let bytes = w.into_bytes();
        // Every primary width from "everything is a sub-table" to "no
        // sub-tables at all" decodes the same symbols.
        for primary_bits in [1u32, 3, 7, 9, 10, 15] {
            let dec = Decoder::from_lengths(lengths, primary_bits).unwrap();
            let mut r = BitReader::new(&bytes);
            for &s in stream {
                assert_eq!(dec.decode(&mut r).unwrap(), s, "primary width {primary_bits}");
            }
        }
    }

    #[test]
    fn fixed_tree_roundtrip() {
        // Fixed literal/length lengths from RFC 1951.
        let mut lengths = vec![8u8; 288];
        lengths[144..256].iter_mut().for_each(|l| *l = 9);
        lengths[256..280].iter_mut().for_each(|l| *l = 7);
        let stream: Vec<u16> = vec![0, 143, 144, 255, 256, 279, 280, 287, 65, 66];
        roundtrip(&lengths, &stream);
    }

    #[test]
    fn canonical_code_assignment_matches_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
        // codes 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = Encoder::from_lengths(&lengths).unwrap();
        // Code for symbol F (index 5, length 2) is 00.
        let mut w = BitWriter::new();
        enc.encode(&mut w, 5);
        w.write_bits(0, 6); // pad
        assert_eq!(w.into_bytes()[0] & 0b11, 0b00);
        // Symbol H (index 7) -> 1111 (bit-reversed is also 1111).
        let mut w = BitWriter::new();
        enc.encode(&mut w, 7);
        w.write_bits(0, 4);
        assert_eq!(w.into_bytes()[0] & 0xF, 0xF);
    }

    #[test]
    fn build_lengths_prefers_frequent_symbols() {
        let freqs = [100u64, 1, 1, 1, 1, 1, 1, 1];
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths[0] < lengths[1]);
        // Kraft equality for a complete code.
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!((kraft - 1.0).abs() < 1e-9);
    }

    #[test]
    fn build_lengths_zero_and_single() {
        assert_eq!(build_lengths(&[0, 0, 0], 15), vec![0, 0, 0]);
        assert_eq!(build_lengths(&[0, 7, 0], 15), vec![0, 1, 0]);
    }

    #[test]
    fn length_limit_is_enforced() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        for limit in [7usize, 9, 15] {
            let lengths = build_lengths(&freqs, limit);
            assert!(lengths.iter().all(|&l| (l as usize) <= limit), "limit {limit}");
            // Kraft inequality must hold (complete or under-complete).
            let kraft: f64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
            assert!(kraft <= 1.0 + 1e-9, "kraft {kraft} at limit {limit}");
            // All non-zero frequencies must have codes.
            for (i, &f) in freqs.iter().enumerate() {
                assert_eq!(f > 0, lengths[i] > 0);
            }
        }
    }

    #[test]
    fn limited_lengths_still_roundtrip() {
        let mut freqs = vec![0u64; 30];
        let (mut a, mut b) = (1u64, 2u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_lengths(&freqs, 9);
        let stream: Vec<u16> = (0..30u16).chain((0..30u16).rev()).collect();
        roundtrip(&lengths, &stream);
    }

    #[test]
    fn oversubscribed_set_rejected() {
        // Five 2-bit codes cannot exist.
        assert!(Decoder::from_lengths(&[2, 2, 2, 2, 2], 9).is_err());
        assert!(Encoder::from_lengths(&[2, 2, 2, 2, 2]).is_err());
    }

    #[test]
    fn incomplete_set_accepted_for_decoder() {
        // One 1-bit code: valid (used by DEFLATE single-distance trees).
        let d = Decoder::from_lengths(&[1], 9).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        w.write_bits(0, 6);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(d.decode(&mut r).unwrap(), 0);
        // The other 1-bit pattern belongs to no symbol.
        assert!(d.decode(&mut r).is_err());
    }

    /// Short codes resolve in the primary table, long ones through a
    /// sub-table; a randomized stream mixing both decodes symbol for
    /// symbol at every primary width.
    #[test]
    fn sub_tables_agree_with_the_primary_table() {
        // A skewed tree that produces both short (<9) and long (>9) codes.
        let mut freqs = vec![0u64; 60];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths.contains(&15), "need 15-bit codes");
        assert!(lengths.iter().any(|&l| l > 0 && (l as u32) <= 9), "need short codes");
        let stream: Vec<u16> =
            (0..3000u32).map(|i| (i.wrapping_mul(2654435761) >> 16) as u16 % 60).collect();
        roundtrip(&lengths, &stream);
    }

    #[test]
    fn table_layout_has_one_sub_table_per_shared_prefix() {
        // Lengths 1, 2, 3, 3 with a 2-bit primary index: codes 0, 10, 110,
        // 111. The two 3-bit codes share the prefix 11 and one 2-entry
        // sub-table.
        let mut table = Vec::new();
        build_decode_table(&[1, 2, 3, 3], 2, Alphabet::CodeLength, &mut table).unwrap();
        assert_eq!(table.len(), 4 + 2);
        assert_eq!(table[0b00], entry::LITERAL | 1);
        assert_eq!(table[0b10], entry::LITERAL | 1);
        assert_eq!(table[0b01], 1 << 16 | entry::LITERAL | 2);
        assert_eq!(table[0b11], 4 << 16 | entry::SUBTABLE | 1 << 8 | 2);
        assert_eq!(table[4], 2 << 16 | entry::LITERAL | 1);
        assert_eq!(table[5], 3 << 16 | entry::LITERAL | 1);
        // Rebuilding into the same Vec starts from scratch.
        build_decode_table(&[1, 1], 2, Alphabet::CodeLength, &mut table).unwrap();
        assert_eq!(table, vec![entry::LITERAL | 1, 1 << 16 | entry::LITERAL | 1, entry::LITERAL | 1, 1 << 16 | entry::LITERAL | 1]);
    }

    #[test]
    fn alphabets_carry_bases_extra_bits_and_reserved_symbols() {
        let mut lit = vec![8u8; 288];
        lit[144..256].fill(9);
        lit[256..280].fill(7);
        let mut table = Vec::new();
        build_decode_table(&lit, 10, Alphabet::LitLen, &mut table).unwrap();
        assert_eq!(table.len(), 1 << 10, "9-bit codes need no sub-table");
        // End of block is seven zero bits.
        assert_eq!(table[0], entry::END_OF_BLOCK | 7);
        // Symbol 285 (length 258, no extra bits) is 1100_0101, 287 is
        // 1100_0111 and reserved; both are sent MSB-first.
        assert_eq!(table[0b1010_0011], 258 << 16 | 8);
        assert_eq!(table[0b1110_0011] & entry::INVALID, entry::INVALID);
        // Symbol 265 (length 11..12, one extra bit) is 7-bit code 000_1001.
        assert_eq!(table[0b100_1000], 11 << 16 | 1 << 8 | 7);

        build_decode_table(&[5u8; 32], 8, Alphabet::Distance, &mut table).unwrap();
        // Distance code 29 (11101 → reversed 10111): base 24577, 13 extra.
        assert_eq!(table[0b10111], 24577 << 16 | 13 << 8 | 5);
        // Codes 30 and 31 exist in the fixed code but are reserved.
        assert_eq!(table[0b01111] & entry::INVALID, entry::INVALID);
        assert_eq!(table[0b11111] & entry::INVALID, entry::INVALID);
    }

    #[test]
    fn stream_tail_resolves_short_codes_and_then_reports_eof() {
        // Near EOF fewer bits than the primary width remain; decoding must
        // still resolve short codes and error (not panic) past the end.
        let lengths = [2u8, 2, 2, 2];
        let enc = Encoder::from_lengths(&lengths).unwrap();
        let dec = Decoder::from_lengths(&lengths, 9).unwrap();
        let mut w = BitWriter::new();
        enc.encode(&mut w, 3); // 2 bits + 6 pad bits in one byte
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 3);
        // Remaining 6 zero-pad bits decode as symbol 0 three times, then EOF.
        for _ in 0..3 {
            assert_eq!(dec.decode(&mut r).unwrap(), 0);
        }
        assert!(matches!(dec.decode(&mut r), Err(Error::UnexpectedEof)));
    }

    #[test]
    fn encode_with_extra_is_encode_then_write_bits() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = Encoder::from_lengths(&lengths).unwrap();
        let (mut a, mut b) = (BitWriter::new(), BitWriter::new());
        for (sym, extra, bits) in [(6usize, 0x1ABCu32, 13u32), (5, 0, 0), (0, 1, 1), (7, 0x55, 7)] {
            enc.encode_with_extra(&mut a, sym, extra, bits);
            enc.encode(&mut b, sym);
            b.write_bits(extra, bits);
        }
        assert_eq!(a.into_bytes(), b.into_bytes());
    }
}
