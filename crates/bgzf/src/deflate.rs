//! DEFLATE compression (RFC 1951): stored, fixed-Huffman, and
//! dynamic-Huffman block emission over the hash-chain LZ77 tokenizer.
//!
//! The encoder prices what it emits (DESIGN.md §15). Every block is the
//! cheapest, by exact bit cost, of four candidates: LZ77 + dynamic
//! Huffman, LZ77 + fixed Huffman, stored, and *literal-only* dynamic
//! Huffman (a code over the byte histogram, no matches). On inputs of
//! [`SAMPLE_MIN_INPUT`] bytes or more the match search itself is skipped
//! when a [`SAMPLE_LEN`]-byte prefix says it cannot pay. Both choices
//! are functions of the input bytes alone, so output is deterministic.

use std::sync::OnceLock;

use crate::bits::BitWriter;
use crate::huffman::{build_lengths, Encoder};
use crate::inflate::{
    fixed_dist_lengths, fixed_lit_lengths, CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA,
};
use crate::lz77::{MatchParams, Matcher, Token, MAX_MATCH, MIN_MATCH};

/// Block-strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uncompressed stored blocks (level 0).
    Stored,
    /// LZ77 + the fixed Huffman tables.
    Fixed,
    /// The cheapest, per block, of {LZ77 + dynamic tables, LZ77 + fixed
    /// tables, literal-only dynamic tables, stored}.
    Dynamic,
}

/// Compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Block strategy.
    pub strategy: Strategy,
    /// Match-finder effort, zlib-style 0..=9.
    pub level: u8,
}

impl Default for Options {
    fn default() -> Self {
        Options { strategy: Strategy::Dynamic, level: 6 }
    }
}

impl Options {
    /// Maps a zlib-style level to options (0 = stored).
    pub fn from_level(level: u8) -> Self {
        if level == 0 {
            Options { strategy: Strategy::Stored, level: 0 }
        } else {
            Options { strategy: Strategy::Dynamic, level: level.min(9) }
        }
    }
}

/// Inputs at least this long are sampled before the match search runs.
const SAMPLE_MIN_INPUT: usize = 8 * 1024;
/// Length of the sampled prefix.
const SAMPLE_LEN: usize = 4 * 1024;

/// Compresses `input` into a standalone DEFLATE stream.
pub fn deflate(input: &[u8], opts: Options) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(input.len() / 2 + 64);
    deflate_into(&mut w, input, opts);
    w.into_bytes()
}

/// Compresses `input`, appending the stream to `w`. Emits exactly one
/// logical stream (BFINAL set on the last block).
pub fn deflate_into(w: &mut BitWriter, input: &[u8], opts: Options) {
    match opts.strategy {
        Strategy::Stored => emit_stored_stream(w, input),
        Strategy::Fixed => {
            let parse = Parse::of(input, opts.level);
            emit_fixed_block(w, &parse.tokens);
        }
        Strategy::Dynamic => {
            if matches_pay(input, opts.level) {
                emit_best_block(w, input, &Parse::of(input, opts.level));
            } else {
                let literal = LiteralOnly::of(input);
                if stored_cost(input.len()) < literal.cost() {
                    emit_stored_stream(w, input);
                } else {
                    literal.emit(w, input);
                }
            }
        }
    }
}

/// Code index (0..=28, i.e. symbol − 257) for each match length − 3.
const LENGTH_SYM: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut code = 0;
    while code < 29 {
        let hi = if code == 28 { 258 } else { LENGTH_BASE[code + 1] as usize - 1 };
        let mut len = LENGTH_BASE[code] as usize;
        while len <= hi {
            t[len - MIN_MATCH] = code as u8;
            len += 1;
        }
        code += 1;
    }
    t
};

/// Distance code for each distance, zlib-style: distances 1..=256 index
/// the first half by `dist − 1`, longer ones the second half by
/// `(dist − 1) >> 7` (every code from 16 up spans whole 128-blocks).
const DIST_SYM: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut code = 0;
    while code < 30 {
        let hi = if code == 29 { 32768 } else { DIST_BASE[code + 1] as usize - 1 };
        let mut dist = DIST_BASE[code] as usize;
        while dist <= hi {
            if dist <= 256 {
                t[dist - 1] = code as u8;
            } else {
                t[256 + ((dist - 1) >> 7)] = code as u8;
            }
            dist += 1;
        }
        code += 1;
    }
    t
};

/// Length code (257..=285) and extra-bit payload for a match length.
#[inline]
fn length_code(len: usize) -> (usize, u32, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let code = LENGTH_SYM[len - MIN_MATCH] as usize;
    (257 + code, (len - LENGTH_BASE[code] as usize) as u32, LENGTH_EXTRA[code] as u32)
}

/// Distance code (0..=29) and extra-bit payload for a match distance.
#[inline]
fn distance_code(dist: usize) -> (usize, u32, u32) {
    debug_assert!((1..=32768).contains(&dist));
    let code =
        if dist <= 256 { DIST_SYM[dist - 1] } else { DIST_SYM[256 + ((dist - 1) >> 7)] } as usize;
    (code, (dist - DIST_BASE[code] as usize) as u32, DIST_EXTRA[code] as u32)
}

/// An LZ77 parse with the symbol histograms gathered while tokenising.
struct Parse {
    tokens: Vec<Token>,
    /// Literal/length symbol counts, end-of-block included.
    lit_freq: [u64; 286],
    dist_freq: [u64; 30],
}

impl Parse {
    fn of(input: &[u8], level: u8) -> Parse {
        let mut tokens = Vec::with_capacity(input.len() / 3 + 16);
        let mut lit_freq = [0u64; 286];
        let mut dist_freq = [0u64; 30];
        Matcher::new(input, MatchParams::for_level(level)).tokenize(|t| {
            match t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[length_code(len as usize).0] += 1;
                    dist_freq[distance_code(dist as usize).0] += 1;
                }
            }
            tokens.push(t);
        });
        lit_freq[256] += 1; // end of block
        Parse { tokens, lit_freq, dist_freq }
    }

    fn has_matches(&self) -> bool {
        self.dist_freq.iter().any(|&f| f > 0)
    }
}

/// Bits a block body takes under the given code lengths: Σ frequency ×
/// (code length + extra bits) over both alphabets.
fn body_cost(lit_freq: &[u64], dist_freq: &[u64], lit_lengths: &[u8], dist_lengths: &[u8]) -> usize {
    let mut bits = 0u64;
    for (sym, &f) in lit_freq.iter().enumerate() {
        let extra = if sym > 256 { LENGTH_EXTRA[sym - 257] } else { 0 };
        bits += f * (lit_lengths[sym] + extra) as u64;
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        bits += f * (dist_lengths[sym] + DIST_EXTRA[sym]) as u64;
    }
    bits as usize
}

/// Optimal (length-limited) code lengths for a block's histograms. A
/// dynamic header must declare ≥1 distance code even if none is used.
fn optimal_lengths(lit_freq: &[u64], dist_freq: &[u64]) -> (Vec<u8>, Vec<u8>) {
    let lit_lengths = build_lengths(lit_freq, 15);
    let mut dist_lengths = build_lengths(dist_freq, 15);
    if dist_lengths.iter().all(|&l| l == 0) {
        dist_lengths[0] = 1;
    }
    debug_assert!(lit_lengths[256] > 0, "histograms count the end-of-block symbol");
    (lit_lengths, dist_lengths)
}

/// Stored: 3 bits + padding + 4 header bytes per 65535 chunk + payload.
fn stored_cost(len: usize) -> usize {
    8 * (len + 5 * (len / 65535 + 1)) + 3
}

/// The prefix-sample rule: `false` when a match search over `input`
/// cannot be expected to pay. Inputs shorter than [`SAMPLE_MIN_INPUT`]
/// always get the full search; longer ones are judged by tokenising
/// their first [`SAMPLE_LEN`] bytes at the requested level and comparing
/// that parse's body cost, under its own optimal code, with the
/// literal-only cost of the same bytes.
fn matches_pay(input: &[u8], level: u8) -> bool {
    if input.len() < SAMPLE_MIN_INPUT {
        return true;
    }
    let sample = &input[..SAMPLE_LEN];
    let parse = Parse::of(sample, level);
    let (lit_lengths, dist_lengths) = optimal_lengths(&parse.lit_freq, &parse.dist_freq);
    let lz_cost = body_cost(&parse.lit_freq, &parse.dist_freq, &lit_lengths, &dist_lengths);
    lz_cost < LiteralOnly::of(sample).body_cost
}

/// Literal/length histogram of coding `input` with no matches at all.
fn byte_histogram(input: &[u8]) -> [u64; 286] {
    let mut freq = [0u64; 286];
    for &b in input {
        freq[b as usize] += 1;
    }
    freq[256] = 1; // end of block
    freq
}

/// The literal-only dynamic candidate for a whole input.
struct LiteralOnly {
    lit_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    /// Bits of the block body (every byte's code and end-of-block).
    body_cost: usize,
}

impl LiteralOnly {
    fn of(input: &[u8]) -> LiteralOnly {
        let freq = byte_histogram(input);
        let (lit_lengths, dist_lengths) = optimal_lengths(&freq, &[0; 30]);
        let body_cost = body_cost(&freq, &[0; 30], &lit_lengths, &dist_lengths);
        LiteralOnly { lit_lengths, dist_lengths, body_cost }
    }

    /// Exact cost in bits, header included.
    fn cost(&self) -> usize {
        dynamic_header_cost(&self.lit_lengths, &self.dist_lengths) + self.body_cost
    }

    fn emit(&self, w: &mut BitWriter, input: &[u8]) {
        let lit = emit_dynamic_header(w, &self.lit_lengths, &self.dist_lengths).0;
        for &b in input {
            lit.encode(w, b as usize);
        }
        lit.encode(w, 256);
    }
}

/// Splits `input` into ≤65535-byte stored blocks.
fn emit_stored_stream(w: &mut BitWriter, input: &[u8]) {
    let chunks: Vec<&[u8]> = if input.is_empty() {
        vec![&[][..]]
    } else {
        input.chunks(65535).collect()
    };
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.write_bits((i == last) as u32, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        let len = chunk.len() as u32;
        w.write_bits(len & 0xFFFF, 16);
        w.write_bits(!len & 0xFFFF, 16);
        w.write_aligned_bytes(chunk);
    }
}

fn emit_tokens(w: &mut BitWriter, tokens: &[Token], lit: &Encoder, dist: &Encoder) {
    for &t in tokens {
        match t {
            Token::Literal(b) => lit.encode(w, b as usize),
            Token::Match { len, dist: d } => {
                let (lc, lv, lb) = length_code(len as usize);
                lit.encode_with_extra(w, lc, lv, lb);
                let (dc, dv, db) = distance_code(d as usize);
                dist.encode_with_extra(w, dc, dv, db);
            }
        }
    }
    lit.encode(w, 256);
}

/// The fixed literal/length and distance encoders, built once.
fn fixed_encoders() -> &'static (Encoder, Encoder) {
    static FIXED: OnceLock<(Encoder, Encoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        (
            Encoder::from_lengths(&fixed_lit_lengths()).expect("fixed tables are valid"),
            Encoder::from_lengths(&fixed_dist_lengths()).expect("fixed tables are valid"),
        )
    })
}

/// Emits `tokens` as one final fixed-Huffman block.
fn emit_fixed_block(w: &mut BitWriter, tokens: &[Token]) {
    let (lit, dist) = fixed_encoders();
    w.write_bits(1, 1);
    w.write_bits(0b01, 2);
    emit_tokens(w, tokens, lit, dist);
}

/// Run-length encodes a lengths array into code-length-code symbols, as
/// `(symbol, extra_value, extra_bits)` triples.
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let v = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut rem = run;
            while rem >= 11 {
                let take = rem.min(138);
                out.push((18, (take - 11) as u32, 7));
                rem -= take;
            }
            if rem >= 3 {
                out.push((17, (rem - 3) as u32, 3));
                rem = 0;
            }
            for _ in 0..rem {
                out.push((0, 0, 0));
            }
        } else {
            out.push((v, 0, 0));
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                out.push((16, (take - 3) as u32, 2));
                rem -= take;
            }
            for _ in 0..rem {
                out.push((v, 0, 0));
            }
        }
        i += run;
    }
    out
}

/// Code lengths of the code-length code for a run-length-encoded header.
fn clc_lengths_for(rle: &[(u8, u32, u32)]) -> Vec<u8> {
    let mut clc_freq = [0u64; 19];
    for &(sym, _, _) in rle {
        clc_freq[sym as usize] += 1;
    }
    build_lengths(&clc_freq, 7)
}

/// Header cost (bits) the block chooser charges a dynamic block: every
/// code-length-code length sent and the full 286 + 30 lengths run-length
/// coded. The emitted header trims trailing zeros and so never costs
/// more.
fn dynamic_header_cost(lit_lengths: &[u8], dist_lengths: &[u8]) -> usize {
    let mut all = Vec::with_capacity(lit_lengths.len() + dist_lengths.len());
    all.extend_from_slice(lit_lengths);
    all.extend_from_slice(dist_lengths);
    let rle = rle_code_lengths(&all);
    let clc_lengths = clc_lengths_for(&rle);
    17 + 19 * 3
        + rle
            .iter()
            .map(|&(sym, _, bits)| clc_lengths[sym as usize] as usize + bits as usize)
            .sum::<usize>()
}

/// Writes the header of a final dynamic block and returns the
/// (literal/length, distance) encoders for its body.
fn emit_dynamic_header(
    w: &mut BitWriter,
    lit_lengths: &[u8],
    dist_lengths: &[u8],
) -> (Encoder, Encoder) {
    // DEFLATE requires at least one distance code length slot and at least
    // the end-of-block literal.
    let hlit = {
        let mut n = 286;
        while n > 257 && lit_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };
    let hdist = {
        let mut n = 30;
        while n > 1 && dist_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };

    let mut all = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lengths[..hlit]);
    all.extend_from_slice(&dist_lengths[..hdist]);
    let rle = rle_code_lengths(&all);
    let clc_lengths = clc_lengths_for(&rle);
    let clc_enc = Encoder::from_lengths(&clc_lengths).expect("clc lengths valid");

    let hclen = {
        let mut n = 19;
        while n > 4 && clc_lengths[CLC_ORDER[n - 1]] == 0 {
            n -= 1;
        }
        n
    };

    w.write_bits(1, 1);
    w.write_bits(0b10, 2);
    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &idx in CLC_ORDER.iter().take(hclen) {
        w.write_bits(clc_lengths[idx] as u32, 3);
    }
    for &(sym, val, bits) in &rle {
        clc_enc.encode_with_extra(w, sym as usize, val, bits);
    }

    (
        Encoder::from_lengths(lit_lengths).expect("lit lengths valid"),
        Encoder::from_lengths(dist_lengths).expect("dist lengths valid"),
    )
}

/// Emits the whole input as one final block: the cheapest of LZ77 +
/// dynamic, LZ77 + fixed, stored, and literal-only dynamic.
fn emit_best_block(w: &mut BitWriter, input: &[u8], parse: &Parse) {
    let (lit_lengths, dist_lengths) = optimal_lengths(&parse.lit_freq, &parse.dist_freq);
    let dyn_cost = dynamic_header_cost(&lit_lengths, &dist_lengths)
        + body_cost(&parse.lit_freq, &parse.dist_freq, &lit_lengths, &dist_lengths);
    let fixed_cost = 3 + body_cost(
        &parse.lit_freq,
        &parse.dist_freq,
        &fixed_lit_lengths(),
        &fixed_dist_lengths(),
    );
    let stored_cost = stored_cost(input.len());
    let best_lz = dyn_cost.min(fixed_cost).min(stored_cost);
    // A parse without matches *is* the literal-only candidate.
    if parse.has_matches() {
        let literal = LiteralOnly::of(input);
        if literal.cost() < best_lz {
            return literal.emit(w, input);
        }
    }

    if stored_cost < dyn_cost && stored_cost < fixed_cost {
        emit_stored_stream(w, input);
    } else if fixed_cost <= dyn_cost {
        emit_fixed_block(w, &parse.tokens);
    } else {
        let (lit, dist) = emit_dynamic_header(w, &lit_lengths, &dist_lengths);
        emit_tokens(w, &parse.tokens, &lit, &dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8], opts: Options) {
        let compressed = deflate(data, opts);
        let decompressed = inflate(&compressed, data.len()).unwrap();
        assert_eq!(decompressed, data, "opts {opts:?}");
    }

    #[test]
    fn roundtrip_empty() {
        for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            roundtrip(b"", Options { strategy: s, level: 6 });
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"SRR001\t99\tchr1\t12345\t60\t90M\t=\t12500\t245\tACGT\n".repeat(500);
        for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            roundtrip(&data, Options { strategy: s, level: 6 });
        }
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        roundtrip(&data, Options::default());
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        for level in 0..=9u8 {
            roundtrip(&data, Options::from_level(level));
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = vec![b'A'; 100_000];
        let out = deflate(&data, Options::default());
        assert!(out.len() < 1000, "len {} too big", out.len());
    }

    #[test]
    fn dynamic_beats_fixed_on_skewed_text() {
        let data = b"aaaaaaaaaabbbbbcccc".repeat(1000);
        let dynamic = deflate(&data, Options { strategy: Strategy::Dynamic, level: 6 });
        let fixed = deflate(&data, Options { strategy: Strategy::Fixed, level: 6 });
        assert!(dynamic.len() <= fixed.len());
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3).0, 257);
        assert_eq!(length_code(10).0, 264);
        assert_eq!(length_code(11).0, 265);
        assert_eq!(length_code(257).0, 284);
        assert_eq!(length_code(258).0, 285);
        // Round-trip every legal length through code + extra.
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, _bits) = length_code(len);
            let rebuilt = LENGTH_BASE[code - 257] as usize + extra as usize;
            assert_eq!(rebuilt, len);
        }
    }

    #[test]
    fn distance_code_boundaries() {
        for dist in 1..=32768usize {
            let (code, extra, _bits) = distance_code(dist);
            let rebuilt = DIST_BASE[code] as usize + extra as usize;
            assert_eq!(rebuilt, dist, "dist {dist}");
        }
    }

    #[test]
    fn stored_large_input_multi_chunk() {
        let data = vec![7u8; 70_000];
        let out = deflate(&data, Options { strategy: Strategy::Stored, level: 0 });
        assert_eq!(inflate(&out, data.len()).unwrap(), data);
    }

    #[test]
    fn single_distinct_byte_input() {
        roundtrip(b"z", Options::default());
    }
}
