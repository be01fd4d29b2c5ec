//! Hash-chain LZ77 match finder for the DEFLATE compressor.
//!
//! The matcher mirrors zlib's structure: a 3-byte rolling hash indexes the
//! most recent occurrence of each prefix, and per-position chain links walk
//! back through earlier occurrences inside the 32 KiB window.

/// DEFLATE window size.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum encodable match length.
pub const MIN_MATCH: usize = 3;
/// Maximum encodable match length.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// A single LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference `(length, distance)`.
    Match { len: u16, dist: u16 },
}

/// Tunables controlling effort spent searching for matches.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Maximum chain positions examined per match attempt.
    pub max_chain: usize,
    /// Stop searching early once a match at least this long is found.
    pub good_enough: usize,
    /// Enable one-byte lazy matching (defer emitting a match if the next
    /// position yields a strictly longer one).
    pub lazy: bool,
}

impl MatchParams {
    /// Parameters roughly corresponding to a zlib compression level.
    pub fn for_level(level: u8) -> Self {
        match level {
            0 | 1 => MatchParams { max_chain: 4, good_enough: 8, lazy: false },
            2 | 3 => MatchParams { max_chain: 16, good_enough: 16, lazy: false },
            4 | 5 => MatchParams { max_chain: 32, good_enough: 32, lazy: true },
            6 => MatchParams { max_chain: 128, good_enough: 64, lazy: true },
            7 | 8 => MatchParams { max_chain: 512, good_enough: 128, lazy: true },
            _ => MatchParams { max_chain: 4096, good_enough: MAX_MATCH, lazy: true },
        }
    }
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
}

/// Length of the common prefix of `a` and `b`, at most `b.len()`, eight
/// bytes per step. `a` must be at least as long as `b`.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let a = &a[..b.len()];
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let (mut wx, mut wy) = ([0u8; 8], [0u8; 8]);
        wx.copy_from_slice(x);
        wy.copy_from_slice(y);
        let diff = u64::from_le_bytes(wx) ^ u64::from_le_bytes(wy);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < b.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Hash-chain matcher over one input buffer.
pub struct Matcher<'a> {
    data: &'a [u8],
    head: Vec<i32>,
    prev: Vec<i32>,
    params: MatchParams,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher for `data`.
    pub fn new(data: &'a [u8], params: MatchParams) -> Self {
        Matcher { data, head: vec![-1; HASH_SIZE], prev: vec![-1; data.len()], params }
    }

    /// Inserts position `i` into the hash chains.
    #[inline]
    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH <= self.data.len() {
            let h = hash3(self.data, i);
            self.prev[i] = self.head[h];
            self.head[h] = i as i32;
        }
    }

    /// Walks the chain of position `i` for the first candidate of each
    /// strictly increasing length above `floor`, and returns the last one
    /// found as `(length, distance)`. With `floor = MIN_MATCH - 1` that is
    /// the longest match; a higher floor answers "is there anything longer
    /// than what I already hold" and visits the same candidates in the
    /// same order, so it ends on the same match whenever one exists.
    fn longest_match(&self, i: usize, floor: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = MAX_MATCH.min(data.len() - i);
        if floor >= max_len {
            return None;
        }
        let target = &data[i..i + max_len];
        let window_floor = i.saturating_sub(WINDOW_SIZE);
        let mut cand = self.head[hash3(data, i)];
        let mut best_len = floor;
        let mut best_dist = 0usize;
        let mut chain = self.params.max_chain;
        while cand >= 0 && (cand as usize) >= window_floor && chain > 0 {
            let c = cand as usize;
            debug_assert!(c < i);
            // Anything longer than the best so far agrees with the target
            // at offset `best_len` (< max_len, or the search had stopped).
            if data[c + best_len] == target[best_len] {
                let l = common_prefix(&data[c..], target);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= self.params.good_enough || l == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            chain -= 1;
        }
        (best_dist != 0).then_some((best_len, best_dist))
    }

    /// Tokenizes the whole buffer, invoking `sink` for every token.
    pub fn tokenize(mut self, mut sink: impl FnMut(Token)) {
        let data = self.data;
        let n = data.len();
        let lazy = self.params.lazy;
        let good_enough = self.params.good_enough;
        let mut i = 0usize;
        // The look-ahead of a deferred match is the search the next
        // iteration would run (nothing is inserted in between).
        let mut carried: Option<(usize, usize)> = None;
        while i < n {
            let cur = carried.take().or_else(|| self.longest_match(i, MIN_MATCH - 1));
            let Some((len, dist)) = cur else {
                sink(Token::Literal(data[i]));
                self.insert(i);
                i += 1;
                continue;
            };
            self.insert(i);
            // Lazy evaluation: if the next position has a strictly longer
            // match, emit this byte as a literal instead.
            if lazy && len < good_enough && i + 1 < n {
                if let Some(next) = self.longest_match(i + 1, len) {
                    sink(Token::Literal(data[i]));
                    i += 1;
                    carried = Some(next);
                    continue;
                }
            }
            sink(Token::Match { len: len as u16, dist: dist as u16 });
            for k in (i + 1)..(i + len) {
                self.insert(k);
            }
            i += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(data: &[u8], tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for &t in tokens {
            match t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let start = out.len() - dist as usize;
                    for k in 0..len as usize {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    fn tokens_for(data: &[u8], level: u8) -> Vec<Token> {
        let mut toks = Vec::new();
        Matcher::new(data, MatchParams::for_level(level)).tokenize(|t| toks.push(t));
        toks
    }

    #[test]
    fn roundtrip_all_levels() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("record-{}\tfield\n", i % 97).as_bytes());
        }
        for level in [1u8, 3, 6, 9] {
            let toks = tokens_for(&data, level);
            assert_eq!(reconstruct(&data, &toks), data, "level {level}");
        }
    }

    #[test]
    fn repetitive_input_compresses() {
        let data = vec![b'x'; 1000];
        let toks = tokens_for(&data, 6);
        assert!(toks.len() < 20, "expected few tokens, got {}", toks.len());
        assert_eq!(reconstruct(&data, &toks), data);
    }

    #[test]
    fn incompressible_input_is_all_literals() {
        // A de Bruijn-ish byte sequence with no 3-byte repeats in-window.
        let data: Vec<u8> = (0..600u32)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8 ^ (i as u8))
            .collect();
        let toks = tokens_for(&data, 6);
        assert_eq!(reconstruct(&data, &toks), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(tokens_for(b"", 6).is_empty());
        assert_eq!(tokens_for(b"a", 6), vec![Token::Literal(b'a')]);
        assert_eq!(
            tokens_for(b"ab", 6),
            vec![Token::Literal(b'a'), Token::Literal(b'b')]
        );
    }

    #[test]
    fn match_lengths_within_bounds() {
        let data = vec![b'q'; 5000];
        for t in tokens_for(&data, 9) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!((dist as usize) <= WINDOW_SIZE);
            }
        }
    }
}
