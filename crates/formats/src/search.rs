//! Byte search a word at a time: the one forward `\n` / `\t` search of
//! the text input path (line splitting, SAM column splitting, partition
//! boundaries).
//!
//! SWAR ("SIMD within a register"): eight bytes are loaded as one
//! little-endian `u64`, XORed with the needle repeated in every byte, so
//! a matching byte becomes zero, and the classic has-zero mask
//! `(x - 0x01..01) & !x & 0x80..80` marks it. Borrows only propagate
//! upward from a byte that is already zero, so the mask's lowest set bit
//! is always the first match exactly; bits above it may be false
//! positives and are never read. Safe Rust, no platform intrinsics.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The index of the first `needle` in `haystack` — what
/// `haystack.iter().position(|&b| b == needle)` returns, eight bytes
/// per step.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let repeated = LO * u64::from(needle);
    let mut words = haystack.chunks_exact(8);
    let mut base = 0usize;
    for w in &mut words {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ repeated;
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            // The lowest marked byte; `trailing_zeros` of a non-zero
            // u64 is < 64, so the byte index is < 8.
            return Some(base + (zeros.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words.remainder().iter().position(|&b| b == needle).map(|i| base + i)
}
