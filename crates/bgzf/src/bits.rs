//! LSB-first bit-level I/O used by the DEFLATE codec (RFC 1951 packs bits
//! starting from the least significant bit of each byte).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{Error, Result};

/// Reads bits LSB-first from a byte slice through a 64-bit buffer.
///
/// The low `nbits` bits of the buffer are *counted*: they came from bytes
/// before `pos`. Bits above them are either zero or a preview of the
/// bytes at `pos` onward (a word-wide refill ORs in more than it counts),
/// so peeking past `nbits` sees real upcoming data or zero padding, never
/// garbage, and a later refill ORs the same values over the preview.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to refill from.
    pos: usize,
    /// Bit buffer; bits are consumed from the low end.
    acc: u64,
    /// Number of counted bits in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// True while a whole 8-byte word is left to refill from, i.e. while
    /// [`Self::refill_word`] may be called.
    #[inline(always)]
    pub fn has_word(&self) -> bool {
        self.data.len() - self.pos >= 8
    }

    /// One 64-bit load: tops the buffer up to 56..=63 counted bits.
    /// Requires [`Self::has_word`].
    #[inline(always)]
    pub fn refill_word(&mut self) {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.data[self.pos..self.pos + 8]);
        self.acc |= u64::from_le_bytes(word) << self.nbits;
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
    }

    /// Tops the buffer up as far as the input allows: to at least 56
    /// counted bits, or to everything that is left.
    #[inline]
    pub fn refill(&mut self) {
        if self.has_word() {
            self.refill_word();
            return;
        }
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// The bit buffer; its low [`Self::available`] bits are counted, the
    /// rest is a preview or zero.
    #[inline(always)]
    pub fn peek(&self) -> u64 {
        self.acc
    }

    /// Number of counted bits in the buffer.
    #[inline(always)]
    pub fn available(&self) -> u32 {
        self.nbits
    }

    /// Drops `n` counted bits (`n` ≤ [`Self::available`]).
    #[inline(always)]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n, "consume past counted bits");
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Takes `n` bits (0..=32) the caller knows are counted.
    #[inline(always)]
    pub fn take(&mut self, n: u32) -> u32 {
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        v
    }

    /// Reads `n` bits (0..=32), returning them in the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(Error::UnexpectedEof);
            }
        }
        Ok(self.take(n))
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32> {
        self.read_bits(1)
    }

    /// Discards bits up to the next byte boundary of the input and hands
    /// every whole buffered byte back to it, leaving the buffer empty.
    pub fn align_to_byte(&mut self) {
        self.pos -= (self.nbits / 8) as usize;
        self.acc = 0;
        self.nbits = 0;
    }

    /// Takes the next `len` bytes of the input as a slice. Must follow
    /// [`Self::align_to_byte`].
    pub fn take_aligned(&mut self, len: usize) -> Result<&'a [u8]> {
        debug_assert_eq!(self.nbits, 0, "reader must be byte-aligned");
        let data: &'a [u8] = self.data;
        let bytes = data.get(self.pos..).and_then(|rest| rest.get(..len)).ok_or(Error::UnexpectedEof)?;
        self.pos += len;
        Ok(bytes)
    }

    /// Number of input bytes the bits consumed so far reach into: whole
    /// buffered bytes do not count, a partly consumed byte does.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.nbits as usize) / 8
    }
}

/// Writes bits LSB-first into an owned byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    /// Bits pending in `acc`; below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved output capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BitWriter { out: Vec::with_capacity(cap), acc: 0, nbits: 0 }
    }

    /// Writes the low `n` bits of `v` (LSB-first), `n <= 32`. Output
    /// leaves the accumulator a whole 32-bit word at a time.
    #[inline]
    pub fn write_bits(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || (v as u64) < (1u64 << n), "value {v} wider than {n} bits");
        self.acc |= (v as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        while self.nbits > 0 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
    }

    /// Appends raw bytes; the writer must be byte-aligned.
    pub fn write_aligned_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "writer must be byte-aligned");
        self.out.extend_from_slice(bytes);
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let fields: &[(u32, u32)] = &[
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xFF, 8),
            (0x1234, 16),
            (0, 7),
            (0x0FFF_FFFF, 28),
            (1, 1),
        ];
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "field {v}:{n}");
        }
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        // 0b1 then 0b01 then 0b10010 => byte = 10010_01_1 = 0x93.
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        w.write_bits(0b10010, 5);
        assert_eq!(w.into_bytes(), vec![0x93]);
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn align_and_aligned_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_to_byte();
        w.write_aligned_bytes(b"xyz");
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x03, b'x', b'y', b'z']);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_to_byte();
        assert_eq!(r.take_aligned(3).unwrap(), b"xyz");
        assert!(r.take_aligned(1).is_err());
    }

    #[test]
    fn aligned_bytes_partially_buffered() {
        // Force bytes into the accumulator before asking for aligned reads.
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let mut r = BitReader::new(&data);
        assert_eq!(r.read_bits(8).unwrap(), 1);
        r.align_to_byte();
        assert_eq!(r.take_aligned(9).unwrap(), &data[1..]);
    }

    #[test]
    fn thirty_two_bit_write() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0xF00D_CAFE, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(32).unwrap(), 0xF00D_CAFE);
    }
}
