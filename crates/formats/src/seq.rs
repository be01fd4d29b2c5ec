//! Nucleotide sequence helpers: BAM 4-bit packing and reverse complement.

use crate::error::{Error, Result};

/// BAM 4-bit base codes, indexed by code: `=ACMGRSVTWYHKDBN`.
pub const CODE_TO_BASE: [u8; 16] = [
    b'=', b'A', b'C', b'M', b'G', b'R', b'S', b'V', b'T', b'W', b'Y', b'H', b'K', b'D', b'B',
    b'N',
];

/// [`CODE_TO_BASE`] inverted over every byte, either case; anything else
/// is `N` (15).
const BASE_TO_CODE: [u8; 256] = {
    let mut table = [15u8; 256];
    let mut code = 0;
    while code < 16 {
        let base = CODE_TO_BASE[code];
        table[base as usize] = code as u8;
        table[base.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// Maps an ASCII base to its BAM 4-bit code (case-insensitive; unknown
/// characters map to `N`).
#[inline]
pub fn base_to_code(base: u8) -> u8 {
    BASE_TO_CODE[base as usize]
}

/// Packs ASCII bases into BAM nybbles (two bases per byte, high nybble
/// first; odd-length sequences pad the final low nybble with zero).
pub fn pack(bases: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bases.len().div_ceil(2));
    pack_into(bases, &mut out);
    out
}

/// [`pack`], appending to `out`.
pub fn pack_into(bases: &[u8], out: &mut Vec<u8>) {
    let pairs = bases.chunks_exact(2);
    let odd = pairs.remainder().first().copied();
    out.extend(pairs.map(|p| base_to_code(p[0]) << 4 | base_to_code(p[1])));
    if let Some(base) = odd {
        out.push(base_to_code(base) << 4);
    }
}

/// Both bases of every packed byte, high nibble first: unpacking looks
/// up two bases at a time.
const BASE_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [CODE_TO_BASE[byte >> 4], CODE_TO_BASE[byte & 0xF]];
        byte += 1;
    }
    table
};

/// Unpacks `len` bases from BAM nybbles.
pub fn unpack(packed: &[u8], len: usize) -> Result<Vec<u8>> {
    if packed.len() < len.div_ceil(2) {
        return Err(Error::InvalidBam("packed sequence shorter than l_seq".into()));
    }
    let mut out = Vec::with_capacity(len);
    unpack_into(packed, len, &mut out);
    Ok(out)
}

/// Appends the first `len` bases of `packed` to `out`, two per table
/// lookup; bases past the end of `packed` are not written.
pub fn unpack_into(packed: &[u8], len: usize, out: &mut Vec<u8>) {
    let whole = packed.get(..len / 2).unwrap_or(packed);
    out.reserve(len);
    for &byte in whole {
        out.extend_from_slice(&BASE_PAIRS[usize::from(byte)]);
    }
    if len % 2 == 1 {
        if let Some(&byte) = packed.get(len / 2) {
            out.push(CODE_TO_BASE[usize::from(byte >> 4)]);
        }
    }
}

/// The complement of every byte: IUPAC bases swap (case kept for ACGT,
/// `U` → `A`), everything else maps to itself.
const COMPLEMENT: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as u8;
        b += 1;
    }
    let pairs: [(u8, u8); 19] = [
        (b'A', b'T'),
        (b'T', b'A'),
        (b'C', b'G'),
        (b'G', b'C'),
        (b'a', b't'),
        (b't', b'a'),
        (b'c', b'g'),
        (b'g', b'c'),
        (b'U', b'A'),
        (b'M', b'K'),
        (b'K', b'M'),
        (b'R', b'Y'),
        (b'Y', b'R'),
        (b'W', b'W'),
        (b'S', b'S'),
        (b'V', b'B'),
        (b'B', b'V'),
        (b'H', b'D'),
        (b'D', b'H'),
    ];
    let mut i = 0;
    while i < pairs.len() {
        table[pairs[i].0 as usize] = pairs[i].1;
        i += 1;
    }
    table
};

/// Complement of one IUPAC base (case preserved for ACGT, others best
/// effort; unknown characters pass through).
#[inline]
pub fn complement(base: u8) -> u8 {
    COMPLEMENT[usize::from(base)]
}

/// Reverse complement, allocating a new buffer.
pub fn reverse_complement(bases: &[u8]) -> Vec<u8> {
    bases.iter().rev().map(|&b| complement(b)).collect()
}

/// Reverse complement in place.
pub fn reverse_complement_in_place(bases: &mut [u8]) {
    bases.reverse();
    for b in bases.iter_mut() {
        *b = COMPLEMENT[usize::from(*b)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for seq in [&b"ACGT"[..], b"ACGTN", b"A", b"", b"NNNNNNN", b"ACMGRSVTWYHKDBN="] {
            let packed = pack(seq);
            let unpacked = unpack(&packed, seq.len()).unwrap();
            assert_eq!(unpacked, seq.to_ascii_uppercase(), "seq {seq:?}");
        }
    }

    #[test]
    fn lowercase_normalized() {
        let packed = pack(b"acgt");
        assert_eq!(unpack(&packed, 4).unwrap(), b"ACGT");
    }

    #[test]
    fn unknown_becomes_n() {
        let packed = pack(b"AXZ");
        assert_eq!(unpack(&packed, 3).unwrap(), b"ANN");
    }

    #[test]
    fn odd_length_padding() {
        let packed = pack(b"ACG");
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[1] & 0xF, 0, "pad nybble must be zero");
    }

    #[test]
    fn unpack_length_check() {
        assert!(unpack(&[0x12], 3).is_err());
        assert!(unpack(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn revcomp_basic() {
        assert_eq!(reverse_complement(b"ACGT"), b"ACGT");
        assert_eq!(reverse_complement(b"AACG"), b"CGTT");
        assert_eq!(reverse_complement(b"N"), b"N");
        let mut s = b"GATTACA".to_vec();
        reverse_complement_in_place(&mut s);
        assert_eq!(s, b"TGTAATC");
    }

    /// The table is the per-base `match` it replaced, on every byte.
    #[test]
    fn complement_table_matches_the_match() {
        fn by_match(base: u8) -> u8 {
            match base {
                b'A' => b'T',
                b'T' => b'A',
                b'C' => b'G',
                b'G' => b'C',
                b'a' => b't',
                b't' => b'a',
                b'c' => b'g',
                b'g' => b'c',
                b'U' => b'A',
                b'M' => b'K',
                b'K' => b'M',
                b'R' => b'Y',
                b'Y' => b'R',
                b'W' => b'W',
                b'S' => b'S',
                b'V' => b'B',
                b'B' => b'V',
                b'H' => b'D',
                b'D' => b'H',
                other => other,
            }
        }
        for b in 0..=u8::MAX {
            assert_eq!(complement(b), by_match(b), "byte {b}");
        }
    }

    #[test]
    fn unpack_into_takes_two_bases_per_byte() {
        let all: Vec<u8> = (0..=u8::MAX).collect();
        let mut out = Vec::new();
        unpack_into(&all, 512, &mut out);
        let by_nibble: Vec<u8> =
            all.iter().flat_map(|&b| [CODE_TO_BASE[(b >> 4) as usize], CODE_TO_BASE[(b & 0xF) as usize]]).collect();
        assert_eq!(out, by_nibble);
        out.clear();
        unpack_into(&[0x12, 0x48], 3, &mut out);
        assert_eq!(out, b"ACG");
        out.clear();
        unpack_into(&[0x12], 5, &mut out);
        assert_eq!(out, b"AC", "bases past the packed bytes are not written");
    }

    #[test]
    fn revcomp_is_involution() {
        let seq = b"ACGTNRYSWKMBDHV";
        assert_eq!(reverse_complement(&reverse_complement(seq)), seq);
    }
}
