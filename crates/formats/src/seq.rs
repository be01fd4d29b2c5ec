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

/// Unpacks `len` bases from BAM nybbles.
pub fn unpack(packed: &[u8], len: usize) -> Result<Vec<u8>> {
    if packed.len() < len.div_ceil(2) {
        return Err(Error::InvalidBam("packed sequence shorter than l_seq".into()));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let byte = packed[i / 2];
        let code = if i % 2 == 0 { byte >> 4 } else { byte & 0xF };
        out.push(CODE_TO_BASE[code as usize]);
    }
    Ok(out)
}

/// Complement of one IUPAC base (case preserved for ACGT, others best
/// effort; unknown characters pass through).
#[inline]
pub fn complement(base: u8) -> u8 {
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

/// Reverse complement, allocating a new buffer.
pub fn reverse_complement(bases: &[u8]) -> Vec<u8> {
    bases.iter().rev().map(|&b| complement(b)).collect()
}

/// Reverse complement in place.
pub fn reverse_complement_in_place(bases: &mut [u8]) {
    bases.reverse();
    for b in bases.iter_mut() {
        *b = complement(*b);
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

    #[test]
    fn revcomp_is_involution() {
        let seq = b"ACGTNRYSWKMBDHV";
        assert_eq!(reverse_complement(&reverse_complement(seq)), seq);
    }
}
