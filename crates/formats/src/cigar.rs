//! CIGAR strings: the per-record description of how a read aligns to the
//! reference (matches, insertions, deletions, clips, ...).

use std::fmt;

use crate::error::{Error, Result};

/// One CIGAR operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`).
    Match,
    /// Insertion to the reference (`I`).
    Insertion,
    /// Deletion from the reference (`D`).
    Deletion,
    /// Skipped reference region, e.g. intron (`N`).
    Skip,
    /// Soft clip: bases present in SEQ but not aligned (`S`).
    SoftClip,
    /// Hard clip: bases absent from SEQ (`H`).
    HardClip,
    /// Padding (`P`).
    Padding,
    /// Sequence match (`=`).
    SeqMatch,
    /// Sequence mismatch (`X`).
    SeqMismatch,
}

impl CigarOp {
    /// The SAM character for this op.
    pub fn to_char(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Insertion => 'I',
            CigarOp::Deletion => 'D',
            CigarOp::Skip => 'N',
            CigarOp::SoftClip => 'S',
            CigarOp::HardClip => 'H',
            CigarOp::Padding => 'P',
            CigarOp::SeqMatch => '=',
            CigarOp::SeqMismatch => 'X',
        }
    }

    /// Parses a SAM CIGAR op character.
    pub fn from_char(c: u8) -> Result<Self> {
        Ok(match c {
            b'M' => CigarOp::Match,
            b'I' => CigarOp::Insertion,
            b'D' => CigarOp::Deletion,
            b'N' => CigarOp::Skip,
            b'S' => CigarOp::SoftClip,
            b'H' => CigarOp::HardClip,
            b'P' => CigarOp::Padding,
            b'=' => CigarOp::SeqMatch,
            b'X' => CigarOp::SeqMismatch,
            other => {
                return Err(Error::InvalidCigar(format!("unknown op '{}'", other as char)))
            }
        })
    }

    /// The BAM 4-bit op code (`MIDNSHP=X` → 0..=8).
    pub fn to_bam_code(self) -> u32 {
        match self {
            CigarOp::Match => 0,
            CigarOp::Insertion => 1,
            CigarOp::Deletion => 2,
            CigarOp::Skip => 3,
            CigarOp::SoftClip => 4,
            CigarOp::HardClip => 5,
            CigarOp::Padding => 6,
            CigarOp::SeqMatch => 7,
            CigarOp::SeqMismatch => 8,
        }
    }

    /// Decodes a BAM op code.
    pub fn from_bam_code(code: u32) -> Result<Self> {
        Ok(match code {
            0 => CigarOp::Match,
            1 => CigarOp::Insertion,
            2 => CigarOp::Deletion,
            3 => CigarOp::Skip,
            4 => CigarOp::SoftClip,
            5 => CigarOp::HardClip,
            6 => CigarOp::Padding,
            7 => CigarOp::SeqMatch,
            8 => CigarOp::SeqMismatch,
            other => return Err(Error::InvalidCigar(format!("unknown BAM op code {other}"))),
        })
    }

    /// Whether the op consumes read (query) bases.
    pub fn consumes_query(self) -> bool {
        matches!(
            self,
            CigarOp::Match
                | CigarOp::Insertion
                | CigarOp::SoftClip
                | CigarOp::SeqMatch
                | CigarOp::SeqMismatch
        )
    }

    /// Whether the op consumes reference bases.
    pub fn consumes_reference(self) -> bool {
        matches!(
            self,
            CigarOp::Match
                | CigarOp::Deletion
                | CigarOp::Skip
                | CigarOp::SeqMatch
                | CigarOp::SeqMismatch
        )
    }
}

/// A full CIGAR: a run-length list of operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar(pub Vec<(u32, CigarOp)>);

impl Cigar {
    /// An empty CIGAR, rendered `*` in SAM.
    pub fn empty() -> Self {
        Cigar(Vec::new())
    }

    /// True if no operations are present (unmapped record).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Parses the SAM text form (`*` → empty).
    pub fn parse(text: &[u8]) -> Result<Self> {
        let mut ops = Vec::new();
        parse_ops_into(text, &mut ops)?;
        Ok(Cigar(ops))
    }

    /// Total read bases covered (`M/I/S/=/X`).
    pub fn query_len(&self) -> u64 {
        self.0
            .iter()
            .filter(|(_, op)| op.consumes_query())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Total reference bases covered (`M/D/N/=/X`).
    pub fn reference_len(&self) -> u64 {
        self.0
            .iter()
            .filter(|(_, op)| op.consumes_reference())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Writes the SAM text form into `out` (`*` when empty).
    pub fn write_sam(&self, out: &mut Vec<u8>) {
        if self.0.is_empty() {
            out.push(b'*');
            return;
        }
        let mut buf = itoa_buffer();
        for &(n, op) in &self.0 {
            out.extend_from_slice(write_u64(&mut buf, n as u64));
            out.push(op.to_char() as u8);
        }
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut v = Vec::new();
        self.write_sam(&mut v);
        f.write_str(std::str::from_utf8(&v).expect("CIGAR text is ASCII"))
    }
}

/// Appends the operations of the SAM text form (`*` → none) to `ops` —
/// the one CIGAR text grammar, behind [`Cigar::parse`] and the SAM
/// front-ends.
pub(crate) fn parse_ops_into(text: &[u8], ops: &mut Vec<(u32, CigarOp)>) -> Result<()> {
    if text == b"*" {
        return Ok(());
    }
    if text.is_empty() {
        return Err(Error::InvalidCigar("empty CIGAR string".into()));
    }
    let mut num: u64 = 0;
    let mut have_digit = false;
    for &c in text {
        if c.is_ascii_digit() {
            num = num * 10 + (c - b'0') as u64;
            if num > u32::MAX as u64 {
                return Err(Error::InvalidCigar("operation length overflow".into()));
            }
            have_digit = true;
        } else {
            if !have_digit {
                return Err(Error::InvalidCigar("op without length".into()));
            }
            if num == 0 {
                return Err(Error::InvalidCigar("zero-length op".into()));
            }
            ops.push((num as u32, CigarOp::from_char(c)?));
            num = 0;
            have_digit = false;
        }
    }
    if have_digit {
        return Err(Error::InvalidCigar("trailing length without op".into()));
    }
    Ok(())
}

/// Scratch buffer for integer formatting without allocation.
#[inline]
pub(crate) fn itoa_buffer() -> [u8; 20] {
    [0u8; 20]
}

/// Formats `v` into `buf`, returning the textual slice.
#[inline]
pub(crate) fn write_u64(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[i..]
}

/// Formats a signed integer into `buf`, returning the textual slice.
#[inline]
pub(crate) fn write_i64(buf: &mut [u8; 20], v: i64) -> &[u8] {
    if v < 0 {
        let mut tmp = itoa_buffer();
        let digits = write_u64(&mut tmp, v.unsigned_abs());
        let start = 20 - digits.len() - 1;
        buf[start] = b'-';
        buf[start + 1..].copy_from_slice(digits);
        // Safety of indices: digits.len() <= 19 for any i64.
        return &buf[start..];
    }
    write_u64(buf, v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let c = Cigar::parse(b"90M").unwrap();
        assert_eq!(c.0, vec![(90, CigarOp::Match)]);
        assert_eq!(c.query_len(), 90);
        assert_eq!(c.reference_len(), 90);
    }

    #[test]
    fn parse_complex() {
        let c = Cigar::parse(b"5S30M2I10M3D40M4H").unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.query_len(), 5 + 30 + 2 + 10 + 40);
        assert_eq!(c.reference_len(), 30 + 10 + 3 + 40);
        assert_eq!(c.to_string(), "5S30M2I10M3D40M4H");
    }

    #[test]
    fn star_is_empty() {
        let c = Cigar::parse(b"*").unwrap();
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "*");
        assert_eq!(c.query_len(), 0);
    }

    #[test]
    fn parse_errors() {
        assert!(Cigar::parse(b"").is_err());
        assert!(Cigar::parse(b"M").is_err());
        assert!(Cigar::parse(b"10").is_err());
        assert!(Cigar::parse(b"10Q").is_err());
        assert!(Cigar::parse(b"0M").is_err());
        assert!(Cigar::parse(b"99999999999M").is_err());
    }

    #[test]
    fn bam_codes_roundtrip() {
        for op in [
            CigarOp::Match,
            CigarOp::Insertion,
            CigarOp::Deletion,
            CigarOp::Skip,
            CigarOp::SoftClip,
            CigarOp::HardClip,
            CigarOp::Padding,
            CigarOp::SeqMatch,
            CigarOp::SeqMismatch,
        ] {
            assert_eq!(CigarOp::from_bam_code(op.to_bam_code()).unwrap(), op);
            assert_eq!(CigarOp::from_char(op.to_char() as u8).unwrap(), op);
        }
        assert!(CigarOp::from_bam_code(9).is_err());
    }

    #[test]
    fn skip_and_pad_semantics() {
        let c = Cigar::parse(b"10M100N10M").unwrap();
        assert_eq!(c.query_len(), 20);
        assert_eq!(c.reference_len(), 120);
        let p = Cigar::parse(b"10M2P10M").unwrap();
        assert_eq!(p.query_len(), 20);
        assert_eq!(p.reference_len(), 20);
    }

    #[test]
    fn integer_formatting_helpers() {
        let mut b = itoa_buffer();
        assert_eq!(write_u64(&mut b, 0), b"0");
        let mut b = itoa_buffer();
        assert_eq!(write_u64(&mut b, 1234567890123), b"1234567890123");
        let mut b = itoa_buffer();
        assert_eq!(write_i64(&mut b, -42), b"-42");
        let mut b = itoa_buffer();
        assert_eq!(write_i64(&mut b, i64::MIN), b"-9223372036854775808");
        let mut b = itoa_buffer();
        assert_eq!(write_i64(&mut b, i64::MAX), b"9223372036854775807");
    }
}
