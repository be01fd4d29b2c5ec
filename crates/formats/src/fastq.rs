//! FASTQ: `@name / seq / + / qual` quartets bundling bases with their
//! Phred qualities.

use std::io::BufRead;

use crate::error::{Error, Result};
use crate::flags::Flags;
use crate::record::AlignmentRecord;
use crate::view::Alignment;

/// Appends a FASTQ entry for one alignment. As with Picard's `SamToFastq`,
/// reverse-flagged reads are restored to sequencing orientation (sequence
/// reverse-complemented, qualities reversed). Records without sequence are
/// skipped (returns `false`). Missing qualities are emitted as `I` × len
/// (Phred 40), a common convention.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one FASTQ formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    let len = a.seq_len();
    if len == 0 {
        return false;
    }
    let flag = a.flag();
    out.push(b'@');
    if a.qname().is_empty() {
        out.push(b'*');
    } else {
        out.extend_from_slice(a.qname());
    }
    // Mate suffix for paired reads, as Picard writes /1 and /2.
    if flag.is_paired() {
        if flag.contains(Flags::FIRST_IN_PAIR) {
            out.extend_from_slice(b"/1");
        } else if flag.contains(Flags::SECOND_IN_PAIR) {
            out.extend_from_slice(b"/2");
        }
    }
    out.push(b'\n');
    if flag.is_reverse() {
        a.push_seq_revcomp(out);
    } else {
        a.push_seq(out);
    }
    out.extend_from_slice(b"\n+\n");
    if a.qual().is_empty() {
        out.resize(out.len() + len, b'I');
    } else {
        a.push_qual33(flag.is_reverse(), out);
    }
    out.push(b'\n');
    true
}

/// One parsed FASTQ entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqEntry {
    /// Read name (text after `@`).
    pub name: Vec<u8>,
    /// Bases.
    pub seq: Vec<u8>,
    /// Raw Phred qualities (already −33 decoded).
    pub qual: Vec<u8>,
}

/// Streaming FASTQ parser.
pub struct FastqReader<R> {
    inner: R,
    line: Vec<u8>,
}

impl<R: BufRead> FastqReader<R> {
    /// Wraps a buffered source.
    pub fn new(inner: R) -> Self {
        FastqReader { inner, line: Vec::new() }
    }

    fn next_line(&mut self) -> Result<Option<&[u8]>> {
        self.line.clear();
        if self.inner.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(None);
        }
        let mut end = self.line.len();
        while end > 0 && (self.line[end - 1] == b'\n' || self.line[end - 1] == b'\r') {
            end -= 1;
        }
        self.line.truncate(end);
        Ok(Some(&self.line))
    }

    /// Reads the next entry; `None` at EOF.
    pub fn read_entry(&mut self) -> Result<Option<FastqEntry>> {
        let header = loop {
            match self.next_line()? {
                None => return Ok(None),
                Some([]) => continue,
                Some(l) => {
                    if l[0] != b'@' {
                        return Err(Error::InvalidRecord("expected '@' header".into()));
                    }
                    break l[1..].to_vec();
                }
            }
        };
        let seq = self
            .next_line()?
            .ok_or_else(|| Error::InvalidRecord("truncated FASTQ: missing sequence".into()))?
            .to_vec();
        let plus = self
            .next_line()?
            .ok_or_else(|| Error::InvalidRecord("truncated FASTQ: missing '+'".into()))?;
        if plus.first() != Some(&b'+') {
            return Err(Error::InvalidRecord("FASTQ separator must start with '+'".into()));
        }
        let qual_line = self
            .next_line()?
            .ok_or_else(|| Error::InvalidRecord("truncated FASTQ: missing quality".into()))?;
        if qual_line.len() != seq.len() {
            return Err(Error::InvalidRecord("FASTQ quality length mismatch".into()));
        }
        let mut qual = Vec::with_capacity(qual_line.len());
        for &c in qual_line {
            if c < 33 {
                return Err(Error::InvalidRecord("quality character below '!'".into()));
            }
            qual.push(c - 33);
        }
        Ok(Some(FastqEntry { name: header, seq, qual }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;
    use std::io::Cursor;

    #[test]
    fn forward_read() {
        let r = sam::parse_record(b"r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIJKL", 1).unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        assert_eq!(String::from_utf8(out).unwrap(), "@r1\nACGT\n+\nIJKL\n");
    }

    #[test]
    fn reverse_read_restored() {
        let r = sam::parse_record(b"r1\t16\tchr1\t1\t60\t4M\t*\t0\t0\tAACG\tIJKL", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        // seq revcomp: CGTT; qual reversed: LKJI
        assert_eq!(String::from_utf8(out).unwrap(), "@r1\nCGTT\n+\nLKJI\n");
    }

    #[test]
    fn paired_suffixes() {
        let r1 = sam::parse_record(b"p\t77\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let r2 = sam::parse_record(b"p\t141\t*\t0\t0\t*\t*\t0\t0\tTTTT\tIIII", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r1, &mut out);
        write_alignment(&r2, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("@p/1\n"));
        assert!(text.contains("@p/2\n"));
    }

    #[test]
    fn missing_quality_filled() {
        let r = sam::parse_record(b"r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t*", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), "@r1\nACGT\n+\nIIII\n");
    }

    #[test]
    fn parse_roundtrip() {
        let text = "@r1\nACGT\n+\nIJKL\n@r2\nTT\n+r2\n!~\n";
        let mut reader = FastqReader::new(Cursor::new(text));
        let e1 = reader.read_entry().unwrap().unwrap();
        assert_eq!(e1.name, b"r1");
        assert_eq!(e1.seq, b"ACGT");
        assert_eq!(e1.qual, vec![40, 41, 42, 43]);
        let e2 = reader.read_entry().unwrap().unwrap();
        assert_eq!(e2.name, b"r2");
        assert_eq!(e2.qual, vec![0, 93]);
        assert!(reader.read_entry().unwrap().is_none());
    }

    #[test]
    fn parse_errors() {
        assert!(FastqReader::new(Cursor::new("ACGT\n")).read_entry().is_err());
        assert!(FastqReader::new(Cursor::new("@r1\nACGT\n")).read_entry().is_err());
        assert!(FastqReader::new(Cursor::new("@r1\nACGT\nX\nIIII\n")).read_entry().is_err());
        assert!(FastqReader::new(Cursor::new("@r1\nACGT\n+\nIII\n")).read_entry().is_err());
    }
}
