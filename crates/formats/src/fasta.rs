//! FASTA: `>name` description lines followed by sequence lines.

use std::io::BufRead;

use crate::error::{Error, Result};
use crate::record::AlignmentRecord;
use crate::view::Alignment;

/// Line width used when wrapping sequences (0 = no wrapping).
pub const DEFAULT_LINE_WIDTH: usize = 70;

/// Appends a FASTA entry for one alignment: `>qname` + the read bases.
/// Reads stored reverse-complemented (FLAG 0x10) are restored to original
/// orientation, matching `samtools fasta` behaviour. Records without
/// sequence are skipped (returns `false`).
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one per-alignment FASTA
/// formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    if a.seq_len() == 0 {
        return false;
    }
    out.push(b'>');
    if a.qname().is_empty() {
        out.push(b'*');
    } else {
        out.extend_from_slice(a.qname());
    }
    out.push(b'\n');
    if a.flag().is_reverse() {
        a.push_seq_revcomp(out);
    } else {
        a.push_seq(out);
    }
    out.push(b'\n');
    true
}

/// Writes an arbitrary named sequence, wrapped at `width` columns.
pub fn write_sequence(name: &[u8], seq: &[u8], width: usize, out: &mut Vec<u8>) {
    out.push(b'>');
    out.extend_from_slice(name);
    out.push(b'\n');
    if width == 0 {
        out.extend_from_slice(seq);
        out.push(b'\n');
    } else {
        for chunk in seq.chunks(width) {
            out.extend_from_slice(chunk);
            out.push(b'\n');
        }
        if seq.is_empty() {
            out.push(b'\n');
        }
    }
}

/// One parsed FASTA entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaEntry {
    /// Name (text after `>`, up to the first whitespace).
    pub name: Vec<u8>,
    /// Full description line after `>`.
    pub description: Vec<u8>,
    /// Concatenated sequence.
    pub seq: Vec<u8>,
}

/// Streaming FASTA parser.
pub struct FastaReader<R> {
    inner: R,
    pending_header: Option<Vec<u8>>,
    line: Vec<u8>,
}

impl<R: BufRead> FastaReader<R> {
    /// Wraps a buffered source.
    pub fn new(inner: R) -> Self {
        FastaReader { inner, pending_header: None, line: Vec::new() }
    }

    /// Reads the next entry; `None` at EOF.
    pub fn read_entry(&mut self) -> Result<Option<FastaEntry>> {
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => loop {
                self.line.clear();
                if self.inner.read_until(b'\n', &mut self.line)? == 0 {
                    return Ok(None);
                }
                let t = trim(&self.line);
                if t.is_empty() {
                    continue;
                }
                if t[0] != b'>' {
                    return Err(Error::InvalidRecord("expected '>' header line".into()));
                }
                break t[1..].to_vec();
            },
        };

        let mut seq = Vec::new();
        loop {
            self.line.clear();
            if self.inner.read_until(b'\n', &mut self.line)? == 0 {
                break;
            }
            let t = trim(&self.line);
            if t.is_empty() {
                continue;
            }
            if t[0] == b'>' {
                self.pending_header = Some(t[1..].to_vec());
                break;
            }
            seq.extend_from_slice(t);
        }
        let name =
            header.split(|&b| b == b' ' || b == b'\t').next().unwrap_or_default().to_vec();
        Ok(Some(FastaEntry { name, description: header, seq }))
    }
}

fn trim(line: &[u8]) -> &[u8] {
    let mut end = line.len();
    while end > 0 && (line[end - 1] == b'\n' || line[end - 1] == b'\r') {
        end -= 1;
    }
    &line[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;
    use std::io::Cursor;

    #[test]
    fn alignment_entry() {
        let r = sam::parse_record(b"read9\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        assert_eq!(String::from_utf8(out).unwrap(), ">read9\nACGT\n");
    }

    #[test]
    fn reverse_flag_restores_orientation() {
        let r = sam::parse_record(b"read9\t16\tchr1\t1\t60\t4M\t*\t0\t0\tAACG\tIIII", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), ">read9\nCGTT\n");
    }

    #[test]
    fn no_sequence_skipped() {
        let r = sam::parse_record(b"read9\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        assert!(!write_alignment(&r, &mut out));
    }

    #[test]
    fn wrapped_sequence_roundtrip() {
        let seq: Vec<u8> = b"ACGT".repeat(50);
        let mut out = Vec::new();
        write_sequence(b"chrTest", &seq, 70, &mut out);
        let mut reader = FastaReader::new(Cursor::new(&out));
        let entry = reader.read_entry().unwrap().unwrap();
        assert_eq!(entry.name, b"chrTest");
        assert_eq!(entry.seq, seq);
        assert!(reader.read_entry().unwrap().is_none());
    }

    #[test]
    fn multiple_entries_and_descriptions() {
        let text = ">seq1 first description\nACGT\nACGT\n\n>seq2\nTTTT\n";
        let mut reader = FastaReader::new(Cursor::new(text));
        let e1 = reader.read_entry().unwrap().unwrap();
        assert_eq!(e1.name, b"seq1");
        assert_eq!(e1.description, b"seq1 first description");
        assert_eq!(e1.seq, b"ACGTACGT");
        let e2 = reader.read_entry().unwrap().unwrap();
        assert_eq!(e2.name, b"seq2");
        assert_eq!(e2.seq, b"TTTT");
        assert!(reader.read_entry().unwrap().is_none());
    }

    #[test]
    fn garbage_before_header_rejected() {
        let mut reader = FastaReader::new(Cursor::new("ACGT\n>seq1\nACGT\n"));
        assert!(reader.read_entry().is_err());
    }
}
