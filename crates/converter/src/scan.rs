//! Record scanning: stream a byte range of SAM text and invoke a callback
//! per alignment line (header and blank lines skipped) — parsed into a
//! record ([`scan_records`]), parsed into BAMX-form fields with no record
//! built ([`scan_fields`]), or only measured ([`scan_lengths`]).

use ngs_formats::error::{Error, Result};
use ngs_formats::fields::{FieldsScratch, RecordFields, RefIds};
use ngs_formats::record::{AlignmentRecord, FieldLengths};
use ngs_formats::sam;

use crate::partition::ByteRange;
use crate::source::ByteSource;

/// Streams `[start, end)` of `source`, parsing each line as a SAM record
/// and calling `f`. Lines starting with `@` and blank lines are skipped.
/// Returns the number of records parsed.
pub fn scan_records<S: ByteSource + ?Sized>(
    source: &S,
    range: ByteRange,
    read_buffer: usize,
    mut f: impl FnMut(AlignmentRecord) -> Result<()>,
) -> Result<u64> {
    scan_lines(source, range, read_buffer, |line, line_no| {
        f(sam::parse_record(line, line_no).map_err(|e| in_partition(e, range))?)
    })
}

/// [`scan_records`] for a layout pass: each line is measured
/// ([`sam::measure_record`]), not parsed — no integers, CIGAR, bases or
/// qualities are decoded and no record is built. A line that is bad only
/// in those fields passes here and fails in [`scan_records`].
pub fn scan_lengths<S: ByteSource + ?Sized>(
    source: &S,
    range: ByteRange,
    read_buffer: usize,
    mut f: impl FnMut(FieldLengths) -> Result<()>,
) -> Result<u64> {
    scan_lines(source, range, read_buffer, |line, line_no| {
        f(sam::measure_record(line, line_no).map_err(|e| in_partition(e, range))?)
    })
}

/// [`scan_records`] for preprocessing: each line is parsed straight
/// into [`RecordFields`] ([`sam::parse_fields`]) — SEQ packed, QUAL
/// decoded, CIGAR and tags encoded into one reused scratch, names
/// resolved through `refs` — and no record is built. Errors of the SAM
/// grammar carry the partition, as in [`scan_records`]; the rest (an
/// unknown reference, an unencodable tag, a coordinate outside i32) are
/// the encoder's errors and pass through as they are.
pub fn scan_fields<S: ByteSource + ?Sized>(
    source: &S,
    range: ByteRange,
    read_buffer: usize,
    refs: &RefIds,
    mut f: impl FnMut(&RecordFields<'_>) -> Result<()>,
) -> Result<u64> {
    let mut scratch = FieldsScratch::default();
    scan_lines(source, range, read_buffer, |line, line_no| {
        match sam::parse_fields(line, line_no, refs, &mut scratch) {
            Ok(fields) => f(&fields),
            Err(e @ Error::InvalidSam { .. }) => Err(in_partition(e, range)),
            Err(e) => Err(e),
        }
    })
}

fn in_partition(e: Error, (start, _): ByteRange) -> Error {
    Error::InvalidRecord(format!(
        "{e} (line is relative to the partition starting at byte {start})"
    ))
}

/// Streams `[start, end)` of `source` and calls `f(line, line_no)` for
/// every alignment line (`\r\n` trimmed, `@` and blank lines skipped),
/// line numbers relative to the range. Returns the number of lines
/// handed to `f`.
fn scan_lines<S: ByteSource + ?Sized>(
    source: &S,
    range: ByteRange,
    read_buffer: usize,
    mut f: impl FnMut(&[u8], u64) -> Result<()>,
) -> Result<u64> {
    let (start, end) = range;
    let mut pos = start;
    let mut carry: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; read_buffer.max(1)];
    let mut count = 0u64;
    let mut line_no = 0u64;

    let mut handle = |line: &[u8], line_no: u64, count: &mut u64| -> Result<()> {
        let line = if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
        if line.is_empty() || line[0] == b'@' {
            return Ok(());
        }
        *count += 1;
        f(line, line_no)
    };

    while pos < end {
        let want = buf.len().min((end - pos) as usize);
        let n = source.read_at(pos, &mut buf[..want])?;
        if n == 0 {
            return Err(Error::InvalidRecord("unexpected EOF inside partition".into()));
        }
        pos += n as u64;
        let mut chunk = &buf[..n];
        if !carry.is_empty() {
            if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
                carry.extend_from_slice(&chunk[..i]);
                chunk = &chunk[i + 1..];
                line_no += 1;
                let line = std::mem::take(&mut carry);
                handle(&line, line_no, &mut count)?;
            } else {
                carry.extend_from_slice(chunk);
                continue;
            }
        }
        while let Some(i) = chunk.iter().position(|&b| b == b'\n') {
            line_no += 1;
            handle(&chunk[..i], line_no, &mut count)?;
            chunk = &chunk[i + 1..];
        }
        carry.extend_from_slice(chunk);
    }
    if !carry.is_empty() {
        line_no += 1;
        let line = std::mem::take(&mut carry);
        handle(&line, line_no, &mut count)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;

    #[test]
    fn scans_all_records() {
        let text = "@HD\tVN:1.6\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n\nr2\t0\tchr1\t2\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let src = MemSource::new(text.as_bytes().to_vec());
        let mut names = Vec::new();
        let n = scan_records(&src, (0, src.len()), 7, |r| {
            names.push(String::from_utf8(r.qname).unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(names, vec!["r1", "r2"]);
    }

    #[test]
    fn respects_range() {
        let text = "r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\nr2\t0\tchr1\t2\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let first_len = text.find("\nr2").unwrap() as u64 + 1;
        let src = MemSource::new(text.as_bytes().to_vec());
        let mut names = Vec::new();
        scan_records(&src, (first_len, src.len()), 1024, |r| {
            names.push(String::from_utf8(r.qname).unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(names, vec!["r2"]);
    }

    #[test]
    fn lengths_scan_sees_the_lines_the_record_scan_sees() {
        let text = "@HD\tVN:1.6\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\r\n\nlonger\t0\tchr1\t2\t60\t2M1I3M\t*\t0\t0\tACGTAC\t*\tNM:i:1";
        let src = MemSource::new(text.as_bytes().to_vec());
        let mut measured = Vec::new();
        let mut parsed = Vec::new();
        // A 5-byte buffer: every line straddles several reads.
        let n = scan_lengths(&src, (0, src.len()), 5, |l| {
            measured.push(l);
            Ok(())
        })
        .unwrap();
        scan_records(&src, (0, src.len()), 5, |r| {
            parsed.push(FieldLengths::of(&r)?);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(measured, parsed);
        assert_eq!(measured[1], FieldLengths { qname: 6, cigar_ops: 3, seq: 6, tags: 4 });
        // A line bad only in a field the measure skips passes it.
        let bad = MemSource::new(b"r\t0\tchr1\tNaN\t60\t4M\t*\t0\t0\tACGT\tIIII\n".to_vec());
        assert_eq!(scan_lengths(&bad, (0, bad.len()), 64, |_| Ok(())).unwrap(), 1);
        assert!(scan_records(&bad, (0, bad.len()), 64, |_| Ok(())).is_err());
    }

    #[test]
    fn propagates_parse_errors() {
        let src = MemSource::new(b"garbage line\n".to_vec());
        assert!(scan_records(&src, (0, src.len()), 64, |_| Ok(())).is_err());
    }

    #[test]
    fn callback_errors_stop_scan() {
        let text = "r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n".repeat(10);
        let src = MemSource::new(text.into_bytes());
        let mut seen = 0;
        let result = scan_records(&src, (0, src.len()), 4096, |_| {
            seen += 1;
            if seen == 3 {
                Err(Error::InvalidRecord("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
        assert_eq!(seen, 3);
    }
}
