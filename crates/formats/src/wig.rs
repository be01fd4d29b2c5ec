//! WIG (wiggle) format: the UCSC track format the paper's background
//! section lists alongside BED/BEDGRAPH (Section II-B). We emit
//! `variableStep` tracks — one declaration line per chromosome, then
//! `position value` pairs — both per-alignment and from histograms.

use crate::cigar::{itoa_buffer, write_u64};
use crate::error::{Error, Result};
use crate::record::AlignmentRecord;
use crate::view::Alignment;

/// Appends a per-alignment WIG fragment: a `variableStep` declaration
/// (span = reference span) plus one line at the alignment start with
/// value 1. Returns `false` for unmapped records.
///
/// Note: per-record WIG output is verbose by design — the format shines
/// for binned tracks (see [`write_fixed_step`]); the converter supports
/// it for completeness with the paper's format list.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one per-alignment WIG
/// formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    let (Some(start), Some(end)) = (a.start0(), a.end0()) else {
        return false;
    };
    let mut buf = itoa_buffer();
    out.extend_from_slice(b"variableStep chrom=");
    out.extend_from_slice(a.rname());
    out.extend_from_slice(b" span=");
    out.extend_from_slice(write_u64(&mut buf, (end - start) as u64));
    out.push(b'\n');
    // WIG positions are 1-based.
    out.extend_from_slice(write_u64(&mut buf, (start + 1) as u64));
    out.extend_from_slice(b"\t1\n");
    true
}

/// Writes a `fixedStep` track for one chromosome of binned values.
pub fn write_fixed_step(
    chrom: &[u8],
    start0: i64,
    step: u32,
    values: &[f64],
    out: &mut Vec<u8>,
) {
    let mut buf = itoa_buffer();
    out.extend_from_slice(b"fixedStep chrom=");
    out.extend_from_slice(chrom);
    out.extend_from_slice(b" start=");
    out.extend_from_slice(write_u64(&mut buf, (start0 + 1) as u64));
    out.extend_from_slice(b" step=");
    out.extend_from_slice(write_u64(&mut buf, step as u64));
    out.extend_from_slice(b" span=");
    out.extend_from_slice(write_u64(&mut buf, step as u64));
    out.push(b'\n');
    for v in values {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.extend_from_slice(crate::cigar::write_i64(&mut buf, *v as i64));
        } else {
            out.extend_from_slice(format!("{v}").as_bytes());
        }
        out.push(b'\n');
    }
}

/// A parsed `fixedStep` block.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedStepBlock {
    /// Chromosome name.
    pub chrom: Vec<u8>,
    /// 0-based start of the first value.
    pub start0: i64,
    /// Step (and span) in bases.
    pub step: u32,
    /// Values.
    pub values: Vec<f64>,
}

/// Parses `fixedStep` WIG text (the format [`write_fixed_step`] emits).
pub fn parse_fixed_step(text: &[u8]) -> Result<Vec<FixedStepBlock>> {
    let mut blocks: Vec<FixedStepBlock> = Vec::new();
    for line in text.split(|&b| b == b'\n') {
        let line = if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
        if line.is_empty() || line.starts_with(b"track") || line.starts_with(b"#") {
            continue;
        }
        if let Some(rest) = line.strip_prefix(b"fixedStep ") {
            let mut chrom = None;
            let mut start = None;
            let mut step = None;
            for field in rest.split(|&b| b == b' ').filter(|f| !f.is_empty()) {
                let text = std::str::from_utf8(field)
                    .map_err(|_| Error::InvalidRecord("non-UTF8 WIG header".into()))?;
                if let Some(v) = text.strip_prefix("chrom=") {
                    chrom = Some(v.as_bytes().to_vec());
                } else if let Some(v) = text.strip_prefix("start=") {
                    start = Some(v.parse::<i64>().map_err(|_| {
                        Error::InvalidRecord("bad WIG start".into())
                    })?);
                } else if let Some(v) = text.strip_prefix("step=") {
                    step = Some(v.parse::<u32>().map_err(|_| {
                        Error::InvalidRecord("bad WIG step".into())
                    })?);
                }
            }
            match (chrom, start, step) {
                (Some(chrom), Some(start), Some(step)) if start >= 1 && step > 0 => {
                    blocks.push(FixedStepBlock { chrom, start0: start - 1, step, values: Vec::new() })
                }
                _ => return Err(Error::InvalidRecord("incomplete fixedStep header".into())),
            }
        } else if line.starts_with(b"variableStep") {
            return Err(Error::InvalidRecord(
                "variableStep parsing not supported; use fixedStep".into(),
            ));
        } else {
            let block = blocks
                .last_mut()
                .ok_or_else(|| Error::InvalidRecord("WIG value before header".into()))?;
            let v: f64 = std::str::from_utf8(line)
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| Error::InvalidRecord("bad WIG value".into()))?;
            block.values.push(v);
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;

    #[test]
    fn alignment_fragment() {
        let r = sam::parse_record(b"r\t0\tchr1\t100\t60\t10M\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "variableStep chrom=chr1 span=10\n100\t1\n"
        );
    }

    #[test]
    fn unmapped_skipped() {
        let r = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        assert!(!write_alignment(&r, &mut out));
    }

    #[test]
    fn fixed_step_roundtrip() {
        let mut out = Vec::new();
        write_fixed_step(b"chr2", 0, 25, &[1.0, 2.5, 0.0, 7.0], &mut out);
        let blocks = parse_fixed_step(&out).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].chrom, b"chr2");
        assert_eq!(blocks[0].start0, 0);
        assert_eq!(blocks[0].step, 25);
        assert_eq!(blocks[0].values, vec![1.0, 2.5, 0.0, 7.0]);
    }

    #[test]
    fn multiple_blocks() {
        let mut out = Vec::new();
        write_fixed_step(b"chr1", 0, 25, &[1.0], &mut out);
        write_fixed_step(b"chr2", 100, 50, &[2.0, 3.0], &mut out);
        let blocks = parse_fixed_step(&out).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].start0, 100);
        assert_eq!(blocks[1].values.len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_fixed_step(b"5\n").is_err()); // value before header
        assert!(parse_fixed_step(b"fixedStep chrom=chr1 start=0 step=25\n").is_err()); // start<1
        assert!(parse_fixed_step(b"fixedStep chrom=chr1 start=1\n").is_err()); // no step
        assert!(parse_fixed_step(b"fixedStep chrom=chr1 start=1 step=25\nxyz\n").is_err());
        assert!(parse_fixed_step(b"variableStep chrom=chr1\n1\t2\n").is_err());
    }
}
