//! BED (Browser Extensible Data): tab-delimited intervals. The converter
//! emits BED6 (chrom, start, end, name, score, strand); a small parser is
//! provided for tests and for the histogram builder.

use crate::cigar::{itoa_buffer, write_u64};
use crate::error::{Error, Result};
use crate::record::AlignmentRecord;
use crate::view::Alignment;

/// One BED6 interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BedRecord {
    /// Chromosome name.
    pub chrom: Vec<u8>,
    /// 0-based start.
    pub start: i64,
    /// 0-based exclusive end.
    pub end: i64,
    /// Feature name.
    pub name: Vec<u8>,
    /// Score (0..=1000 by convention; we store the raw value).
    pub score: i64,
    /// `+`, `-` or `.`.
    pub strand: u8,
}

/// Converts an alignment into its BED6 interval. Unmapped records yield
/// `None` (they have no interval).
pub fn from_alignment(rec: &AlignmentRecord) -> Option<BedRecord> {
    let start = rec.start0()?;
    let end = rec.end0()?;
    Some(BedRecord {
        chrom: rec.rname.clone(),
        start,
        end,
        name: if rec.qname.is_empty() { b".".to_vec() } else { rec.qname.clone() },
        score: rec.mapq as i64,
        strand: rec.flag.strand() as u8,
    })
}

/// Appends one BED6 text line (newline-terminated) for an alignment
/// directly into `out`, avoiding the intermediate struct. Returns `false`
/// (and writes nothing) for unmapped records.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one BED6 formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    let (Some(start), Some(end)) = (a.start0(), a.end0()) else {
        return false;
    };
    let mut buf = itoa_buffer();
    out.extend_from_slice(a.rname());
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, start as u64));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, end as u64));
    out.push(b'\t');
    if a.qname().is_empty() {
        out.push(b'.');
    } else {
        out.extend_from_slice(a.qname());
    }
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, u64::from(a.mapq())));
    out.push(b'\t');
    out.push(a.flag().strand() as u8);
    out.push(b'\n');
    true
}

/// Serializes a [`BedRecord`] as one newline-terminated line.
pub fn write_record(rec: &BedRecord, out: &mut Vec<u8>) {
    let mut buf = itoa_buffer();
    out.extend_from_slice(&rec.chrom);
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, rec.start as u64));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, rec.end as u64));
    out.push(b'\t');
    out.extend_from_slice(&rec.name);
    out.push(b'\t');
    out.extend_from_slice(crate::cigar::write_i64(&mut buf, rec.score));
    out.push(b'\t');
    out.push(rec.strand);
    out.push(b'\n');
}

/// Parses one BED line (3 to 6 columns).
pub fn parse_record(line: &[u8]) -> Result<BedRecord> {
    let fields: Vec<&[u8]> = line.split(|&b| b == b'\t').collect();
    if fields.len() < 3 {
        return Err(Error::InvalidRecord("BED needs at least 3 columns".into()));
    }
    let parse_num = |f: &[u8], what: &str| -> Result<i64> {
        std::str::from_utf8(f)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::InvalidRecord(format!("bad BED {what}")))
    };
    let start = parse_num(fields[1], "start")?;
    let end = parse_num(fields[2], "end")?;
    if end < start {
        return Err(Error::InvalidRecord("BED end before start".into()));
    }
    Ok(BedRecord {
        chrom: fields[0].to_vec(),
        start,
        end,
        name: fields.get(3).map_or_else(|| b".".to_vec(), |f| f.to_vec()),
        score: fields.get(4).map_or(Ok(0), |f| parse_num(f, "score"))?,
        strand: fields.get(5).map_or(b'.', |f| if f.is_empty() { b'.' } else { f[0] }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;

    fn rec(line: &str) -> AlignmentRecord {
        sam::parse_record(line.as_bytes(), 1).unwrap()
    }

    #[test]
    fn alignment_to_bed() {
        let r = rec("read1\t16\tchr1\t100\t37\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII");
        let b = from_alignment(&r).unwrap();
        assert_eq!(b.chrom, b"chr1");
        assert_eq!(b.start, 99);
        assert_eq!(b.end, 109);
        assert_eq!(b.score, 37);
        assert_eq!(b.strand, b'-');
    }

    #[test]
    fn unmapped_has_no_interval() {
        let r = rec("read1\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*");
        assert!(from_alignment(&r).is_none());
        let mut out = Vec::new();
        assert!(!write_alignment(&r, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn direct_write_matches_struct_write() {
        let r = rec("read1\t0\tchr2\t5000\t60\t5M2D5M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII");
        let mut direct = Vec::new();
        assert!(write_alignment(&r, &mut direct));
        let mut via_struct = Vec::new();
        write_record(&from_alignment(&r).unwrap(), &mut via_struct);
        assert_eq!(direct, via_struct);
        assert_eq!(
            String::from_utf8(direct).unwrap(),
            "chr2\t4999\t5011\tread1\t60\t+\n"
        );
    }

    #[test]
    fn parse_roundtrip() {
        let line = b"chr1\t99\t109\tread1\t37\t-";
        let b = parse_record(line).unwrap();
        let mut out = Vec::new();
        write_record(&b, &mut out);
        assert_eq!(&out[..out.len() - 1], line);
    }

    #[test]
    fn parse_minimal_3col() {
        let b = parse_record(b"chr1\t0\t100").unwrap();
        assert_eq!(b.name, b".");
        assert_eq!(b.score, 0);
        assert_eq!(b.strand, b'.');
    }

    #[test]
    fn parse_errors() {
        assert!(parse_record(b"chr1\t10").is_err());
        assert!(parse_record(b"chr1\tx\t20").is_err());
        assert!(parse_record(b"chr1\t20\t10").is_err());
    }
}
