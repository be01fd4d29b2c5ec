//! BEDGRAPH: four-column `chrom start end value` tracks used to visualize
//! genome-wide scores (here: read coverage / histogram peaks).

use crate::cigar::{itoa_buffer, write_u64};
use crate::error::{Error, Result};
use crate::record::AlignmentRecord;
use crate::view::Alignment;

/// One BEDGRAPH interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BedGraphRecord {
    /// Chromosome name.
    pub chrom: Vec<u8>,
    /// 0-based start.
    pub start: i64,
    /// 0-based exclusive end.
    pub end: i64,
    /// Track value over the interval.
    pub value: f64,
}

/// Appends the per-alignment BEDGRAPH line (`chrom start end 1`): each read
/// contributes unit coverage over its reference span. Returns `false` for
/// unmapped records.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one per-alignment
/// BEDGRAPH formatter.
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
    out.extend_from_slice(b"\t1\n");
    true
}

/// Serializes one interval. Integral values print without a decimal point,
/// matching common genome-browser expectations.
pub fn write_record(rec: &BedGraphRecord, out: &mut Vec<u8>) {
    let mut buf = itoa_buffer();
    out.extend_from_slice(&rec.chrom);
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, rec.start as u64));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, rec.end as u64));
    out.push(b'\t');
    if rec.value.fract() == 0.0 && rec.value.abs() < 1e15 {
        out.extend_from_slice(crate::cigar::write_i64(&mut buf, rec.value as i64));
    } else {
        out.extend_from_slice(format!("{}", rec.value).as_bytes());
    }
    out.push(b'\n');
}

/// Parses one BEDGRAPH line.
pub fn parse_record(line: &[u8]) -> Result<BedGraphRecord> {
    let fields: Vec<&[u8]> = line.split(|&b| b == b'\t').collect();
    if fields.len() != 4 {
        return Err(Error::InvalidRecord("BEDGRAPH needs exactly 4 columns".into()));
    }
    fn s(f: &[u8]) -> Result<&str> {
        std::str::from_utf8(f).map_err(|_| Error::InvalidRecord("non-UTF8".into()))
    }
    let start: i64 =
        s(fields[1])?.parse().map_err(|_| Error::InvalidRecord("bad start".into()))?;
    let end: i64 = s(fields[2])?.parse().map_err(|_| Error::InvalidRecord("bad end".into()))?;
    let value: f64 =
        s(fields[3])?.parse().map_err(|_| Error::InvalidRecord("bad value".into()))?;
    if end < start {
        return Err(Error::InvalidRecord("end before start".into()));
    }
    Ok(BedGraphRecord { chrom: fields[0].to_vec(), start, end, value })
}

/// Writes the customary `track type=bedGraph` header line.
pub fn write_track_header(name: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(format!("track type=bedGraph name=\"{name}\"\n").as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;

    #[test]
    fn alignment_line() {
        let r = sam::parse_record(
            b"read1\t0\tchr1\t100\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        assert_eq!(String::from_utf8(out).unwrap(), "chr1\t99\t109\t1\n");
    }

    #[test]
    fn unmapped_skipped() {
        let r = sam::parse_record(b"read1\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        assert!(!write_alignment(&r, &mut out));
    }

    #[test]
    fn record_roundtrip_integer_value() {
        let rec =
            BedGraphRecord { chrom: b"chr2".to_vec(), start: 0, end: 25, value: 12.0 };
        let mut out = Vec::new();
        write_record(&rec, &mut out);
        assert_eq!(String::from_utf8_lossy(&out), "chr2\t0\t25\t12\n");
        let parsed = parse_record(&out[..out.len() - 1]).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn record_roundtrip_fractional_value() {
        let rec =
            BedGraphRecord { chrom: b"chrX".to_vec(), start: 50, end: 75, value: 3.25 };
        let mut out = Vec::new();
        write_record(&rec, &mut out);
        assert_eq!(String::from_utf8_lossy(&out), "chrX\t50\t75\t3.25\n");
        let parsed = parse_record(&out[..out.len() - 1]).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_record(b"chr1\t0\t10").is_err());
        assert!(parse_record(b"chr1\t0\t10\t1\textra").is_err());
        assert!(parse_record(b"chr1\t10\t0\t1").is_err());
        assert!(parse_record(b"chr1\ta\t10\t1").is_err());
    }

    #[test]
    fn track_header() {
        let mut out = Vec::new();
        write_track_header("coverage", &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "track type=bedGraph name=\"coverage\"\n"
        );
    }
}
