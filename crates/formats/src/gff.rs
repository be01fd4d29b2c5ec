//! GFF3 (Generic Feature Format): the annotation format the paper's
//! background section lists (Section II-B, "GFF (Gene Finding Feature)").
//! Alignments are emitted as `match` features with standard GFF3 escaping
//! in the attributes column.

use crate::cigar::{itoa_buffer, write_u64};
use crate::error::{Error, Result};
use crate::record::AlignmentRecord;
use crate::tags::TagValueRef;
use crate::view::Alignment;

/// The GFF3 version pragma.
pub const VERSION_PRAGMA: &str = "##gff-version 3\n";

/// Appends one GFF3 feature line for an alignment. Returns `false` for
/// unmapped records.
///
/// Columns: seqid, source (`ngs-parallel`), type (`match`), 1-based
/// start/end, score (MAPQ), strand, phase (`.`), attributes
/// (`ID=<qname>;nm=<NM>` when present).
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one GFF3 formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    let (Some(start), Some(end)) = (a.start0(), a.end0()) else {
        return false;
    };
    let mut buf = itoa_buffer();
    out.extend_from_slice(a.rname());
    out.extend_from_slice(b"\tngs-parallel\tmatch\t");
    out.extend_from_slice(write_u64(&mut buf, (start + 1) as u64));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, end as u64));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, u64::from(a.mapq())));
    out.push(b'\t');
    out.push(a.flag().strand() as u8);
    out.extend_from_slice(b"\t.\tID=");
    escape_attribute(if a.qname().is_empty() { b"*" } else { a.qname() }, out);
    if let Some(TagValueRef::Int(nm)) = a.tag(*b"NM") {
        out.extend_from_slice(b";nm=");
        out.extend_from_slice(crate::cigar::write_i64(&mut buf, nm));
    }
    out.push(b'\n');
    true
}

/// Percent-escapes the GFF3 attribute-reserved characters.
pub fn escape_attribute(value: &[u8], out: &mut Vec<u8>) {
    for &b in value {
        match b {
            b';' | b'=' | b'&' | b',' | b'%' | b'\t' | b'\n' | b'\r' => {
                out.extend_from_slice(format!("%{b:02X}").as_bytes())
            }
            _ => out.push(b),
        }
    }
}

/// One parsed GFF3 feature (columns only; attributes kept raw).
#[derive(Debug, Clone, PartialEq)]
pub struct GffFeature {
    /// Sequence id (column 1).
    pub seqid: Vec<u8>,
    /// Feature type (column 3).
    pub kind: Vec<u8>,
    /// 1-based inclusive start.
    pub start: i64,
    /// 1-based inclusive end.
    pub end: i64,
    /// Score column as text (`.` allowed).
    pub score: Vec<u8>,
    /// Strand character.
    pub strand: u8,
    /// Raw attributes column.
    pub attributes: Vec<u8>,
}

/// Parses one GFF3 feature line.
pub fn parse_feature(line: &[u8]) -> Result<GffFeature> {
    let fields: Vec<&[u8]> = line.split(|&b| b == b'\t').collect();
    if fields.len() != 9 {
        return Err(Error::InvalidRecord(format!(
            "GFF3 needs 9 columns, got {}",
            fields.len()
        )));
    }
    let num = |f: &[u8], what: &str| -> Result<i64> {
        std::str::from_utf8(f)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::InvalidRecord(format!("bad GFF {what}")))
    };
    let start = num(fields[3], "start")?;
    let end = num(fields[4], "end")?;
    if start < 1 || end < start {
        return Err(Error::InvalidRecord("bad GFF interval".into()));
    }
    Ok(GffFeature {
        seqid: fields[0].to_vec(),
        kind: fields[2].to_vec(),
        start,
        end,
        score: fields[5].to_vec(),
        strand: *fields[6].first().unwrap_or(&b'.'),
        attributes: fields[8].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;

    #[test]
    fn feature_line() {
        let r = sam::parse_record(
            b"read1\t16\tchr1\t100\t37\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII\tNM:i:2",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "chr1\tngs-parallel\tmatch\t100\t109\t37\t-\t.\tID=read1;nm=2\n"
        );
    }

    #[test]
    fn unmapped_skipped() {
        let r = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        assert!(!write_alignment(&r, &mut out));
    }

    #[test]
    fn attribute_escaping() {
        let mut out = Vec::new();
        escape_attribute(b"a;b=c,d%e\tf", &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), "a%3Bb%3Dc%2Cd%25e%09f");
    }

    #[test]
    fn roundtrip_parse() {
        let r = sam::parse_record(
            b"r\t0\tchr2\t5\t60\t4M\t*\t0\t0\tACGT\tIIII",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let feature = parse_feature(&out[..out.len() - 1]).unwrap();
        assert_eq!(feature.seqid, b"chr2");
        assert_eq!(feature.kind, b"match");
        assert_eq!((feature.start, feature.end), (5, 8));
        assert_eq!(feature.strand, b'+');
        assert!(feature.attributes.starts_with(b"ID=r"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_feature(b"too\tfew").is_err());
        assert!(parse_feature(b"c\ts\tt\tx\t5\t.\t+\t.\tID=a").is_err());
        assert!(parse_feature(b"c\ts\tt\t9\t5\t.\t+\t.\tID=a").is_err());
    }
}
