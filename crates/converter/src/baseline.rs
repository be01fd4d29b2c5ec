//! A Picard-style sequential baseline for the Table I comparison.
//!
//! **Substitution note (DESIGN.md §2):** Picard 1.74 is a Java toolkit we
//! cannot run here; this baseline reproduces the SAM-JDK *architecture*
//! instead — one heap object per record with individually-owned `String`
//! fields, `format!`-driven field rendering, and a strictly sequential
//! read-convert-write loop — so the sequential comparison is
//! architecture-vs-architecture rather than JVM-vs-native. Like Picard,
//! the baseline is a competent sequential program (buffered I/O, no
//! quadratic behaviour); it just pays the per-record object and string
//! costs our converter's byte-slice pipeline avoids.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use ngs_formats::bam::BamReader;
use ngs_formats::error::{Error, Result};

use crate::runtime::{RankOutput, SINGLE_FILE_BUFFER};

/// A SAM-JDK-style record object: every field an owned `String`.
#[derive(Debug, Clone, Default)]
pub struct SamRecordObject {
    /// QNAME.
    pub read_name: String,
    /// FLAG.
    pub flags: u32,
    /// RNAME.
    pub reference_name: String,
    /// POS.
    pub alignment_start: i64,
    /// MAPQ.
    pub mapping_quality: u32,
    /// CIGAR text.
    pub cigar_string: String,
    /// RNEXT.
    pub mate_reference_name: String,
    /// PNEXT.
    pub mate_alignment_start: i64,
    /// TLEN.
    pub inferred_insert_size: i64,
    /// SEQ.
    pub read_string: String,
    /// QUAL (Phred+33 text).
    pub base_quality_string: String,
    /// Raw tag columns.
    pub attributes: Vec<String>,
}

impl SamRecordObject {
    /// Parses a SAM text line the SAM-JDK way: split into owned strings.
    pub fn parse(line: &str) -> Result<Self> {
        let fields: Vec<String> = line.split('\t').map(str::to_string).collect();
        if fields.len() < 11 {
            return Err(Error::InvalidRecord(format!("short SAM line: {line:?}")));
        }
        let int = |s: &str| -> Result<i64> {
            s.parse().map_err(|_| Error::InvalidRecord(format!("bad integer {s:?}")))
        };
        Ok(SamRecordObject {
            read_name: fields[0].clone(),
            flags: int(&fields[1])? as u32,
            reference_name: fields[2].clone(),
            alignment_start: int(&fields[3])?,
            mapping_quality: int(&fields[4])? as u32,
            cigar_string: fields[5].clone(),
            mate_reference_name: fields[6].clone(),
            mate_alignment_start: int(&fields[7])?,
            inferred_insert_size: int(&fields[8])?,
            read_string: fields[9].clone(),
            base_quality_string: fields[10].clone(),
            attributes: fields[11..].to_vec(),
        })
    }

    /// True when the reverse-strand flag is set.
    pub fn is_reverse(&self) -> bool {
        self.flags & 0x10 != 0
    }

    /// True for paired first-of-pair records.
    pub fn is_first_of_pair(&self) -> bool {
        self.flags & 0x1 != 0 && self.flags & 0x40 != 0
    }

    /// True for paired second-of-pair records.
    pub fn is_second_of_pair(&self) -> bool {
        self.flags & 0x1 != 0 && self.flags & 0x80 != 0
    }

    /// Renders the record back to a SAM line (format!-driven).
    pub fn to_sam_string(&self) -> String {
        let mut s = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.read_name,
            self.flags,
            self.reference_name,
            self.alignment_start,
            self.mapping_quality,
            self.cigar_string,
            self.mate_reference_name,
            self.mate_alignment_start,
            self.inferred_insert_size,
            self.read_string,
            self.base_quality_string,
        );
        for a in &self.attributes {
            s.push('\t');
            s.push_str(a);
        }
        s
    }

    /// Renders a FASTQ entry (Picard `SamToFastq` semantics: restore
    /// sequencing orientation, add /1 `/`2 mate suffixes).
    pub fn to_fastq_string(&self) -> Option<String> {
        if self.read_string == "*" || self.read_string.is_empty() {
            return None;
        }
        let suffix = if self.is_first_of_pair() {
            "/1"
        } else if self.is_second_of_pair() {
            "/2"
        } else {
            ""
        };
        let (seq, qual) = if self.is_reverse() {
            let seq: String = self
                .read_string
                .chars()
                .rev()
                .map(|c| match c {
                    'A' => 'T',
                    'T' => 'A',
                    'C' => 'G',
                    'G' => 'C',
                    'a' => 't',
                    't' => 'a',
                    'c' => 'g',
                    'g' => 'c',
                    other => other,
                })
                .collect();
            let qual: String = if self.base_quality_string == "*" {
                "I".repeat(self.read_string.len())
            } else {
                self.base_quality_string.chars().rev().collect()
            };
            (seq, qual)
        } else {
            let qual = if self.base_quality_string == "*" {
                "I".repeat(self.read_string.len())
            } else {
                self.base_quality_string.clone()
            };
            (self.read_string.clone(), qual)
        };
        Some(format!("@{}{}\n{}\n+\n{}\n", self.read_name, suffix, seq, qual))
    }
}

/// The sequential Picard-like converter.
pub struct PicardLikeConverter;

impl PicardLikeConverter {
    /// `SamToFastq`: SAM text → FASTQ, one record object at a time.
    /// Returns the record count.
    pub fn sam_to_fastq(&self, input: impl AsRef<Path>, output: impl AsRef<Path>) -> Result<u64> {
        let reader = BufReader::new(File::open(input)?);
        let mut writer = RankOutput::replace(output.as_ref(), SINGLE_FILE_BUFFER)?;
        let mut n = 0u64;
        for line in reader.lines() {
            let line = line?;
            if line.is_empty() || line.starts_with('@') {
                continue;
            }
            let record = SamRecordObject::parse(&line)?;
            n += 1;
            if let Some(entry) = record.to_fastq_string() {
                writer.write_all(entry.as_bytes())?;
            }
        }
        writer.finish()?;
        Ok(n)
    }

    /// `SamFormatConverter` (BAM → SAM): decode each BAM record into the
    /// object model, re-render as text. Returns the record count.
    pub fn bam_to_sam(&self, input: impl AsRef<Path>, output: impl AsRef<Path>) -> Result<u64> {
        let mut reader = BamReader::new(BufReader::new(File::open(input)?))?;
        let mut writer = RankOutput::replace(output.as_ref(), SINGLE_FILE_BUFFER)?;
        writer.write_all(reader.header().text.as_bytes())?;
        let mut n = 0u64;
        // Materialize through the string-object model (the architecture
        // under test), not our byte-slice fast path.
        let mut line_bytes = Vec::new();
        while let Some(rec) = reader.read_record()? {
            line_bytes.clear();
            ngs_formats::sam::write_record(&rec, &mut line_bytes);
            let text = String::from_utf8_lossy(&line_bytes).into_owned();
            let object = SamRecordObject::parse(&text)?;
            writer.write_all(object.to_sam_string().as_bytes())?;
            writer.write_all(b"\n")?;
            n += 1;
        }
        writer.finish()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::{Dataset, DatasetSpec};
    use tempfile::tempdir;

    #[test]
    fn record_object_roundtrip() {
        let line = "r1\t99\tchr1\t100\t60\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:0";
        let obj = SamRecordObject::parse(line).unwrap();
        assert_eq!(obj.to_sam_string(), line);
        assert!(obj.is_first_of_pair());
        assert!(!obj.is_reverse());
    }

    #[test]
    fn fastq_rendering_matches_fast_path() {
        let ds = Dataset::generate(&DatasetSpec { n_records: 200, ..Default::default() });
        for rec in &ds.records {
            let mut line = Vec::new();
            ngs_formats::sam::write_record(rec, &mut line);
            let obj = SamRecordObject::parse(std::str::from_utf8(&line).unwrap()).unwrap();
            let mut fast = Vec::new();
            let fast_some = ngs_formats::fastq::write_alignment(rec, &mut fast);
            let slow = obj.to_fastq_string();
            assert_eq!(fast_some, slow.is_some());
            if let Some(s) = slow {
                assert_eq!(s.as_bytes(), &fast[..], "record {:?}", rec.qname);
            }
        }
    }

    #[test]
    fn sam_to_fastq_end_to_end() {
        let ds = Dataset::generate(&DatasetSpec { n_records: 150, ..Default::default() });
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.sam");
        let output = dir.path().join("out.fastq");
        ds.write_sam(&input).unwrap();
        let n = PicardLikeConverter.sam_to_fastq(&input, &output).unwrap();
        assert_eq!(n, 150);
        let text = std::fs::read_to_string(&output).unwrap();
        assert!(text.matches('@').count() >= 150);
    }

    #[test]
    fn bam_to_sam_end_to_end() {
        let ds = Dataset::generate(&DatasetSpec { n_records: 150, ..Default::default() });
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.bam");
        let output = dir.path().join("out.sam");
        ds.write_bam(&input).unwrap();
        let n = PicardLikeConverter.bam_to_sam(&input, &output).unwrap();
        assert_eq!(n, 150);
        // Output parses back to identical records.
        let bytes = std::fs::read(&output).unwrap();
        let mut reader = ngs_formats::sam::SamReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let records: Vec<_> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(records, ds.records);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(SamRecordObject::parse("only\tthree\tfields").is_err());
        assert!(SamRecordObject::parse("r\tx\tchr1\t1\t60\t*\t*\t0\t0\t*\t*").is_err());
    }
}
