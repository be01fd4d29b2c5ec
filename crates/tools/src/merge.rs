//! Merging converter outputs: the parallel converters emit one file per
//! rank; these helpers stitch part files back into single SAM/BAM files.

use std::io::{BufReader, Write};
use std::path::Path;

use ngs_bgzf::ReadAheadReader;
use ngs_converter::runtime::{RankOutput, SINGLE_FILE_BUFFER};
use ngs_formats::bam::{BamReader, BamWriter};
use ngs_formats::error::{Error, Result};

/// Concatenates SAM part files (as produced by the SAM converter, where
/// only part 0 carries the header) into one SAM file. Returns records
/// written.
pub fn cat_sam_parts(parts: &[impl AsRef<Path>], output: impl AsRef<Path>) -> Result<u64> {
    if parts.is_empty() {
        return Err(Error::InvalidRecord("no parts to merge".into()));
    }
    let mut out = RankOutput::replace(output.as_ref(), SINGLE_FILE_BUFFER)?;
    let mut n = 0u64;
    for (i, part) in parts.iter().enumerate() {
        let bytes = std::fs::read(part)?;
        // Sanity: only the first part may contain header lines.
        if i > 0 && bytes.first() == Some(&b'@') {
            return Err(Error::InvalidRecord(format!(
                "part {i} unexpectedly contains a header"
            )));
        }
        n += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        if i == 0 {
            let header_lines =
                bytes.split_inclusive(|&b| b == b'\n').take_while(|l| l.first() == Some(&b'@'));
            n -= header_lines.count() as u64;
        }
        out.write_all(&bytes)?;
    }
    out.finish()?;
    Ok(n)
}

/// Merges BAM part files (each a standalone BAM with its own header)
/// into one BAM, concatenating records in part order. Headers must have
/// identical reference dictionaries.
pub fn cat_bam_parts(parts: &[impl AsRef<Path>], output: impl AsRef<Path>) -> Result<u64> {
    if parts.is_empty() {
        return Err(Error::InvalidRecord("no parts to merge".into()));
    }
    // Parts are read front to back, members inflated ahead on every core.
    let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let open = |part: &Path| -> Result<BamReader<ReadAheadReader>> {
        let file = BufReader::new(std::fs::File::open(part)?);
        BamReader::from_inflated(ReadAheadReader::new(file, workers))
    };
    let mut reader = open(parts[0].as_ref())?;
    let header = reader.header().clone();

    let out = RankOutput::replace(output.as_ref(), SINGLE_FILE_BUFFER)?;
    let mut writer = BamWriter::new(out, header.clone())?;
    let mut n = 0u64;
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            reader = open(part.as_ref())?;
        }
        if reader.header().references != header.references {
            return Err(Error::InvalidRecord("BAM parts disagree on references".into()));
        }
        while let Some(rec) = reader.read_record()? {
            writer.write_record(&rec)?;
            n += 1;
        }
    }
    writer.finish()?.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_converter::{ConvertConfig, SamConverter, TargetFormat};
    use ngs_simgen::{Dataset, DatasetSpec};
    use tempfile::tempdir;

    fn dataset(n: usize, sorted: bool) -> Dataset {
        Dataset::generate(&DatasetSpec {
            n_records: n,
            coordinate_sorted: sorted,
            ..Default::default()
        })
    }

    #[test]
    fn sam_parts_roundtrip() {
        let ds = dataset(400, false);
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.sam");
        ds.write_sam(&input).unwrap();
        let report = SamConverter::new(ConvertConfig::with_ranks(4))
            .convert_file(&input, TargetFormat::Sam, dir.path().join("parts"))
            .unwrap();
        let merged = dir.path().join("merged.sam");
        let n = cat_sam_parts(&report.outputs, &merged).unwrap();
        assert_eq!(n, 400);
        assert_eq!(std::fs::read(&merged).unwrap(), std::fs::read(&input).unwrap());
    }

    #[test]
    fn bam_parts_roundtrip() {
        let ds = dataset(300, false);
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.sam");
        ds.write_sam(&input).unwrap();
        let report = SamConverter::new(ConvertConfig::with_ranks(3))
            .convert_file(&input, TargetFormat::Bam, dir.path().join("parts"))
            .unwrap();
        let merged = dir.path().join("merged.bam");
        let n = cat_bam_parts(&report.outputs, &merged).unwrap();
        assert_eq!(n, 300);
        let mut reader =
            BamReader::new(BufReader::new(std::fs::File::open(&merged).unwrap())).unwrap();
        let records: Vec<_> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(records, ds.records);
    }

    #[test]
    fn empty_inputs_rejected() {
        let dir = tempdir().unwrap();
        let out = dir.path().join("o");
        assert!(cat_sam_parts(&([] as [&Path; 0]), &out).is_err());
        assert!(cat_bam_parts(&([] as [&Path; 0]), &out).is_err());
    }
}
