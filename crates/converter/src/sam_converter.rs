//! Converter instance 1: the parallel SAM format converter.
//!
//! Ranks partition the text byte-evenly, slide boundaries to line breaks
//! (Algorithm 1), then parse and convert their slices with no further
//! communication — Figure 2 of the paper.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ngs_cluster::run_ranks;
use ngs_formats::bam::BamWriter;
use ngs_formats::error::{Error, Result};
use ngs_formats::header::SamHeader;

use crate::partition::{partition_distributed, ByteRange};
use crate::runtime::{scan_sam_header, ConvertConfig, ConvertReport, RankOutput, RankStats};
use crate::scan::scan_records;
use crate::source::{ByteSource, FileSource};
use crate::target::{builtin, TargetFormat};

/// The parallel SAM format converter.
pub struct SamConverter {
    /// Runtime configuration.
    pub config: ConvertConfig,
}

impl SamConverter {
    /// Creates a converter.
    pub fn new(config: ConvertConfig) -> Self {
        SamConverter { config }
    }

    /// Converts a SAM file into `target`, writing one output file per
    /// rank into `out_dir`.
    pub fn convert_file(
        &self,
        input: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        let source = FileSource::open(input.as_ref())?;
        let stem = input
            .as_ref()
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "converted".to_string());
        self.convert_source(&source, target, out_dir.as_ref(), &stem)
    }

    /// Converts any byte source holding SAM text.
    pub fn convert_source<S: ByteSource + ?Sized>(
        &self,
        source: &S,
        target: TargetFormat,
        out_dir: &Path,
        stem: &str,
    ) -> Result<ConvertReport> {
        std::fs::create_dir_all(out_dir)?;
        let (header, _) = scan_sam_header(source)?;

        let t_partition = Instant::now();
        // Partitioning runs inside the rank world below, but we time the
        // serial reference pass here to expose its (trivial) cost.
        let partition_time = t_partition.elapsed();

        let t_convert = Instant::now();
        let results: Vec<Result<(RankStats, PathBuf)>> = run_ranks(self.config.ranks, |comm| {
            let range = partition_distributed(source, comm, self.config.variant)?;
            convert_sam_range(
                source,
                range,
                &header,
                target,
                out_dir,
                stem,
                comm.rank(),
                &self.config,
            )
        });
        let convert_time = t_convert.elapsed();

        let mut report = ConvertReport {
            partition_time,
            convert_time,
            ..Default::default()
        };
        for r in results {
            let (stats, path) = r?;
            report.per_rank.push(stats);
            report.outputs.push(path);
        }
        Ok(report)
    }
}

/// One rank's work loop: stream the byte range, split lines, parse, apply
/// the user program, and write the rank's target file.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_sam_range<S: ByteSource + ?Sized>(
    source: &S,
    range: ByteRange,
    header: &SamHeader,
    target: TargetFormat,
    out_dir: &Path,
    stem: &str,
    rank: usize,
    config: &ConvertConfig,
) -> Result<(RankStats, PathBuf)> {
    let start_time = Instant::now();
    let mut stats = RankStats { rank, ..Default::default() };

    enum Sink {
        Line { out: RankOutput, converter: Box<dyn crate::target::RecordConverter> },
        Bam { writer: BamWriter<std::io::BufWriter<std::fs::File>>, path: PathBuf },
    }

    let mut sink = match target {
        TargetFormat::Bam => {
            let path = out_dir.join(format!("{stem}.part{rank:04}.bam"));
            let file = std::io::BufWriter::with_capacity(
                config.write_buffer,
                std::fs::File::create(&path)?,
            );
            Sink::Bam { writer: BamWriter::new(file, header.clone())?, path }
        }
        other => {
            let converter = builtin(other).ok_or_else(|| {
                Error::InvalidRecord(format!("no line converter for {other:?}"))
            })?;
            let mut out =
                RankOutput::create(out_dir, stem, rank, converter.extension(), config.write_buffer)?;
            if rank == 0 {
                let mut prologue = Vec::new();
                converter.prologue(header, &mut prologue);
                out.write_all(&prologue)?;
            }
            Sink::Line { out, converter }
        }
    };

    let mut out_buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    stats.records_in = scan_records(source, range, config.read_buffer, |record| {
        match &mut sink {
            Sink::Line { converter, out } => {
                if converter.convert(&record, &mut out_buf) {
                    stats.records_out += 1;
                }
                if out_buf.len() >= 64 * 1024 {
                    out.write_all(&out_buf)?;
                    out_buf.clear();
                }
            }
            Sink::Bam { writer, .. } => {
                writer.write_record(&record)?;
                stats.records_out += 1;
            }
        }
        Ok(())
    })?;
    stats.bytes_in = range.1 - range.0;

    let path = match sink {
        Sink::Line { mut out, .. } => {
            if !out_buf.is_empty() {
                out.write_all(&out_buf)?;
            }
            let (path, bytes) = out.finish()?;
            stats.bytes_out = bytes;
            path
        }
        Sink::Bam { writer, path } => {
            writer.finish()?;
            stats.bytes_out = std::fs::metadata(&path)?.len();
            path
        }
    };
    stats.elapsed = start_time.elapsed();
    Ok((stats, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;
    use ngs_simgen::{Dataset, DatasetSpec};
    use tempfile::tempdir;

    fn dataset(n: usize) -> Dataset {
        Dataset::generate(&DatasetSpec { n_records: n, ..Default::default() })
    }

    fn concat_outputs(report: &ConvertReport) -> Vec<u8> {
        let mut all = Vec::new();
        for p in &report.outputs {
            all.extend_from_slice(&std::fs::read(p).unwrap());
        }
        all
    }

    #[test]
    fn sam_to_sam_identity() {
        let ds = dataset(500);
        let sam_bytes = ds.to_sam_bytes();
        let src = MemSource::new(sam_bytes.clone());
        let dir = tempdir().unwrap();
        let conv = SamConverter::new(ConvertConfig::with_ranks(4));
        let report = conv.convert_source(&src, TargetFormat::Sam, dir.path(), "out").unwrap();
        assert_eq!(report.records_in(), 500);
        assert_eq!(report.records_out(), 500);
        assert_eq!(report.outputs.len(), 4);
        // Concatenated parts reproduce the input exactly (header included).
        assert_eq!(concat_outputs(&report), sam_bytes);
    }

    #[test]
    fn sam_to_bed_parallel_equals_sequential() {
        let ds = dataset(800);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();

        let seq = SamConverter::new(ConvertConfig::with_ranks(1));
        let r1 = seq.convert_source(&src, TargetFormat::Bed, &dir.path().join("s"), "out").unwrap();
        let par = SamConverter::new(ConvertConfig::with_ranks(7));
        let r7 = par.convert_source(&src, TargetFormat::Bed, &dir.path().join("p"), "out").unwrap();

        assert_eq!(concat_outputs(&r1), concat_outputs(&r7));
        assert_eq!(r1.records_out(), r7.records_out());
        // Unmapped reads are skipped by BED.
        assert!(r1.records_out() < r1.records_in());
    }

    #[test]
    fn all_line_targets_convert() {
        let ds = dataset(120);
        let src = MemSource::new(ds.to_sam_bytes());
        for target in [
            TargetFormat::Bed,
            TargetFormat::BedGraph,
            TargetFormat::Fasta,
            TargetFormat::Fastq,
            TargetFormat::Json,
            TargetFormat::Yaml,
        ] {
            let dir = tempdir().unwrap();
            let conv = SamConverter::new(ConvertConfig::with_ranks(3));
            let report = conv.convert_source(&src, target, dir.path(), "out").unwrap();
            assert_eq!(report.records_in(), 120, "{target:?}");
            assert!(report.records_out() > 0, "{target:?}");
            assert!(report.bytes_out() > 0, "{target:?}");
        }
    }

    #[test]
    fn sam_to_bam_roundtrips() {
        let ds = dataset(300);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamConverter::new(ConvertConfig::with_ranks(3));
        let report = conv.convert_source(&src, TargetFormat::Bam, dir.path(), "out").unwrap();
        // Each part is a standalone BAM; concatenating their records in
        // rank order reproduces the input records.
        let mut all = Vec::new();
        for p in &report.outputs {
            let bytes = std::fs::read(p).unwrap();
            let mut r = ngs_formats::bam::BamReader::new(std::io::Cursor::new(&bytes)).unwrap();
            all.extend(r.records().map(|x| x.unwrap()));
        }
        assert_eq!(all, ds.records);
    }

    #[test]
    fn file_based_conversion() {
        let ds = dataset(200);
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.sam");
        ds.write_sam(&input).unwrap();
        let conv = SamConverter::new(ConvertConfig::with_ranks(2));
        let report = conv.convert_file(&input, TargetFormat::Fastq, dir.path()).unwrap();
        assert_eq!(report.records_in(), 200);
        assert!(report.outputs[0].to_string_lossy().contains("in.part0000.fastq"));
    }

    #[test]
    fn tiny_buffer_still_correct() {
        // Force many chunk boundaries inside lines.
        let ds = dataset(150);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let config = ConvertConfig { ranks: 3, read_buffer: 64, ..Default::default() };
        let report = SamConverter::new(config)
            .convert_source(&src, TargetFormat::Bed, dir.path(), "out")
            .unwrap();
        assert_eq!(report.records_in(), 150);
    }

    #[test]
    fn more_ranks_than_records() {
        let ds = dataset(4);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let report = SamConverter::new(ConvertConfig::with_ranks(16))
            .convert_source(&src, TargetFormat::Json, dir.path(), "out")
            .unwrap();
        assert_eq!(report.records_in(), 4);
        assert_eq!(report.outputs.len(), 16);
    }
}
