//! Converter instance 2: the BAM format converter.
//!
//! BAM records carry no delimiter, so byte-even partitioning cannot work
//! (Section III-B of the paper). Instead a *preprocessing* pass rewrites
//! the BAM into a BAMX file (fixed-width records → random access) plus a
//! BAIX index, after which conversion — full or partial — is
//! embarrassingly parallel. The paper's pass is sequential; here its
//! inflate runs member-parallel, and its transcode to BAMX batch-parallel,
//! ahead of the one thread that writes in order (DESIGN.md §16).

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{Baix, BamxCompression, BamxFile, BamxLayout, BamxVersion, ColumnSet, Region};
use ngs_bgzf::ReadAheadReader;
use ngs_cluster::time_ranks;
use ngs_formats::bam::{self, BamReader};
use ngs_formats::error::{Error, Result};
use ngs_formats::view::{Alignment, FieldsView};

use crate::runtime::{collect_report, ConvertConfig, ConvertReport, RankOutput, RankStats};
use crate::shard::ShardTarget;
use crate::target::{builtin, TargetFormat};
use crate::transcode::transcode_into;

/// Result of the preprocessing phase.
#[derive(Debug, Clone)]
pub struct PreprocessReport {
    /// Path of the BAMX file produced.
    pub bamx_path: PathBuf,
    /// Path of the BAIX index produced.
    pub baix_path: PathBuf,
    /// Records preprocessed.
    pub records: u64,
    /// Wall time of the preprocessing.
    pub elapsed: Duration,
    /// The layout chosen.
    pub layout: BamxLayout,
    /// True when a resume found the shards already manifest-verified and
    /// skipped the rebuild entirely.
    pub skipped: bool,
}

/// Stable name recorded in manifest `compression` metadata so a resume
/// can tell whether existing shards match the requested encoding.
pub(crate) fn compression_name(c: BamxCompression) -> &'static str {
    match c {
        BamxCompression::Plain => "plain",
        BamxCompression::Bgzf => "bgzf",
    }
}

/// The BAM format converter.
pub struct BamConverter {
    /// Runtime configuration.
    pub config: ConvertConfig,
    /// Compression of generated BAMX shards (v1 bodies only; v2
    /// compresses per column).
    pub bamx_compression: BamxCompression,
    /// On-disk BAMX version for generated shards (v1 fixed-width by
    /// default; v2 block-columnar, DESIGN.md §14).
    pub format_version: BamxVersion,
}

impl BamConverter {
    /// Creates a converter with plain (uncompressed) v1 BAMX output.
    pub fn new(config: ConvertConfig) -> Self {
        BamConverter {
            config,
            bamx_compression: BamxCompression::Plain,
            format_version: BamxVersion::V1,
        }
    }

    /// Preprocessing: BAM → BAMX + BAIX (Figure 3, left box).
    ///
    /// Two passes over the input (DESIGN.md §16), each through a
    /// [`ReadAheadReader`] so BGZF members inflate on `config.ranks`
    /// helper threads while the stream is consumed in order. The first
    /// pass *measures*: it reads four lengths off each raw record body
    /// ([`bam::measure_record`]) to fix the padding layout, and decodes
    /// nothing. The second builds no record either: it splits the stream
    /// into batches that `config.ranks` workers transcode straight from
    /// the BAM bytes (`bam::view::transcode`) into BAMX — v2 blocks
    /// built and deflated there too — and appends them in order through
    /// the shared [`ShardTarget::build`] path, which publishes through a
    /// crash-safe [`ShardRepo`] (temp → fsync → rename → manifest
    /// record): a crash at any byte leaves either the old state or the
    /// new state — never a torn artifact.
    ///
    /// Because the first pass looks only at lengths, a record that is
    /// sound in shape but bad in content (an unknown CIGAR op, a mate
    /// reference id outside the dictionary) is reported by the second
    /// pass — the first such record in stream order, whatever the worker
    /// count: still a typed error, still nothing sealed or recorded.
    pub fn preprocess(
        &self,
        input_bam: impl AsRef<Path>,
        out_dir: impl AsRef<Path>,
    ) -> Result<PreprocessReport> {
        let repo = ShardRepo::create(out_dir.as_ref())?;
        self.preprocess_repo(input_bam, &repo, false)
    }

    /// [`BamConverter::preprocess`] against an explicit repository, with
    /// optional resume: when `resume` is set and both shards are already
    /// manifest-verified (and the compression matches), the rebuild is
    /// skipped — restarting after a crash redoes only the torn tail and
    /// produces a byte-identical shard set (preprocessing is
    /// deterministic in the input, whatever `config.ranks` is).
    pub fn preprocess_repo(
        &self,
        input_bam: impl AsRef<Path>,
        repo: &ShardRepo,
        resume: bool,
    ) -> Result<PreprocessReport> {
        let input_bam = input_bam.as_ref();
        let target = ShardTarget {
            repo,
            stem: input_bam
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "input".into()),
            version: self.format_version,
            compression: self.bamx_compression,
        };
        let bamx_path = target.bamx_path();
        let baix_path = target.baix_path();
        let compression = compression_name(self.bamx_compression);
        let format = self.format_version.name();

        let start = Instant::now();

        // Manifests written before v2 existed carry no "format" key;
        // treat that as v1 so old repositories keep resuming.
        let meta = repo.manifest()?.meta;
        let meta_matches = meta.get("compression").map(String::as_str) == Some(compression)
            && meta.get("format").map(String::as_str).unwrap_or("v1") == format;
        if resume && meta_matches && target.is_published() {
            let bamx = BamxFile::open(&bamx_path)?;
            return Ok(PreprocessReport {
                records: bamx.len(),
                layout: *bamx.layout(),
                bamx_path,
                baix_path,
                elapsed: start.elapsed(),
                skipped: true,
            });
        }
        repo.set_meta("compression", compression)?;
        repo.set_meta("format", format)?;

        let open = || -> Result<BamReader<ReadAheadReader>> {
            let file = BufReader::new(std::fs::File::open(input_bam)?);
            BamReader::from_inflated(ReadAheadReader::new(file, self.config.ranks))
        };

        // Pass 1: layout maxima, measured off the raw record bodies. The
        // reader goes before pass 2 opens its own: its buffers would
        // only add to pass 2's peak.
        let layout = {
            let mut reader = open()?;
            let mut layout = BamxLayout::empty();
            while let Some(body) = reader.read_body()? {
                layout.observe_lengths(&bam::measure_record(body)?)?;
            }
            layout
        };

        // Pass 2: transcode on every core, write in order, index, publish.
        let mut reader = open()?;
        let header = reader.header().clone();
        let records = target.build(header, layout, |writer| {
            transcode_into(&mut reader, writer, self.config.ranks)
        })?;

        Ok(PreprocessReport {
            bamx_path,
            baix_path,
            records,
            elapsed: start.elapsed(),
            layout,
            skipped: false,
        })
    }

    /// Parallel *full* conversion of a preprocessed BAMX file (Figure 3,
    /// right box): each rank random-accesses an equal share of records.
    pub fn convert_bamx(
        &self,
        bamx_path: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        let start = Instant::now();
        let bamx_path = bamx_path.as_ref();
        let out_dir = out_dir.as_ref();
        std::fs::create_dir_all(out_dir)?;
        let stem = bamx_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "bamx".into());

        let n_records = BamxFile::open(bamx_path)?.len();
        let (results, times) = time_ranks(self.config.ranks, |comm| {
            let rank = comm.rank();
            let n = comm.size() as u64;
            let lo = rank as u64 * n_records / n;
            let hi = (rank as u64 + 1) * n_records / n;
            // Each rank opens its own handle (independent preads).
            let shard = BamxFile::open(bamx_path)?;
            convert_record_range(&shard, lo, hi, target, out_dir, &stem, rank, rank == 0, &self.config)
        });
        collect_report(start, results, &times)
    }

    /// Parallel *partial* conversion: only alignments whose start falls
    /// inside `region`, located via binary search over the BAIX file
    /// (Section III-B, partial conversion).
    pub fn convert_partial(
        &self,
        bamx_path: impl AsRef<Path>,
        baix_path: impl AsRef<Path>,
        region: &Region,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        let start = Instant::now();
        let bamx_path = bamx_path.as_ref();
        let out_dir = out_dir.as_ref();
        std::fs::create_dir_all(out_dir)?;
        let stem = format!(
            "{}.{}",
            bamx_path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "bamx".into()),
            region.to_string().replace([':', '-'], "_")
        );

        let probe = BamxFile::open(bamx_path)?;
        let ref_id = region.resolve(probe.header())?;
        drop(probe);
        let baix = Baix::load(baix_path)?;
        // The BAIX region: binary search over sorted start positions.
        let entry_range = baix.locate(ref_id, region);
        let indices = baix.shard_indices(entry_range);

        let (results, times) = time_ranks(self.config.ranks, |comm| {
            let rank = comm.rank();
            let n = comm.size();
            // Evenly split the BAIX subregion across ranks.
            let lo = rank * indices.len() / n;
            let hi = (rank + 1) * indices.len() / n;
            let shard = BamxFile::open(bamx_path)?;
            convert_index_list(
                &shard,
                &indices[lo..hi],
                target,
                out_dir,
                &stem,
                rank,
                rank == 0,
                &self.config,
            )
        });
        collect_report(start, results, &times)
    }

    /// Sequential conversion *without* preprocessing (used by the Table I
    /// comparison): stream the BAM once, convert records as they decode.
    pub fn convert_direct(
        &self,
        input_bam: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        let input_bam = input_bam.as_ref();
        let out_dir = out_dir.as_ref();
        std::fs::create_dir_all(out_dir)?;
        let stem = input_bam
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input".into());

        let t = Instant::now();
        let mut reader = BamReader::new(BufReader::new(std::fs::File::open(input_bam)?))?;
        let header = reader.header().clone();

        let mut stats = RankStats::default();
        let converter = builtin(target)
            .ok_or_else(|| Error::InvalidRecord("direct conversion targets line formats".into()))?;
        let mut out =
            RankOutput::create(out_dir, &stem, 0, converter.extension(), self.config.write_buffer)?;
        let mut prologue = Vec::new();
        converter.prologue(&header, &mut prologue);
        out.write_all(&prologue)?;

        let mut buf = Vec::with_capacity(64 * 1024);
        while let Some(rec) = reader.read_record()? {
            stats.records_in += 1;
            if converter.convert(&rec, &mut buf) {
                stats.records_out += 1;
            }
            if buf.len() >= 64 * 1024 {
                out.write_all(&buf)?;
                buf.clear();
            }
        }
        out.write_all(&buf)?;
        let (path, bytes) = out.finish()?;
        stats.bytes_out = bytes;
        stats.elapsed = t.elapsed();

        Ok(ConvertReport {
            convert_time: stats.elapsed,
            busy: stats.elapsed,
            per_rank: vec![stats],
            outputs: vec![path],
            ..Default::default()
        })
    }
}

/// Converts a contiguous record range of a BAMX shard. `write_prologue`
/// is set for exactly one rank of one shard per conversion (the file that
/// should carry the header/pragma).
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_record_range(
    shard: &BamxFile,
    lo: u64,
    hi: u64,
    target: TargetFormat,
    out_dir: &Path,
    stem: &str,
    rank: usize,
    write_prologue: bool,
    config: &ConvertConfig,
) -> Result<(RankStats, PathBuf)> {
    let t = Instant::now();
    let mut stats = RankStats { rank, ..Default::default() };
    let mut sink = Emitter::create(shard, target, out_dir, stem, rank, write_prologue, config)?;

    shard.for_each_fields(lo, hi, sink.columns(), |view| {
        stats.records_in += 1;
        sink.emit(&view, &mut stats)
    })?;
    let path = sink.finish(&mut stats)?;
    stats.elapsed = t.elapsed();
    Ok((stats, path))
}

/// Converts an explicit (sorted) list of record indices — the unit of
/// work behind [`BamConverter::convert_partial`], exposed so long-lived
/// services (`ngs-query`) can drive it against cached shard handles and
/// produce byte-identical part files.
#[allow(clippy::too_many_arguments)]
pub fn convert_index_list(
    shard: &BamxFile,
    indices: &[u64],
    target: TargetFormat,
    out_dir: &Path,
    stem: &str,
    rank: usize,
    write_prologue: bool,
    config: &ConvertConfig,
) -> Result<(RankStats, PathBuf)> {
    let t = Instant::now();
    let mut stats = RankStats { rank, ..Default::default() };
    let mut sink = Emitter::create(shard, target, out_dir, stem, rank, write_prologue, config)?;
    let columns = sink.columns();
    // Coalesce consecutive runs of indices into range reads.
    let mut i = 0usize;
    while i < indices.len() {
        let run_start = indices[i];
        let mut j = i + 1;
        while j < indices.len() && indices[j] == indices[j - 1] + 1 {
            j += 1;
        }
        let run_end = indices[j - 1] + 1;
        shard.for_each_fields(run_start, run_end, columns, |view| {
            stats.records_in += 1;
            sink.emit(&view, &mut stats)
        })?;
        i = j;
    }
    let path = sink.finish(&mut stats)?;
    stats.elapsed = t.elapsed();
    Ok((stats, path))
}

/// Unified line/BAM output sink for BAMX-driven conversion.
enum Emitter {
    Line {
        out: RankOutput,
        converter: Box<dyn crate::target::RecordConverter>,
        buf: Vec<u8>,
    },
    Bam {
        writer: ngs_formats::bam::BamWriter<std::io::BufWriter<std::fs::File>>,
        path: PathBuf,
    },
}

impl Emitter {
    fn create(
        shard: &BamxFile,
        target: TargetFormat,
        out_dir: &Path,
        stem: &str,
        rank: usize,
        write_prologue: bool,
        config: &ConvertConfig,
    ) -> Result<Self> {
        Ok(match target {
            TargetFormat::Bam => {
                let path = out_dir.join(format!("{stem}.part{rank:04}.bam"));
                let file = std::io::BufWriter::with_capacity(
                    config.write_buffer,
                    std::fs::File::create(&path)?,
                );
                Emitter::Bam {
                    writer: ngs_formats::bam::BamWriter::new(file, shard.header().clone())?,
                    path,
                }
            }
            other => {
                let converter = builtin(other).ok_or_else(|| {
                    Error::InvalidRecord(format!("no line converter for {other:?}"))
                })?;
                let mut out = RankOutput::create(
                    out_dir,
                    stem,
                    rank,
                    converter.extension(),
                    config.write_buffer,
                )?;
                if write_prologue {
                    let mut prologue = Vec::new();
                    converter.prologue(shard.header(), &mut prologue);
                    out.write_all(&prologue)?;
                }
                Emitter::Line { out, converter, buf: Vec::with_capacity(64 * 1024) }
            }
        })
    }

    /// The column projection this sink's target reads: the converter's
    /// declared set for line formats, everything for BAM re-encode.
    fn columns(&self) -> ColumnSet {
        match self {
            Emitter::Line { converter, .. } => converter.columns(),
            Emitter::Bam { .. } => ColumnSet::ALL,
        }
    }

    fn emit(&mut self, view: &FieldsView<'_>, stats: &mut RankStats) -> Result<()> {
        match self {
            Emitter::Line { out, converter, buf } => {
                if converter.convert_fields(view, buf) {
                    stats.records_out += 1;
                }
                if buf.len() >= 64 * 1024 {
                    out.write_all(buf)?;
                    buf.clear();
                }
            }
            Emitter::Bam { writer, .. } => {
                // BAM output re-encodes an owned record: it is deflate-bound.
                writer.write_record(&view.to_record())?;
                stats.records_out += 1;
            }
        }
        Ok(())
    }

    fn finish(self, stats: &mut RankStats) -> Result<PathBuf> {
        match self {
            Emitter::Line { mut out, buf, .. } => {
                if !buf.is_empty() {
                    out.write_all(&buf)?;
                }
                let (path, bytes) = out.finish()?;
                stats.bytes_out = bytes;
                Ok(path)
            }
            Emitter::Bam { writer, path } => {
                writer.finish()?;
                stats.bytes_out = std::fs::metadata(&path)?.len();
                Ok(path)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::assert_busy_within_wall;
    use ngs_simgen::{Dataset, DatasetSpec};
    use tempfile::tempdir;

    fn sorted_dataset(n: usize) -> Dataset {
        Dataset::generate(&DatasetSpec {
            n_records: n,
            coordinate_sorted: true,
            ..Default::default()
        })
    }

    fn write_bam(ds: &Dataset, dir: &Path) -> PathBuf {
        let path = dir.join("input.bam");
        ds.write_bam(&path).unwrap();
        path
    }

    #[test]
    fn preprocess_publishes_through_manifest_and_resume_skips() {
        let ds = sorted_dataset(300);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let out = dir.path().join("shards");
        let conv = BamConverter::new(ConvertConfig::with_ranks(2));

        let prep = conv.preprocess(&bam, &out).unwrap();
        assert!(!prep.skipped);
        let repo = ShardRepo::open(&out).unwrap();
        assert!(repo.verify().unwrap().is_clean());
        let bamx_bytes = std::fs::read(&prep.bamx_path).unwrap();
        let baix_bytes = std::fs::read(&prep.baix_path).unwrap();

        // Resume over a clean repository skips the rebuild entirely.
        let again = conv.preprocess_repo(&bam, &repo, true).unwrap();
        assert!(again.skipped);
        assert_eq!(again.records, 300);
        assert_eq!(again.layout, prep.layout);
        assert_eq!(std::fs::read(&prep.bamx_path).unwrap(), bamx_bytes);

        // Corrupt the published BAMX: resume detects the CRC mismatch,
        // rebuilds, and restores byte-identical shards.
        let mut scribbled = bamx_bytes.clone();
        let mid = scribbled.len() / 2;
        scribbled[mid] ^= 0xFF;
        std::fs::write(&prep.bamx_path, &scribbled).unwrap();
        let repaired = conv.preprocess_repo(&bam, &repo, true).unwrap();
        assert!(!repaired.skipped);
        assert_eq!(std::fs::read(&prep.bamx_path).unwrap(), bamx_bytes);
        assert_eq!(std::fs::read(&prep.baix_path).unwrap(), baix_bytes);
        assert!(repo.verify().unwrap().is_clean());
    }

    #[test]
    fn resume_rebuilds_when_compression_changes() {
        let ds = sorted_dataset(200);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let out = dir.path().join("shards");
        let plain = BamConverter::new(ConvertConfig::with_ranks(1));
        plain.preprocess(&bam, &out).unwrap();

        let mut bgzf = BamConverter::new(ConvertConfig::with_ranks(1));
        bgzf.bamx_compression = BamxCompression::Bgzf;
        let repo = ShardRepo::open(&out).unwrap();
        let prep = bgzf.preprocess_repo(&bam, &repo, true).unwrap();
        assert!(!prep.skipped, "compression mismatch must force a rebuild");
        let f = BamxFile::open(&prep.bamx_path).unwrap();
        assert_eq!(f.len(), 200);
    }

    #[test]
    fn resume_rebuilds_when_format_changes() {
        let ds = sorted_dataset(200);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let out = dir.path().join("shards");
        let v1 = BamConverter::new(ConvertConfig::with_ranks(1));
        v1.preprocess(&bam, &out).unwrap();

        let mut v2 = BamConverter::new(ConvertConfig::with_ranks(1));
        v2.format_version = BamxVersion::V2;
        let repo = ShardRepo::open(&out).unwrap();
        let prep = v2.preprocess_repo(&bam, &repo, true).unwrap();
        assert!(!prep.skipped, "format mismatch must force a rebuild");
        let f = BamxFile::open(&prep.bamx_path).unwrap();
        assert_eq!(f.version(), BamxVersion::V2);
        assert_eq!(f.len(), 200);

        // And resuming under the same version now skips.
        let again = v2.preprocess_repo(&bam, &repo, true).unwrap();
        assert!(again.skipped);
    }

    #[test]
    fn v2_preprocess_conversion_matches_v1() {
        let ds = sorted_dataset(700);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());

        let v1 = BamConverter::new(ConvertConfig::with_ranks(3));
        let prep1 = v1.preprocess(&bam, dir.path().join("s1")).unwrap();
        let mut v2 = BamConverter::new(ConvertConfig::with_ranks(3));
        v2.format_version = BamxVersion::V2;
        let prep2 = v2.preprocess(&bam, dir.path().join("s2")).unwrap();
        assert_eq!(prep1.records, prep2.records);
        assert_eq!(prep1.layout, prep2.layout);
        // The BAIX is derived from positions only and must not notice
        // the layout change.
        assert_eq!(
            std::fs::read(&prep1.baix_path).unwrap(),
            std::fs::read(&prep2.baix_path).unwrap()
        );

        let cat = |r: &ConvertReport| {
            let mut all = Vec::new();
            for p in &r.outputs {
                all.extend_from_slice(&std::fs::read(p).unwrap());
            }
            all
        };
        // Projected line targets and full SAM agree byte-for-byte.
        for target in [TargetFormat::Sam, TargetFormat::Bed, TargetFormat::Fastq] {
            let r1 = v1
                .convert_bamx(&prep1.bamx_path, target, dir.path().join("o1"))
                .unwrap();
            let r2 = v2
                .convert_bamx(&prep2.bamx_path, target, dir.path().join("o2"))
                .unwrap();
            assert_eq!(cat(&r1), cat(&r2), "{target:?}");
        }
    }

    #[test]
    fn preprocess_then_full_conversion() {
        let ds = sorted_dataset(600);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let conv = BamConverter::new(ConvertConfig::with_ranks(4));
        let prep = conv.preprocess(&bam, dir.path()).unwrap();
        assert_eq!(prep.records, 600);

        let report = conv
            .convert_bamx(&prep.bamx_path, TargetFormat::Sam, dir.path().join("out"))
            .unwrap();
        assert_eq!(report.records_in(), 600);

        // Concatenated SAM parts parse back to the same records.
        let mut all = Vec::new();
        for p in &report.outputs {
            all.extend_from_slice(&std::fs::read(p).unwrap());
        }
        let mut reader = ngs_formats::sam::SamReader::new(std::io::Cursor::new(&all)).unwrap();
        let records: Vec<_> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(records, ds.records);
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let ds = sorted_dataset(500);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let c1 = BamConverter::new(ConvertConfig::with_ranks(1));
        let prep = c1.preprocess(&bam, dir.path()).unwrap();
        let r1 =
            c1.convert_bamx(&prep.bamx_path, TargetFormat::Bed, dir.path().join("a")).unwrap();
        let c8 = BamConverter::new(ConvertConfig::with_ranks(8));
        let r8 =
            c8.convert_bamx(&prep.bamx_path, TargetFormat::Bed, dir.path().join("b")).unwrap();
        assert_eq!(r1.records_out(), r8.records_out());
        assert_eq!(r1.bytes_out(), r8.bytes_out());
        for r in [&r1, &r8] {
            assert_busy_within_wall(r.busy, r.convert_time);
        }
    }

    #[test]
    fn partial_conversion_selects_region() {
        let ds = sorted_dataset(1000);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let conv = BamConverter::new(ConvertConfig::with_ranks(4));
        let prep = conv.preprocess(&bam, dir.path()).unwrap();

        let header = ds.header();
        let chr1_len = header.references[0].length as i64;
        let region = Region::new("chr1", 0, chr1_len / 2).unwrap();
        let report = conv
            .convert_partial(
                &prep.bamx_path,
                &prep.baix_path,
                &region,
                TargetFormat::Bed,
                dir.path().join("out"),
            )
            .unwrap();

        let expected = ds
            .records
            .iter()
            .filter(|r| {
                r.rname == b"chr1" && r.start0().map(|s| s < chr1_len / 2).unwrap_or(false)
            })
            .count() as u64;
        assert_eq!(report.records_in(), expected);
        assert!(expected > 0);
        assert_busy_within_wall(report.busy, report.convert_time);
    }

    #[test]
    fn partial_scales_with_region_size() {
        let ds = sorted_dataset(2000);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let conv = BamConverter::new(ConvertConfig::with_ranks(2));
        let prep = conv.preprocess(&bam, dir.path()).unwrap();
        let chr1_len = ds.header().references[0].length as i64;

        let mut last = 0;
        for (i, frac) in [0.2, 0.6, 1.0].iter().enumerate() {
            let region = Region::new("chr1", 0, (chr1_len as f64 * frac) as i64).unwrap();
            let report = conv
                .convert_partial(
                    &prep.bamx_path,
                    &prep.baix_path,
                    &region,
                    TargetFormat::BedGraph,
                    dir.path().join(format!("o{i}")),
                )
                .unwrap();
            assert!(report.records_in() >= last);
            last = report.records_in();
        }
    }

    #[test]
    fn direct_conversion_without_preprocessing() {
        let ds = sorted_dataset(300);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let conv = BamConverter::new(ConvertConfig::with_ranks(1));
        let report =
            conv.convert_direct(&bam, TargetFormat::Sam, dir.path().join("direct")).unwrap();
        assert_eq!(report.records_in(), 300);
        let bytes = std::fs::read(&report.outputs[0]).unwrap();
        let mut reader = ngs_formats::sam::SamReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let records: Vec<_> = reader.records().map(|r| r.unwrap()).collect();
        assert_eq!(records, ds.records);
    }

    #[test]
    fn compressed_bamx_conversion_agrees() {
        let ds = sorted_dataset(400);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());

        let plain = BamConverter::new(ConvertConfig::with_ranks(3));
        let prep_p = plain.preprocess(&bam, dir.path().join("p")).unwrap();
        let rp =
            plain.convert_bamx(&prep_p.bamx_path, TargetFormat::Json, dir.path().join("po")).unwrap();

        let mut comp = BamConverter::new(ConvertConfig::with_ranks(3));
        comp.bamx_compression = BamxCompression::Bgzf;
        let prep_c = comp.preprocess(&bam, dir.path().join("c")).unwrap();
        let rc =
            comp.convert_bamx(&prep_c.bamx_path, TargetFormat::Json, dir.path().join("co")).unwrap();

        let cat = |r: &ConvertReport| {
            let mut all = Vec::new();
            for p in &r.outputs {
                all.extend_from_slice(&std::fs::read(p).unwrap());
            }
            all
        };
        assert_eq!(cat(&rp), cat(&rc));
        // The compressed shard really is smaller.
        assert!(
            std::fs::metadata(&prep_c.bamx_path).unwrap().len()
                < std::fs::metadata(&prep_p.bamx_path).unwrap().len()
        );
    }

    #[test]
    fn bam_to_bam_identity() {
        let ds = sorted_dataset(250);
        let dir = tempdir().unwrap();
        let bam = write_bam(&ds, dir.path());
        let conv = BamConverter::new(ConvertConfig::with_ranks(2));
        let prep = conv.preprocess(&bam, dir.path()).unwrap();
        let report = conv
            .convert_bamx(&prep.bamx_path, TargetFormat::Bam, dir.path().join("out"))
            .unwrap();
        let mut all = Vec::new();
        for p in &report.outputs {
            let bytes = std::fs::read(p).unwrap();
            let mut r = ngs_formats::bam::BamReader::new(std::io::Cursor::new(&bytes)).unwrap();
            all.extend(r.records().map(|x| x.unwrap()));
        }
        assert_eq!(all, ds.records);
    }
}
