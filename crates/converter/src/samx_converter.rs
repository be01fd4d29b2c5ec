//! Converter instance 3: the preprocessing-optimized SAM format
//! converter (Section III-C).
//!
//! Combines the two earlier strategies: the *preprocessing itself is
//! parallel* — M ranks partition the SAM text with Algorithm 1 and each
//! writes one BAMX(+BAIX) shard — and subsequent conversions run over the
//! compact binary shards, skipping text parsing entirely.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{BamxCompression, BamxFile, BamxLayout, BamxVersion};
use ngs_cluster::run_ranks;
use ngs_formats::error::Result;
use ngs_formats::fields::RefIds;

use crate::bam_converter::{compression_name, convert_record_range};
use crate::partition::partition_distributed;
use crate::runtime::{scan_sam_header, ConvertConfig, ConvertReport, RankStats};
use crate::scan::{scan_fields, scan_lengths};
use crate::shard::ShardTarget;
use crate::source::{ByteSource, FileSource};
use crate::target::TargetFormat;

/// One preprocessed shard (BAMX + BAIX pair).
#[derive(Debug, Clone)]
pub struct Shard {
    /// The fixed-width record file.
    pub bamx_path: PathBuf,
    /// Its start-position index.
    pub baix_path: PathBuf,
    /// Records in the shard.
    pub records: u64,
    /// True when a resume found the shard already manifest-verified and
    /// skipped rebuilding it.
    pub resumed: bool,
}

/// Result of parallel SAM preprocessing.
#[derive(Debug, Clone)]
pub struct SamxPreprocessReport {
    /// One shard per preprocessing rank (the paper's M files).
    pub shards: Vec<Shard>,
    /// Makespan of the parallel preprocessing.
    pub elapsed: Duration,
}

impl SamxPreprocessReport {
    /// Total records across shards.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }
}

/// The preprocessing-optimized SAM format converter.
pub struct SamxConverter {
    /// Runtime configuration (`ranks` = M for preprocessing, N for
    /// conversion).
    pub config: ConvertConfig,
    /// Compression of generated shards (v1 bodies only).
    pub bamx_compression: BamxCompression,
    /// On-disk BAMX version for generated shards.
    pub format_version: BamxVersion,
}

impl SamxConverter {
    /// Creates a converter with plain v1 shards.
    pub fn new(config: ConvertConfig) -> Self {
        SamxConverter {
            config,
            bamx_compression: BamxCompression::Plain,
            format_version: BamxVersion::V1,
        }
    }

    /// Parallel preprocessing (Figure 5, left): M ranks partition the SAM
    /// text and each writes one BAMX + BAIX shard.
    ///
    /// Each rank makes two streaming passes over its slice: the first
    /// *measures* each line to derive the padding layout (no parse), the
    /// second parses each line straight into BAMX-form fields — no
    /// record is built — and writes them through the shared shard-build
    /// path: the paper's trade of extra preprocessing work for
    /// conversion speed. A line whose lengths are sound but whose fields
    /// are not (a bad integer, CIGAR or quality) is therefore reported
    /// by the second pass: still a typed error, nothing of that rank's
    /// shard sealed or recorded.
    pub fn preprocess_file(
        &self,
        input: impl AsRef<Path>,
        out_dir: impl AsRef<Path>,
    ) -> Result<SamxPreprocessReport> {
        let source = FileSource::open(input.as_ref())?;
        let stem = input
            .as_ref()
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input".into());
        self.preprocess_source(&source, out_dir.as_ref(), &stem)
    }

    /// Parallel preprocessing over any byte source. Shards publish
    /// through a crash-safe [`ShardRepo`] in `out_dir`.
    pub fn preprocess_source<S: ByteSource + ?Sized>(
        &self,
        source: &S,
        out_dir: &Path,
        stem: &str,
    ) -> Result<SamxPreprocessReport> {
        let repo = ShardRepo::create(out_dir)?;
        self.preprocess_source_repo(source, &repo, stem, false)
    }

    /// [`SamxConverter::preprocess_source`] against an explicit
    /// repository, with optional resume: ranks whose shard pair is
    /// already manifest-verified (and whose recorded `ranks` /
    /// `compression` metadata match this run) skip both scan passes.
    /// Partitioning and layout derivation are deterministic in the input
    /// and rank count, so crash + resume yields a byte-identical shard
    /// set. Every rank still joins [`partition_distributed`] — it is a
    /// collective, and skipping it would deadlock the non-resumed ranks.
    ///
    /// The on-disk shard set is reconciled against the manifest meta
    /// *before* any verified-skip decision: shards built under a
    /// different rank count or compression are pruned up front, and a
    /// meta that already matches this run while out-of-range shards
    /// still exist is the signature of a crash inside a previous run's
    /// meta-update window — those shards predate the meta write and are
    /// never trusted. This ordering (reconcile, then meta, then build)
    /// means a crash at any point leaves a state a restart classifies
    /// correctly instead of resuming stale shards.
    pub fn preprocess_source_repo<S: ByteSource + ?Sized>(
        &self,
        source: &S,
        repo: &ShardRepo,
        stem: &str,
        resume: bool,
    ) -> Result<SamxPreprocessReport> {
        let (header, _) = scan_sam_header(source)?;
        let refs = RefIds::new(&header);
        let compression = compression_name(self.bamx_compression);
        let ranks_meta = self.config.ranks.to_string();
        let format = self.format_version.name();
        let trusted = self.reconcile_shard_set(repo, stem, &ranks_meta, compression, format)?;
        let resume = resume && trusted;
        repo.set_meta("ranks", &ranks_meta)?;
        repo.set_meta("compression", compression)?;
        repo.set_meta("format", format)?;
        let t = Instant::now();

        let results: Vec<Result<Shard>> = run_ranks(self.config.ranks, |comm| {
            let rank = comm.rank();
            // Collective: always runs, even for ranks that will resume.
            let range = partition_distributed(source, comm, self.config.variant)?;

            let target = ShardTarget {
                repo,
                stem: format!("{stem}.shard{rank:04}"),
                version: self.format_version,
                compression: self.bamx_compression,
            };
            let bamx_path = target.bamx_path();
            let baix_path = target.baix_path();

            if resume && target.is_published() {
                let records = BamxFile::open(&bamx_path)?.len();
                return Ok(Shard { bamx_path, baix_path, records, resumed: true });
            }

            // Pass 1: per-rank layout maxima, measured off the text.
            let mut layout = BamxLayout::empty();
            scan_lengths(source, range, self.config.read_buffer, |lengths| {
                layout.observe_lengths(&lengths)
            })?;

            // Pass 2: parse into fields, pad, write, index, publish — the
            // BAIX is recorded together with the BAMX so the pair
            // publishes atomically.
            let records = target.build(header.clone(), layout, |writer| {
                scan_fields(source, range, self.config.read_buffer, &refs, |fields| {
                    writer.write_fields(fields)
                })
                .map(drop)
            })?;

            Ok(Shard { bamx_path, baix_path, records, resumed: false })
        });

        let mut shards = Vec::with_capacity(self.config.ranks);
        for r in results {
            shards.push(r?);
        }
        Ok(SamxPreprocessReport { shards, elapsed: t.elapsed() })
    }

    /// Reconciles the recorded shard set of `stem` against this run's
    /// layout parameters, *before* the run writes any meta or trusts any
    /// verified entry. Returns whether the surviving entries may be
    /// resumed.
    ///
    /// The set is untrusted (and pruned wholesale) in two cases:
    ///
    /// * the recorded `ranks` / `compression` meta differs from this run
    ///   — partitioning depends on both, so every shard is stale;
    /// * the meta *matches* but entries exist for ranks beyond this
    ///   run's count — impossible for a run that completed its
    ///   reconcile, so a previous run must have died between its
    ///   `set_meta` and its rebuild, and every recorded shard predates
    ///   the meta it appears to match.
    ///
    /// Pruning goes through [`ShardRepo::remove`] (manifest entry first,
    /// then the file), so a crash mid-prune leaves a state this same
    /// classification handles on the next restart.
    fn reconcile_shard_set(
        &self,
        repo: &ShardRepo,
        stem: &str,
        ranks_meta: &str,
        compression: &str,
        format: &str,
    ) -> Result<bool> {
        let manifest = repo.manifest()?;
        let meta_matches = manifest.meta.get("ranks").map(String::as_str) == Some(ranks_meta)
            && manifest.meta.get("compression").map(String::as_str) == Some(compression)
            // Pre-v2 manifests carry no "format" key; that means v1.
            && manifest.meta.get("format").map(String::as_str).unwrap_or("v1") == format;
        let prefix = format!("{stem}.shard");
        let shard_rank = |name: &str| {
            name.strip_prefix(&prefix)
                .and_then(|rest| rest.split('.').next())
                .and_then(|digits| digits.parse::<usize>().ok())
        };
        let stale_high = manifest
            .entries
            .keys()
            .any(|name| shard_rank(name).is_some_and(|rank| rank >= self.config.ranks));
        let trusted = meta_matches && !stale_high;
        if !trusted {
            let doomed: Vec<String> = manifest
                .entries
                .keys()
                .filter(|name| shard_rank(name).is_some())
                .cloned()
                .collect();
            for name in doomed {
                repo.remove(&name)?;
            }
        }
        Ok(trusted)
    }

    /// Parallel conversion phase (Figure 5, right): converts each BAMX
    /// shard with N ranks, producing the paper's M × N target files.
    pub fn convert_shards(
        &self,
        shards: &[Shard],
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        let out_dir = out_dir.as_ref();
        std::fs::create_dir_all(out_dir)?;
        let t = Instant::now();
        let mut report = ConvertReport::default();

        for (shard_idx, shard) in shards.iter().enumerate() {
            let stem = shard
                .bamx_path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "shard".into());
            let n_records = BamxFile::open(&shard.bamx_path)?.len();
            let results: Vec<Result<(RankStats, PathBuf)>> =
                run_ranks(self.config.ranks, |comm| {
                    let rank = comm.rank();
                    let n = comm.size() as u64;
                    let lo = rank as u64 * n_records / n;
                    let hi = (rank as u64 + 1) * n_records / n;
                    let file = BamxFile::open(&shard.bamx_path)?;
                    // Only the very first output file carries the prologue.
                    convert_record_range(
                        &file,
                        lo,
                        hi,
                        target,
                        out_dir,
                        &stem,
                        rank,
                        shard_idx == 0 && rank == 0,
                        &self.config,
                    )
                });
            for r in results {
                let (stats, path) = r?;
                report.per_rank.push(stats);
                report.outputs.push(path);
            }
        }
        report.convert_time = t.elapsed();
        Ok(report)
    }

    /// End-to-end: preprocess then convert, reporting both phases.
    pub fn convert_file(
        &self,
        input: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<(SamxPreprocessReport, ConvertReport)> {
        let out_dir = out_dir.as_ref();
        let prep = self.preprocess_file(input, out_dir.join("shards"))?;
        let mut report = self.convert_shards(&prep.shards, target, out_dir)?;
        report.preprocess_time = prep.elapsed;
        Ok((prep, report))
    }
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

    #[test]
    fn preprocess_shards_cover_all_records() {
        let ds = dataset(700);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamxConverter::new(ConvertConfig::with_ranks(4));
        let prep = conv.preprocess_source(&src, dir.path(), "x").unwrap();
        assert_eq!(prep.shards.len(), 4);
        assert_eq!(prep.records(), 700);
        // Shards in rank order concatenate to the original records.
        let mut all = Vec::new();
        for s in &prep.shards {
            let f = BamxFile::open(&s.bamx_path).unwrap();
            all.extend(f.read_range(0, f.len()).unwrap());
        }
        assert_eq!(all, ds.records);
    }

    #[test]
    fn per_shard_layouts_differ_from_global() {
        // Each rank pads to its own maxima — shards may have different
        // record sizes (less padding than a single global layout).
        let ds = dataset(400);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamxConverter::new(ConvertConfig::with_ranks(3));
        let prep = conv.preprocess_source(&src, dir.path(), "x").unwrap();
        for s in &prep.shards {
            let f = BamxFile::open(&s.bamx_path).unwrap();
            assert!(f.layout().record_size() > 0);
        }
    }

    #[test]
    fn convert_shards_produces_m_by_n_outputs() {
        let ds = dataset(600);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamxConverter::new(ConvertConfig::with_ranks(3)); // M = N = 3
        let prep = conv.preprocess_source(&src, &dir.path().join("shards"), "x").unwrap();
        let report =
            conv.convert_shards(&prep.shards, TargetFormat::Bed, dir.path().join("out")).unwrap();
        assert_eq!(report.outputs.len(), 9, "M × N = 3 × 3 files");
        assert_eq!(report.records_in(), 600);
    }

    #[test]
    fn end_to_end_matches_direct_sam_conversion() {
        let ds = dataset(500);
        let dir = tempdir().unwrap();
        let input = dir.path().join("in.sam");
        ds.write_sam(&input).unwrap();

        let samx = SamxConverter::new(ConvertConfig::with_ranks(2));
        let (_prep, report) =
            samx.convert_file(&input, TargetFormat::Fastq, dir.path().join("samx")).unwrap();

        let sam = crate::sam_converter::SamConverter::new(ConvertConfig::with_ranks(2));
        let direct = sam.convert_file(&input, TargetFormat::Fastq, dir.path().join("sam")).unwrap();

        let cat = |r: &ConvertReport| {
            let mut all = Vec::new();
            for p in &r.outputs {
                all.extend_from_slice(&std::fs::read(p).unwrap());
            }
            all
        };
        assert_eq!(cat(&report), cat(&direct));
        assert!(report.preprocess_time > Duration::ZERO);
    }

    #[test]
    fn resume_rebuilds_only_the_damaged_shard_byte_identically() {
        let ds = dataset(800);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamxConverter::new(ConvertConfig::with_ranks(4));
        let prep = conv.preprocess_source(&src, dir.path(), "x").unwrap();
        let snapshots: Vec<Vec<u8>> =
            prep.shards.iter().map(|s| std::fs::read(&s.bamx_path).unwrap()).collect();

        // Simulate a torn write: truncate shard 2's BAMX mid-body.
        let victim = &prep.shards[2].bamx_path;
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();

        let repo = ShardRepo::open(dir.path()).unwrap();
        assert!(!repo.verify().unwrap().is_clean());
        let resumed = conv.preprocess_source_repo(&src, &repo, "x", true).unwrap();
        for (rank, shard) in resumed.shards.iter().enumerate() {
            assert_eq!(shard.resumed, rank != 2, "only the torn shard rebuilds");
            assert_eq!(std::fs::read(&shard.bamx_path).unwrap(), snapshots[rank]);
        }
        assert!(repo.verify().unwrap().is_clean());
        assert_eq!(resumed.records(), 800);
    }

    #[test]
    fn rank_count_change_forces_rebuild_and_prunes_stale_shards() {
        let ds = dataset(500);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let wide = SamxConverter::new(ConvertConfig::with_ranks(4));
        wide.preprocess_source(&src, dir.path(), "x").unwrap();

        let narrow = SamxConverter::new(ConvertConfig::with_ranks(2));
        let repo = ShardRepo::open(dir.path()).unwrap();
        let prep = narrow.preprocess_source_repo(&src, &repo, "x", true).unwrap();
        assert!(prep.shards.iter().all(|s| !s.resumed), "ranks mismatch disables resume");
        assert_eq!(prep.records(), 500);
        // Shards 2 and 3 from the 4-rank run are gone from manifest and disk.
        let manifest = repo.manifest().unwrap();
        assert!(manifest.entries.keys().all(|n| !n.contains("shard0002")));
        assert!(!dir.path().join("x.shard0003.bamx").exists());
        assert!(repo.verify().unwrap().is_clean());
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let ds = dataset(100);
        let src = MemSource::new(ds.to_sam_bytes());
        let dir = tempdir().unwrap();
        let conv = SamxConverter::new(ConvertConfig::with_ranks(1));
        let prep = conv.preprocess_source(&src, dir.path(), "x").unwrap();
        assert_eq!(prep.shards.len(), 1);
        assert_eq!(prep.records(), 100);
    }
}
