//! Decomposed operations of the traced run: the same work as the facade
//! call, done by calling each layer's public functions in turn, every
//! call a child span. What the facade adds on top (rank start-up,
//! partition collectives, the engine's queue and hand-off) is what is
//! left when the children are subtracted from the composed operation.
//!
//! Operations that run on `nproc` ranks keep that shape: one `rank` span
//! per thread under the root, layer calls under the rank. The layer times
//! of such an operation are those of its slowest rank — the one the
//! caller waits for.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ngs_bamx::repo::{
    fingerprint_of, layout_fingerprint_versioned, ManifestEntry, ShardRepo, FINGERPRINT_NONE,
};
use ngs_bamx::{
    AnyBamxWriter, Baix, BamxCompression, BamxFile, BamxLayout, BamxVersion, ColumnSet, Region,
};
use ngs_converter::partition::{partition_serial, Variant};
use ngs_converter::runtime::scan_sam_header;
use ngs_converter::target::{builtin, RecordConverter};
use ngs_converter::{ByteSource, FileSource, TargetFormat};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;
use ngs_stats::CoverageHistogram;

use crate::fixture::BATCH_INPUT;
use crate::ops::{published_bytes, Counts, Ctx, Kind, Op};
use crate::probes::decode_bam_stream;
use crate::spans::{self_times, Recorder, Span, LAYERS};
use crate::spec::{CACHE_CAPACITY, COVERAGE_BIN};
use crate::BenchResult;

/// Records per `read_range_projected` call, as the converter batches them.
const READ_BATCH: u64 = 2_048;
/// Output is handed to the part file in chunks of this size.
const EMIT_CHUNK: usize = 64 * 1024;

/// Where the child spans of one operation (or one of its ranks) attach.
#[derive(Clone, Copy)]
struct At<'a> {
    rec: &'a Recorder,
    trace: u64,
    parent: u64,
}

impl<'a> At<'a> {
    fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.rec
            .child(self.trace, self.parent, layer, name, count, f)
    }

    /// Runs `f` as rank `rank`'s span; children made through the `At`
    /// handed to `f` attach to it.
    fn rank<T>(&self, rank: usize, f: impl FnOnce(At<'a>) -> T) -> T {
        let id = self.rec.reserve_id();
        let start = self.rec.now_ns();
        let out = f(At {
            parent: id,
            ..*self
        });
        self.rec.finish(
            id,
            self.trace,
            self.parent,
            "bench",
            "rank",
            start,
            rank as u64,
        );
        out
    }
}

/// Seconds per layer, in [`LAYERS`] order.
pub type LayerTimes = [f64; LAYERS.len()];

/// Layer times of one operation from its spans (root, optional rank
/// spans, leaves): leaves directly under the root, plus the leaves of the
/// longest rank.
pub fn critical_path(spans: &[Span]) -> LayerTimes {
    let own = self_times(spans);
    let root = spans
        .iter()
        .find(|s| s.parent_id == 0)
        .map_or(0, |s| s.span_id);
    let slowest_rank = spans
        .iter()
        .filter(|s| s.parent_id == root && s.layer == "bench")
        .max_by_key(|s| s.end_ns - s.start_ns)
        .map(|s| s.span_id);
    let mut times = [0.0; LAYERS.len()];
    for s in spans {
        if s.parent_id == root || Some(s.parent_id) == slowest_rank {
            if let Some(slot) = LAYERS.iter().position(|l| *l == s.layer) {
                times[slot] += own[&s.span_id] as f64 / 1e9;
            }
        }
    }
    times
}

/// An open shard as the engine's store caches it.
type Cached = (Arc<BamxFile>, Arc<Baix>);

/// Runs decomposed operations and records their spans.
pub struct Decomposer<'a> {
    ctx: &'a Ctx,
    rec: &'a Recorder,
    out: PathBuf,
    /// Model of the engine's shard cache (plain LRU, least recent first)
    /// so decomposed requests miss exactly where served ones do.
    cache: Vec<(String, Cached)>,
    next_trace: u64,
}

impl<'a> Decomposer<'a> {
    /// A decomposer writing its outputs under `out`; trace ids continue
    /// from `first_trace`.
    pub fn new(ctx: &'a Ctx, rec: &'a Recorder, out: PathBuf, first_trace: u64) -> Self {
        Decomposer {
            ctx,
            rec,
            out,
            cache: Vec::new(),
            next_trace: first_trace,
        }
    }

    /// Runs distinct operation `id` decomposed. Returns its counts and
    /// its layer times on the critical path.
    pub fn run(&mut self, id: usize) -> BenchResult<(Counts, LayerTimes)> {
        let trace = self.next_trace;
        self.next_trace += 1;
        let dir = self.out.join(format!("op{id}"));
        std::fs::create_dir_all(&dir)?;
        let first_span = self.rec.len();
        let root = self.rec.reserve_id();
        let start = self.rec.now_ns();
        let at = At {
            rec: self.rec,
            trace,
            parent: root,
        };
        let op = self.ctx.ops[id];
        let counts = match op {
            Op::PreprocessBam(version) => self.preprocess_bam(at, version, &dir),
            Op::PreprocessSamx => self.preprocess_samx(at, &dir),
            Op::ConvertBamx(format) => self.convert_bamx(at, format, &dir),
            Op::ConvertSam(format) => self.convert_sam(at, format, &dir),
            Op::ConvertPartial(r) => self.convert_partial(at, r, &dir),
            Op::Serve(t) => self.serve(at, t.region, t.kind, &dir),
        };
        self.rec
            .finish(root, trace, 0, "bench", op.label(), start, 0);
        Ok((counts?, critical_path(&self.rec.since(first_span))))
    }

    // ---- ingest ---------------------------------------------------------

    /// One pass over the BAM input: file read, BGZF inflate, record decode.
    fn decode_bam(&self, at: At, path: &Path) -> BenchResult<(SamHeader, Vec<AlignmentRecord>)> {
        let bytes = at.span("fs", "read_input", 0, || std::fs::read(path))?;
        let raw = at.span("bgzf", "decompress_sequential", bytes.len() as u64, || {
            ngs_bgzf::decompress_sequential(&bytes)
        })?;
        at.span("formats", "bam_decode", raw.len() as u64, || {
            decode_bam_stream(&raw)
        })
    }

    fn preprocess_bam(&self, at: At, version: BamxVersion, dir: &Path) -> BenchResult<Counts> {
        let input = self.ctx.fx.bam(BATCH_INPUT);
        let repo = at.span("bamx", "repo_open", 0, || -> BenchResult<ShardRepo> {
            let repo = ShardRepo::create(dir)?;
            repo.set_meta("compression", "plain")?;
            repo.set_meta("format", version.name())?;
            Ok(repo)
        })?;
        // Two passes, as `BamConverter::preprocess` makes them: layout
        // maxima first, then the padded records.
        let (_, records) = self.decode_bam(at, &input)?;
        let n = records.len() as u64;
        let layout = at.span("bamx", "layout", n, || BamxLayout::compute(&records))?;
        drop(records);
        let (header, records) = self.decode_bam(at, &input)?;
        let entries = publish_shard(at, &repo, BATCH_INPUT, version, header, layout, &records)?;
        at.span("bamx", "manifest_record", 0, || repo.record(entries))?;
        let stems = [BATCH_INPUT.to_string()];
        Ok(Counts {
            records_in: n,
            records_out: BamxFile::open(dir.join(format!("{BATCH_INPUT}.bamx")))?.len(),
            bytes_out: published_bytes(dir, &stems)?,
        })
    }

    fn preprocess_samx(&self, at: At, dir: &Path) -> BenchResult<Counts> {
        let ranks = self.ctx.ranks;
        let source = FileSource::open(self.ctx.fx.sam(BATCH_INPUT))?;
        let (header, _) = at.span("converter", "scan_sam_header", 0, || {
            scan_sam_header(&source)
        })?;
        let repo = at.span("bamx", "repo_open", 0, || -> BenchResult<ShardRepo> {
            let repo = ShardRepo::create(dir)?;
            repo.set_meta("ranks", &ranks.to_string())?;
            repo.set_meta("compression", "plain")?;
            repo.set_meta("format", BamxVersion::V1.name())?;
            Ok(repo)
        })?;
        let ranges = at.span("converter", "partition_serial", 0, || {
            partition_serial(&source, ranks, Variant::Forward)
        })?;
        let per_rank: Vec<BenchResult<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .enumerate()
                .map(|(rank, &(lo, hi))| {
                    let (source, repo, header) = (&source, &repo, &header);
                    scope.spawn(move || {
                        at.rank(rank, |at| -> BenchResult<u64> {
                            let parse = || -> BenchResult<Vec<AlignmentRecord>> {
                                let text = at.span("fs", "read_range", hi - lo, || {
                                    source.read_exact_at(lo, (hi - lo) as usize)
                                })?;
                                at.span("formats", "sam_parse", hi - lo, || parse_sam(&text))
                            };
                            let records = parse()?;
                            let n = records.len() as u64;
                            let layout =
                                at.span("bamx", "layout", n, || BamxLayout::compute(&records))?;
                            drop(records);
                            let records = parse()?;
                            let stem = format!("{BATCH_INPUT}.shard{rank:04}");
                            let entries = publish_shard(
                                at,
                                repo,
                                &stem,
                                BamxVersion::V1,
                                header.clone(),
                                layout,
                                &records,
                            )?;
                            at.span("bamx", "manifest_record", 0, || repo.record(entries))?;
                            Ok(n)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread does not panic"))
                .collect()
        });
        let mut n = 0;
        for r in per_rank {
            n += r?;
        }
        let stems: Vec<String> = (0..ranks)
            .map(|rank| format!("{BATCH_INPUT}.shard{rank:04}"))
            .collect();
        Ok(Counts {
            records_in: n,
            records_out: n,
            bytes_out: published_bytes(dir, &stems)?,
        })
    }

    // ---- convert --------------------------------------------------------

    fn convert_bamx(&self, at: At, format: TargetFormat, dir: &Path) -> BenchResult<Counts> {
        let path = self.ctx.fx.bamx(BATCH_INPUT);
        let n = at.span("bamx", "open", 0, || BamxFile::open(&path))?.len();
        let ranks = self.ctx.ranks as u64;
        on_ranks(at, self.ctx.ranks, |at, rank| {
            let shard = at.span("bamx", "open", 0, || BamxFile::open(&path))?;
            let (lo, hi) = (rank as u64 * n / ranks, (rank as u64 + 1) * n / ranks);
            let mut sink = Sink::create(at, dir, BATCH_INPUT, rank, format, shard.header())?;
            let mut cur = lo;
            while cur < hi {
                let end = (cur + READ_BATCH).min(hi);
                sink.range(at, &shard, cur, end)?;
                cur = end;
            }
            sink.finish(at)
        })
    }

    fn convert_sam(&self, at: At, format: TargetFormat, dir: &Path) -> BenchResult<Counts> {
        let source = FileSource::open(self.ctx.fx.sam(BATCH_INPUT))?;
        let (header, _) = at.span("converter", "scan_sam_header", 0, || {
            scan_sam_header(&source)
        })?;
        let ranges = at.span("converter", "partition_serial", 0, || {
            partition_serial(&source, self.ctx.ranks, Variant::Forward)
        })?;
        on_ranks(at, self.ctx.ranks, |at, rank| {
            let (lo, hi) = ranges[rank];
            let text = at.span("fs", "read_range", hi - lo, || {
                source.read_exact_at(lo, (hi - lo) as usize)
            })?;
            let records = at.span("formats", "sam_parse", hi - lo, || parse_sam(&text))?;
            let mut sink = Sink::create(at, dir, BATCH_INPUT, rank, format, &header)?;
            sink.records(at, &records)?;
            sink.finish(at)
        })
    }

    fn convert_partial(&self, at: At, r: usize, dir: &Path) -> BenchResult<Counts> {
        let line = &self.ctx.regions[r];
        let path = self.ctx.fx.bamx(&line.dataset);
        let probe = at.span("bamx", "open", 0, || BamxFile::open(&path))?;
        let baix = at.span("bamx", "baix_load", 0, || {
            Baix::load(self.ctx.fx.baix(&line.dataset))
        })?;
        let (stem, indices) = locate(at, &line.dataset, &line.region, &probe, &baix)?;
        drop(probe);
        on_ranks(at, self.ctx.ranks, |at, rank| {
            let (lo, hi) = (
                rank * indices.len() / self.ctx.ranks,
                (rank + 1) * indices.len() / self.ctx.ranks,
            );
            let shard = at.span("bamx", "open", 0, || BamxFile::open(&path))?;
            let mut sink = Sink::create(at, dir, &stem, rank, TargetFormat::Sam, shard.header())?;
            for (run_lo, run_hi) in runs(&indices[lo..hi]) {
                sink.range(at, &shard, run_lo, run_hi)?;
            }
            sink.finish(at)
        })
    }

    // ---- serve ----------------------------------------------------------

    /// The store's miss path, call by call: both artifacts are read,
    /// CRC-checked against the manifest and fingerprinted, then the shard
    /// is opened and its index loaded.
    fn open_shard(&self, at: At, name: &str) -> BenchResult<Cached> {
        let shards = self.ctx.fx.shards();
        let repo = ShardRepo::open(shards.clone())?;
        for artifact in [format!("{name}.bamx"), format!("{name}.baix")] {
            let entry: ManifestEntry = at
                .span("bamx", "manifest_entry", 0, || repo.manifest())?
                .entry(&artifact)
                .cloned()
                .ok_or_else(|| format!("{artifact} is not in the MANIFEST"))?;
            let bytes = at.span("fs", "read_artifact", entry.len, || {
                std::fs::read(shards.join(&artifact))
            })?;
            let crc = at.span("bgzf", "crc32", entry.len, || {
                ngs_bgzf::crc32::crc32(&bytes)
            });
            let fingerprint = at.span("bamx", "fingerprint_of", entry.len, || {
                fingerprint_of(&artifact, &bytes)
            });
            if bytes.len() as u64 != entry.len
                || crc != entry.crc32
                || fingerprint != entry.fingerprint
            {
                return Err(format!("{artifact} does not verify against the MANIFEST").into());
            }
        }
        let bamx = at.span("bamx", "open", 0, || BamxFile::open(self.ctx.fx.bamx(name)))?;
        let baix = at.span("bamx", "baix_load", 0, || {
            Baix::load(self.ctx.fx.baix(name))
        })?;
        Ok((Arc::new(bamx), Arc::new(baix)))
    }

    fn serve(&mut self, at: At, region: usize, kind: Kind, dir: &Path) -> BenchResult<Counts> {
        let line = &self.ctx.regions[region];
        let (bamx, baix) = match self
            .cache
            .iter()
            .position(|(name, _)| *name == line.dataset)
        {
            Some(hit) => {
                let entry = self.cache.remove(hit);
                self.cache.push(entry);
                self.cache.last().expect("just pushed").1.clone()
            }
            None => {
                let opened = self.open_shard(at, &line.dataset)?;
                self.cache.push((line.dataset.clone(), opened.clone()));
                if self.cache.len() > CACHE_CAPACITY {
                    self.cache.remove(0);
                }
                opened
            }
        };
        let (stem, indices) = locate(at, &line.dataset, &line.region, &bamx, &baix)?;
        match kind.format() {
            Some(format) => {
                let mut sink = Sink::create(at, dir, &stem, 0, format, bamx.header())?;
                for (lo, hi) in runs(&indices) {
                    sink.range(at, &bamx, lo, hi)?;
                }
                sink.finish(at)
            }
            None => {
                let mut hist = CoverageHistogram::new(bamx.header(), COVERAGE_BIN);
                let mut records = 0;
                for (lo, hi) in runs(&indices) {
                    let batch =
                        at.span("bamx", "read_range", hi - lo, || bamx.read_range(lo, hi))?;
                    at.span("query", "coverage_accumulate", hi - lo, || {
                        for rec in &batch {
                            hist.add_alignment(rec);
                        }
                    });
                    records += batch.len() as u64;
                }
                Ok(Counts {
                    records_in: records,
                    records_out: records,
                    bytes_out: (hist.bins.len() * std::mem::size_of::<f64>()) as u64,
                })
            }
        }
    }
}

/// Runs `f(at, rank)` on `ranks` threads, each under its own rank span,
/// and sums the ranks' counts.
fn on_ranks(
    at: At,
    ranks: usize,
    f: impl Fn(At, usize) -> BenchResult<Counts> + Sync,
) -> BenchResult<Counts> {
    let per_rank: Vec<BenchResult<Counts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let f = &f;
                scope.spawn(move || at.rank(rank, |at| f(at, rank)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread does not panic"))
            .collect()
    });
    let mut total = Counts {
        records_in: 0,
        records_out: 0,
        bytes_out: 0,
    };
    for counts in per_rank {
        let counts = counts?;
        total.records_in += counts.records_in;
        total.records_out += counts.records_out;
        total.bytes_out += counts.bytes_out;
    }
    Ok(total)
}

/// `Region::parse` → `Baix::locate` → record indices, plus the part-file
/// stem the converters derive from the region.
fn locate(
    at: At,
    dataset: &str,
    region: &str,
    bamx: &BamxFile,
    baix: &Baix,
) -> BenchResult<(String, Vec<u64>)> {
    at.span("bamx", "region_locate", 0, || {
        let region = Region::parse(region, bamx.header())?;
        let ref_id = region.resolve(bamx.header())?;
        let indices = baix.shard_indices(baix.locate(ref_id, &region));
        Ok((
            format!("{dataset}.{}", region.to_string().replace([':', '-'], "_")),
            indices,
        ))
    })
}

/// Maximal runs of consecutive indices, as `[lo, hi)`.
fn runs(indices: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &i in indices {
        match out.last_mut() {
            Some((_, hi)) if *hi == i => *hi += 1,
            _ => out.push((i, i + 1)),
        }
    }
    out
}

/// Parses the alignment lines of a SAM text slice.
fn parse_sam(text: &[u8]) -> BenchResult<Vec<AlignmentRecord>> {
    let mut records = Vec::new();
    for (i, line) in text.split(|&b| b == b'\n').enumerate() {
        if !line.is_empty() && line[0] != b'@' {
            records.push(sam::parse_record(line, i as u64 + 1)?);
        }
    }
    Ok(records)
}

/// Writes one shard and its index through the repository's staging path
/// and returns the two manifest entries to record.
fn publish_shard(
    at: At,
    repo: &ShardRepo,
    stem: &str,
    version: BamxVersion,
    header: SamHeader,
    layout: BamxLayout,
    records: &[AlignmentRecord],
) -> BenchResult<Vec<ManifestEntry>> {
    let n = records.len() as u64;
    let bamx_name = format!("{stem}.bamx");
    let staged = at.span("bamx", "write_records", n, || -> BenchResult<_> {
        let staged = repo.stage(&bamx_name)?;
        let mut writer = AnyBamxWriter::new(
            version,
            BufWriter::new(staged),
            header,
            layout,
            BamxCompression::Plain,
        )?;
        for record in records {
            writer.write_record(record)?;
        }
        Ok(writer.finish()?.into_inner().map_err(|e| e.into_error())?)
    })?;
    let bamx_entry = at.span("bamx", "seal", staged.len(), || {
        staged.seal(layout_fingerprint_versioned(&layout, version))
    })?;
    let baix = at.span("bamx", "baix_build", n, || -> BenchResult<Baix> {
        Ok(Baix::build(&BamxFile::open(repo.dir().join(&bamx_name))?)?)
    })?;
    let baix_entry = at.span(
        "bamx",
        "baix_publish",
        n,
        || -> BenchResult<ManifestEntry> {
            let mut staged = repo.stage(&format!("{stem}.baix"))?;
            baix.write_to(&mut staged)?;
            Ok(staged.seal(FINGERPRINT_NONE)?)
        },
    )?;
    Ok(vec![bamx_entry, baix_entry])
}

/// One rank's part file: emitter plus buffered output.
struct Sink {
    converter: Box<dyn RecordConverter>,
    columns: ColumnSet,
    file: BufWriter<std::fs::File>,
    buf: Vec<u8>,
    counts: Counts,
}

impl Sink {
    fn create(
        at: At,
        dir: &Path,
        stem: &str,
        rank: usize,
        format: TargetFormat,
        header: &SamHeader,
    ) -> BenchResult<Self> {
        let converter = builtin(format).ok_or("decomposed conversion targets line formats")?;
        let path = dir.join(format!("{stem}.part{rank:04}.{}", converter.extension()));
        let file = at.span("fs", "create_part", 0, || std::fs::File::create(path))?;
        let mut sink = Sink {
            columns: converter.columns(),
            converter,
            file: BufWriter::with_capacity(1 << 20, file),
            buf: Vec::with_capacity(EMIT_CHUNK),
            counts: Counts {
                records_in: 0,
                records_out: 0,
                bytes_out: 0,
            },
        };
        if rank == 0 {
            sink.converter.prologue(header, &mut sink.buf);
            sink.flush_chunk(at)?;
        }
        Ok(sink)
    }

    fn flush_chunk(&mut self, at: At) -> BenchResult<()> {
        let len = self.buf.len() as u64;
        at.span("fs", "write_part", len, || self.file.write_all(&self.buf))?;
        self.counts.bytes_out += len;
        self.buf.clear();
        Ok(())
    }

    /// Reads records `lo..hi` under the emitter's projection and emits them.
    fn range(&mut self, at: At, shard: &BamxFile, lo: u64, hi: u64) -> BenchResult<()> {
        let records = at.span("bamx", "read_range_projected", hi - lo, || {
            shard.read_range_projected(lo, hi, self.columns)
        })?;
        self.records(at, &records)
    }

    fn records(&mut self, at: At, records: &[AlignmentRecord]) -> BenchResult<()> {
        for batch in records.chunks(READ_BATCH as usize) {
            at.span("formats", "emit", batch.len() as u64, || {
                for record in batch {
                    self.counts.records_in += 1;
                    if self.converter.convert(record, &mut self.buf) {
                        self.counts.records_out += 1;
                    }
                }
            });
            if self.buf.len() >= EMIT_CHUNK {
                self.flush_chunk(at)?;
            }
        }
        Ok(())
    }

    fn finish(mut self, at: At) -> BenchResult<Counts> {
        self.flush_chunk(at)?;
        at.span("fs", "flush_part", 0, || self.file.flush())?;
        Ok(self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            count: 0,
        }
    }

    #[test]
    fn critical_path_follows_the_slowest_rank() {
        let spans = vec![
            span(1, 0, "bench", 0, 1_000),
            span(2, 1, "converter", 0, 100),
            span(3, 1, "bench", 100, 500), // rank 0
            span(4, 3, "bamx", 100, 300),
            span(5, 1, "bench", 100, 900), // rank 1, the slow one
            span(6, 5, "bamx", 100, 400),
            span(7, 5, "formats", 400, 850),
        ];
        let times = critical_path(&spans);
        let of = |layer: &str| times[LAYERS.iter().position(|l| *l == layer).unwrap()];
        assert_eq!(of("converter"), 100e-9);
        assert_eq!(of("bamx"), 300e-9);
        assert_eq!(of("formats"), 450e-9);
        assert_eq!(of("bgzf"), 0.0);
    }

    #[test]
    fn runs_coalesce_consecutive_indices() {
        assert_eq!(runs(&[3, 4, 5, 9, 10, 20]), [(3, 6), (9, 11), (20, 21)]);
        assert!(runs(&[]).is_empty());
    }
}
