//! The streaming convert graph: shard-decode → convert → format-emit.
//!
//! Streams `RecordConverter` output without ever materializing the full
//! record vector: the source decodes bounded record batches from BAMX
//! shards, a worker pool converts each batch to target-format bytes, and
//! an ordered sink writes them in global record order — so the part file
//! is **byte-identical** to the one-shot
//! `BamConverter::convert_partial` / `convert_index_list` output for the
//! same records (same name formula, same prologue, same bytes; enforced
//! by `tests/streaming_identity.rs` and the query-engine suite).
//!
//! Fault model (DESIGN.md §7): transient I/O errors are retried inside
//! the source up to the configured budget; a structural `DecodeError`
//! quarantines the offending shard — the source stops reading it,
//! records the quarantine, and continues with the remaining shards while
//! the graph drains cleanly.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ngs_bamx::BamxFile;
use ngs_converter::runtime::RankOutput;
use ngs_converter::target::builtin;
use ngs_converter::TargetFormat;
use ngs_formats::error::{Error, Result};
use ngs_formats::record::AlignmentRecord;

use crate::clock::{Clock, SystemClock};
use crate::engine::{stage_fn, Batch, Graph, PipelineConfig, Sink, SourceCtx, Stage};
use crate::metrics::PipelineMetrics;

/// One BAMX shard feeding a streaming graph.
pub struct ShardInput {
    /// Shard name used in quarantine reports.
    pub name: String,
    /// Open shard handle (cached handles from `ngs-query` plug in here).
    pub bamx: Arc<BamxFile>,
    /// Sorted record indices to stream (`None` = every record) — the
    /// same work unit as `convert_index_list`.
    pub indices: Option<Vec<u64>>,
}

/// A shard the source abandoned after a structural decode error.
#[derive(Debug, Clone)]
pub struct ShardQuarantine {
    /// The shard's [`ShardInput::name`].
    pub shard: String,
    /// The decode error that condemned it.
    pub error: String,
}

/// Result of one streaming conversion run.
#[derive(Debug)]
pub struct ConvertRun {
    /// The part file produced (`{stem}.part{rank:04}.{ext}`).
    pub path: PathBuf,
    /// Records decoded from the shards.
    pub records_in: u64,
    /// Target objects emitted (some formats skip records).
    pub records_out: u64,
    /// Output bytes written.
    pub bytes_out: u64,
    /// Per-stage metrics and the peak-working-set proxy.
    pub metrics: PipelineMetrics,
    /// Shards abandoned on structural corruption (output is partial when
    /// non-empty).
    pub quarantined: Vec<ShardQuarantine>,
    /// Transient read faults absorbed by in-source retries.
    pub transient_retries: u64,
}

/// The streaming counterpart of `BamConverter`: drives the convert
/// graph over one or more shards.
pub struct StreamConverter {
    /// Engine sizing (workers, batch size, channel bound, retries).
    pub config: PipelineConfig,
    /// Output write-buffer size (matches `ConvertConfig::write_buffer`).
    pub write_buffer: usize,
    clock: Arc<dyn Clock>,
}

impl StreamConverter {
    /// A converter on the system clock.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// A converter on an injected clock (deterministic tests).
    pub fn with_clock(config: PipelineConfig, clock: Arc<dyn Clock>) -> Self {
        StreamConverter { config, write_buffer: 1 << 20, clock }
    }

    /// Streams `shards` into `out_dir/{stem}.part{rank:04}.{ext}`.
    ///
    /// `rank` and `write_prologue` mirror `convert_index_list`, so a
    /// single-shard run with `rank = 0, write_prologue = true` is
    /// byte-identical to the one-shot path. All shards must share the
    /// first shard's reference dictionary.
    pub fn convert(
        &self,
        shards: Vec<ShardInput>,
        target: TargetFormat,
        out_dir: &Path,
        stem: &str,
        rank: usize,
        write_prologue: bool,
    ) -> Result<ConvertRun> {
        let header = validate_shards(&shards)?;
        std::fs::create_dir_all(out_dir)?;

        let quarantined = Arc::new(Mutex::new(Vec::new()));
        let retries = Arc::new(AtomicU64::new(0));
        let records_out = Arc::new(AtomicU64::new(0));
        let source = record_source(
            shards,
            self.config.batch_size.max(1),
            Arc::clone(&quarantined),
            Arc::clone(&retries),
        );
        let graph = Graph::source(
            self.config.clone(),
            Arc::clone(&self.clock),
            "shard-decode",
            source,
        );

        let ((path, out_count, bytes_out), metrics) = match target {
            TargetFormat::Bam => {
                let out = RankOutput::create(out_dir, stem, rank, "bam", self.write_buffer)?;
                let sink = BamSink {
                    writer: ngs_formats::bam::BamWriter::new(out, header)?,
                    records_out: 0,
                };
                // BAM re-encoding is stateful and sequential; the
                // parallel stage is a pass-through so decode and encode
                // still overlap.
                graph
                    .stage("convert", 1, |_| stage_fn(Ok))
                    .run("format-emit", sink)?
            }
            other => {
                // Converters are `Send + Sync` with `&self` conversion,
                // so one instance serves every worker.
                let converter: Arc<dyn ngs_converter::RecordConverter> =
                    Arc::from(builtin(other).ok_or_else(|| {
                        Error::InvalidRecord(format!("no line converter for {other:?}"))
                    })?);
                let mut out = RankOutput::create(
                    out_dir,
                    stem,
                    rank,
                    converter.extension(),
                    self.write_buffer,
                )?;
                if write_prologue {
                    let mut prologue = Vec::new();
                    converter.prologue(&header, &mut prologue);
                    out.write_all(&prologue)?;
                }
                let counter = Arc::clone(&records_out);
                graph
                    .stage("convert", self.config.workers.max(1), move |_| {
                        Box::new(ConvertStage {
                            converter: Arc::clone(&converter),
                            out_count: Arc::clone(&counter),
                        }) as Box<dyn Stage<AlignmentRecord, u8>>
                    })
                    .run("format-emit", LineSink { out })?
            }
        };

        let records_in = metrics.stages.first().map(|s| s.items_out).unwrap_or(0);
        let quarantined = quarantined.lock().map(|q| q.clone()).unwrap_or_default();
        Ok(ConvertRun {
            path,
            records_in,
            records_out: out_count + records_out.load(Ordering::Relaxed),
            bytes_out,
            metrics,
            quarantined,
            transient_retries: retries.load(Ordering::Relaxed),
        })
    }
}

/// Checks every shard against the first shard's reference dictionary and
/// returns that header.
pub fn validate_shards(shards: &[ShardInput]) -> Result<ngs_formats::header::SamHeader> {
    let first = shards.first().ok_or_else(|| {
        Error::InvalidRecord("streaming conversion needs at least one shard".into())
    })?;
    let header = first.bamx.header().clone();
    for s in &shards[1..] {
        let refs = &s.bamx.header().references;
        let same = refs.len() == header.references.len()
            && refs
                .iter()
                .zip(&header.references)
                .all(|(a, b)| a.name == b.name && a.length == b.length);
        if !same {
            return Err(Error::InvalidRecord(format!(
                "shard {:?} has a different reference dictionary than {:?}",
                s.name, first.name
            )));
        }
    }
    Ok(header)
}

/// Builds the shared record source for the pipeline graphs (including
/// downstream crates like `ngs-collate`): decodes bounded batches per
/// shard (coalescing index runs exactly like `convert_index_list`),
/// retries transient I/O in place, and quarantines structurally corrupt
/// shards without failing the run.
pub fn record_source(
    shards: Vec<ShardInput>,
    batch_size: usize,
    quarantined: Arc<Mutex<Vec<ShardQuarantine>>>,
    retries: Arc<AtomicU64>,
) -> impl FnOnce(&mut SourceCtx<AlignmentRecord>) -> Result<()> {
    move |ctx| {
        for shard in shards {
            match stream_shard(&shard, batch_size, &retries, ctx) {
                Ok(()) => {}
                // Transient budget exhausted or graph cancelled: the
                // run itself fails (cleanly drained by the engine).
                Err(e) if e.is_transient() => return Err(e),
                Err(e) if ctx.is_cancelled() => return Err(e),
                // Structural corruption: quarantine this shard, keep
                // streaming the others.
                Err(e) => {
                    if let Ok(mut q) = quarantined.lock() {
                        q.push(ShardQuarantine {
                            shard: shard.name.clone(),
                            error: e.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Streams one shard's records into the graph in `batch_size` chunks.
fn stream_shard(
    shard: &ShardInput,
    batch_size: usize,
    retries: &AtomicU64,
    ctx: &mut SourceCtx<AlignmentRecord>,
) -> Result<()> {
    let attempts = ctx.retry_attempts().max(1);
    let read = |lo: u64, hi: u64| -> Result<Vec<AlignmentRecord>> {
        let mut attempt = 0u32;
        loop {
            match shard.bamx.read_range(lo, hi) {
                Ok(records) => return Ok(records),
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    attempt += 1;
                    retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    };
    match &shard.indices {
        None => {
            let n = shard.bamx.len();
            let mut cur = 0u64;
            while cur < n {
                let hi = (cur + batch_size as u64).min(n);
                ctx.emit(read(cur, hi)?)?;
                cur = hi;
            }
        }
        Some(indices) => {
            // Coalesce consecutive runs of indices into range reads,
            // exactly as `convert_index_list` does, then split runs into
            // bounded batches.
            let mut i = 0usize;
            while i < indices.len() {
                let run_start = indices[i];
                let mut j = i + 1;
                while j < indices.len() && indices[j] == indices[j - 1] + 1 {
                    j += 1;
                }
                let run_end = indices[j - 1] + 1;
                let mut cur = run_start;
                while cur < run_end {
                    let hi = (cur + batch_size as u64).min(run_end);
                    ctx.emit(read(cur, hi)?)?;
                    cur = hi;
                }
                i = j;
            }
        }
    }
    Ok(())
}

/// Worker-local conversion of record batches to target-format bytes.
struct ConvertStage {
    converter: Arc<dyn ngs_converter::RecordConverter>,
    out_count: Arc<AtomicU64>,
}

impl Stage<AlignmentRecord, u8> for ConvertStage {
    fn process(&mut self, batch: Batch<AlignmentRecord>, out: &mut Vec<Batch<u8>>) -> Result<()> {
        let mut buf = Vec::with_capacity(batch.items.len() * 64);
        let mut emitted = 0u64;
        for rec in &batch.items {
            if self.converter.convert(rec, &mut buf) {
                emitted += 1;
            }
        }
        self.out_count.fetch_add(emitted, Ordering::Relaxed);
        out.push(Batch { seq: batch.seq, items: buf });
        Ok(())
    }
}

/// Ordered byte sink over the converter's per-rank output writer.
struct LineSink {
    out: RankOutput,
}

impl Sink<u8> for LineSink {
    type Output = (PathBuf, u64, u64);

    fn absorb(&mut self, batch: Batch<u8>) -> Result<()> {
        if batch.items.is_empty() {
            return Ok(());
        }
        Ok(self.out.write_all(&batch.items)?)
    }

    fn finish(self) -> Result<(PathBuf, u64, u64)> {
        let (path, bytes) = self.out.finish()?;
        // records_out is tallied by the convert stage for line formats.
        Ok((path, 0, bytes))
    }
}

/// Ordered BAM re-encoding sink.
struct BamSink {
    writer: ngs_formats::bam::BamWriter<RankOutput>,
    records_out: u64,
}

impl Sink<AlignmentRecord> for BamSink {
    type Output = (PathBuf, u64, u64);

    fn absorb(&mut self, batch: Batch<AlignmentRecord>) -> Result<()> {
        for rec in &batch.items {
            self.writer.write_record(rec)?;
            self.records_out += 1;
        }
        Ok(())
    }

    fn finish(self) -> Result<(PathBuf, u64, u64)> {
        let (path, bytes) = self.writer.finish()?.finish()?;
        Ok((path, self.records_out, bytes))
    }
}
