//! The streaming collate engine: pipeline graph → keyed regroup →
//! workload-specific group processing, with `collate.*` observability.
//!
//! One graph shape serves every workload:
//!
//! ```text
//! source ──▶ [collate-key × workers] ──▶ regroup sink (ordered)
//! ```
//!
//! The parallel key stage is 1:1 and pure, the ordered sink stamps
//! arrival seqs in global source order, and the post-merge group loop
//! runs on the caller's thread — so output is byte-identical for any
//! worker count, batch size, or spill budget (see DESIGN.md §10.5 and
//! `tests/collate_identity.rs`). Duplicate marking adds a second
//! regroup keyed by arrival seq to restore input order after the
//! signature shuffle; it reuses the same spill machinery under
//! `restore.*` run names.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ngs_bamx::repo::RepoFs;
use ngs_formats::error::{Error, Result};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_obs::Registry;
use ngs_pipeline::clock::{Clock, SystemClock};
use ngs_pipeline::convert::validate_shards;
use ngs_pipeline::regroup::{RegroupConfig, RegroupSink, RegroupStats, Regrouper};
use ngs_pipeline::{
    record_source, stage_fn, Batch, Graph, Keyed, PipelineConfig, PipelineMetrics, ShardInput,
    ShardQuarantine, SourceCtx,
};

use crate::codec::RecordCodec;
use crate::keys;
use crate::workloads::{collate_group_order, markdup_group, WorkloadCounts};
use crate::{SortBy, Workload};

/// Sizing, placement, and observability knobs for a [`Collator`].
#[derive(Clone)]
pub struct CollateConfig {
    /// Engine sizing (workers, batch size, channel bound, retries).
    pub pipeline: PipelineConfig,
    /// Regroup buffer budget in gauge bytes; `0` = fully in-memory.
    pub spill_budget: u64,
    /// Spill directory (one crash-safe repo per regroup phase lives
    /// under it). Required when `spill_budget > 0`.
    pub spill_dir: Option<PathBuf>,
    /// Merge read-buffer bytes per spilled run.
    pub merge_read_buffer: usize,
    /// Filesystem seam for spill publication (fault injection).
    pub spill_fs: Option<Arc<dyn RepoFs>>,
    /// Registry receiving `collate.*` and `pipeline.*` metrics.
    pub obs: Option<Arc<Registry>>,
}

impl Default for CollateConfig {
    fn default() -> Self {
        CollateConfig {
            pipeline: PipelineConfig::default(),
            spill_budget: 0,
            spill_dir: None,
            merge_read_buffer: 64 * 1024,
            spill_fs: None,
            obs: None,
        }
    }
}

/// Result of one collate run.
#[derive(Debug)]
pub struct CollateRun {
    /// Records that entered the graph.
    pub records_in: u64,
    /// Records emitted to the caller.
    pub records_out: u64,
    /// Workload tallies (pairs joined, singletons, duplicates marked).
    pub counts: WorkloadCounts,
    /// Shuffle-phase regroup stats (spill runs, bytes, merge fan-in).
    pub regroup: RegroupStats,
    /// Order-restore regroup stats (duplicate marking only).
    pub restore: Option<RegroupStats>,
    /// Per-stage graph metrics.
    pub metrics: PipelineMetrics,
    /// Shards abandoned on structural corruption (shard runs only).
    pub quarantined: Vec<ShardQuarantine>,
    /// Transient read faults absorbed by in-source retries.
    pub transient_retries: u64,
    /// Wall time on the engine's clock (zero under a `ManualClock`).
    pub elapsed: Duration,
}

/// Drives the three regroup workloads over the streaming engine.
pub struct Collator {
    /// Engine configuration.
    pub config: CollateConfig,
    clock: Arc<dyn Clock>,
}

impl Collator {
    /// A collator on the system clock.
    pub fn new(config: CollateConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// A collator on an injected clock (deterministic tests).
    pub fn with_clock(config: CollateConfig, clock: Arc<dyn Clock>) -> Self {
        Collator { config, clock }
    }

    /// Runs `workload` over an in-memory record vector, streaming the
    /// result to `emit` in the workload's deterministic output order.
    pub fn run_records(
        &self,
        header: &SamHeader,
        records: Vec<AlignmentRecord>,
        workload: Workload,
        emit: &mut dyn FnMut(AlignmentRecord) -> Result<()>,
    ) -> Result<CollateRun> {
        let batch = self.config.pipeline.batch_size.max(1);
        let source = move |ctx: &mut SourceCtx<AlignmentRecord>| {
            let mut iter = records.into_iter();
            loop {
                let chunk: Vec<AlignmentRecord> = iter.by_ref().take(batch).collect();
                if chunk.is_empty() {
                    return Ok(());
                }
                ctx.emit(chunk)?;
            }
        };
        self.run_source(header.clone(), source, workload, emit, Vec::new(), 0)
    }

    /// Runs `workload` over BAMX shards with the pipeline fault policy:
    /// transient reads retry at the source, structurally corrupt shards
    /// quarantine and the graph drains the rest.
    pub fn run_shards(
        &self,
        shards: Vec<ShardInput>,
        workload: Workload,
        emit: &mut dyn FnMut(AlignmentRecord) -> Result<()>,
    ) -> Result<CollateRun> {
        let header = validate_shards(&shards)?;
        let quarantined = Arc::new(Mutex::new(Vec::new()));
        let retries = Arc::new(AtomicU64::new(0));
        let source = record_source(
            shards,
            self.config.pipeline.batch_size.max(1),
            Arc::clone(&quarantined),
            Arc::clone(&retries),
        );
        let run = self.run_source(header, source, workload, emit, Vec::new(), 0);
        run.map(|mut r| {
            r.quarantined = quarantined.lock().map(|q| q.clone()).unwrap_or_default();
            r.transient_retries = retries.load(Ordering::Relaxed);
            r
        })
    }

    /// Shared driver: graph → regroup → workload group loop → obs.
    fn run_source<F>(
        &self,
        header: SamHeader,
        source: F,
        workload: Workload,
        emit: &mut dyn FnMut(AlignmentRecord) -> Result<()>,
        quarantined: Vec<ShardQuarantine>,
        transient_retries: u64,
    ) -> Result<CollateRun>
    where
        F: FnOnce(&mut SourceCtx<AlignmentRecord>) -> Result<()> + Send + 'static,
    {
        let t0 = self.clock.now();
        let header = Arc::new(header);
        let key_fn = keys::key_fn_for(workload, Arc::clone(&header));
        let codec = Arc::new(RecordCodec { header: Arc::clone(&header) });

        let graph = Graph::source(
            self.config.pipeline.clone(),
            Arc::clone(&self.clock),
            "collate-source",
            source,
        )
        .stage("collate-key", self.config.pipeline.workers.max(1), move |_| {
            let key_fn = Arc::clone(&key_fn);
            stage_fn(move |b: Batch<AlignmentRecord>| {
                Ok(Batch {
                    seq: b.seq,
                    items: b
                        .items
                        .into_iter()
                        .map(|rec| Keyed { key: key_fn(&rec), item: rec })
                        .collect(),
                })
            })
        });

        let regrouper = self.regrouper(&codec, workload.stem())?;
        let (mut merged, metrics) =
            graph.run("collate-regroup", RegroupSink::new(regrouper))?;

        let mut counts = WorkloadCounts::default();
        let mut records_out = 0u64;
        let mut emit_counted = |rec: AlignmentRecord| -> Result<()> {
            records_out += 1;
            emit(rec)
        };

        let mut restore_stats = None;
        match workload {
            Workload::Sort(SortBy::Coordinate) | Workload::Sort(SortBy::QueryName) => {
                while let Some((_, _, rec)) = merged.next_entry()? {
                    emit_counted(rec)?;
                }
            }
            Workload::Collate => {
                let mut group = Vec::new();
                while merged.next_group(&mut group)?.is_some() {
                    for idx in collate_group_order(&group, &mut counts) {
                        emit_counted(group[idx].clone())?;
                    }
                }
            }
            Workload::MarkDup => {
                // Phase 2: decide per signature group, then regroup by
                // arrival seq to restore input order.
                let mut restore = self.regrouper(&codec, "restore")?;
                let mut group: Vec<(u64, AlignmentRecord)> = Vec::new();
                let mut group_key: Option<Vec<u8>> = None;
                let mut flush = |key: &[u8],
                                 group: &mut Vec<(u64, AlignmentRecord)>,
                                 restore: &mut Regrouper<AlignmentRecord>|
                 -> Result<()> {
                    markdup_group(key, group, &mut counts);
                    for (seq, rec) in group.drain(..) {
                        restore.push(seq.to_be_bytes().to_vec(), rec)?;
                    }
                    Ok(())
                };
                while let Some((key, seq, rec)) = merged.next_entry()? {
                    if group_key.as_deref() != Some(key.as_slice()) {
                        if let Some(k) = group_key.take() {
                            flush(&k, &mut group, &mut restore)?;
                        }
                        group_key = Some(key);
                    }
                    group.push((seq, rec));
                }
                if let Some(k) = group_key.take() {
                    flush(&k, &mut group, &mut restore)?;
                }
                let mut restored = restore.finish()?;
                while let Some((_, _, rec)) = restored.next_entry()? {
                    emit_counted(rec)?;
                }
                restore_stats = Some(restored.stats().clone());
            }
        }

        let regroup = merged.stats().clone();
        drop(merged);
        let records_in = metrics.stages.first().map(|s| s.items_out).unwrap_or(0);
        let run = CollateRun {
            records_in,
            records_out,
            counts,
            regroup,
            restore: restore_stats,
            metrics,
            quarantined,
            transient_retries,
            elapsed: self.clock.now().saturating_sub(t0),
        };
        if let Some(registry) = &self.config.obs {
            publish(registry, &run);
        }
        Ok(run)
    }

    /// Builds the regroup for one phase, rooted at
    /// `spill_dir/{stem}` so concurrent phases never share run names.
    fn regrouper(
        &self,
        codec: &Arc<RecordCodec>,
        stem: &str,
    ) -> Result<Regrouper<AlignmentRecord>> {
        if self.config.spill_budget > 0 && self.config.spill_dir.is_none() {
            return Err(Error::InvalidRecord(
                "collate: spill_budget > 0 requires a spill_dir".into(),
            ));
        }
        let config = RegroupConfig {
            spill_budget: self.config.spill_budget,
            spill_dir: self.config.spill_dir.as_ref().map(|d| d.join(stem)),
            run_stem: stem.to_string(),
            merge_read_buffer: self.config.merge_read_buffer,
            spill_fs: self.config.spill_fs.clone(),
        };
        Regrouper::with_gauge(
            config,
            Arc::clone(codec) as Arc<dyn ngs_pipeline::SpillCodec<AlignmentRecord>>,
            Arc::new(ngs_pipeline::MemoryGauge::new()),
        )
    }
}

impl Workload {
    /// Deterministic spill-run stem (and spill subdirectory) for the
    /// workload's shuffle phase.
    pub fn stem(&self) -> &'static str {
        match self {
            Workload::Collate => "collate",
            Workload::MarkDup => "markdup",
            Workload::Sort(SortBy::Coordinate) => "sort-coord",
            Workload::Sort(SortBy::QueryName) => "sort-name",
        }
    }
}

/// Publishes one run into the shared registry: `collate.*` summary
/// counters/gauges/histograms plus the per-stage `pipeline.collate-*`
/// names from [`PipelineMetrics::publish`]. Repeated runs accumulate.
fn publish(registry: &Registry, run: &CollateRun) {
    registry.counter("collate.runs").inc();
    registry.counter("collate.records_in").add(run.records_in);
    registry.counter("collate.records_out").add(run.records_out);
    registry.counter("collate.pairs_joined").add(run.counts.pairs_joined);
    registry.counter("collate.singletons").add(run.counts.singletons);
    registry.counter("collate.duplicates_marked").add(run.counts.duplicates_marked);
    registry.counter("collate.quarantined").add(run.quarantined.len() as u64);
    registry.counter("collate.transient_retries").add(run.transient_retries);
    let phases: Vec<&RegroupStats> =
        std::iter::once(&run.regroup).chain(run.restore.as_ref()).collect();
    let mut peak = 0u64;
    for stats in phases {
        registry.counter("collate.spill.runs").add(stats.spill_runs);
        registry.counter("collate.spill.items").add(stats.spilled_items);
        registry.counter("collate.spill.bytes").add(stats.spilled_bytes);
        for &bytes in &stats.run_bytes {
            registry.histogram("collate.spill.run_bytes").record(bytes);
        }
        peak = peak.max(stats.peak_buffered_bytes);
    }
    registry.gauge("collate.merge_fan_in").set(run.regroup.merge_fan_in);
    registry.gauge("collate.peak_buffered_bytes").set(peak);
    registry.histogram("collate.run_elapsed_ns").record_duration(run.elapsed);
    run.metrics.publish(registry);
}
