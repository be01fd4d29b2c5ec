//! One function per table/figure of the paper's evaluation (Section V).
//!
//! The figures run the threaded entry points once per point and plot
//! their *simulated-cluster* busy time (DESIGN.md §4b): serial sections'
//! wall time plus the largest per-rank on-CPU time, what the run would
//! take with a core per rank, so the speedup shapes show on any host.
//! Results are returned as [`Figure`]/[`Table1`] values whose `Display`
//! renders the same rows/series the paper reports.

use std::time::{Duration, Instant};

use ngs_bamx::Region;
use ngs_cluster::time_ranks;
use ngs_converter::{
    BamConverter, ConvertConfig, PicardLikeConverter, SamConverter, SamxConverter, TargetFormat,
};
use ngs_formats::error::Result;
use ngs_stats::{
    build_fdr_input, fdr_parallel, fdr_parallel_two_phase, nlmeans_distributed, NlMeansParams,
    NullModel,
};

use crate::data::{DataCache, Scale};
use crate::series::{to_speedup, Figure, Series, Table1};

/// Shared experiment configuration.
pub struct ExperimentConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Core-count axis for the speedup figures.
    pub cores: Vec<usize>,
    /// Dataset cache.
    pub cache: DataCache,
    /// Repetitions per timing (best-of-N damps timer noise on the tiny
    /// per-rank chunks that high rank counts produce).
    pub repeats: usize,
}

impl ExperimentConfig {
    /// Defaults: scale 1.0, the paper's 1–128 core axis, cache under
    /// `target/`.
    pub fn new(scale: Scale) -> Result<Self> {
        Ok(ExperimentConfig {
            scale,
            cores: vec![1, 2, 4, 8, 16, 32, 64, 128],
            cache: DataCache::default_location()?,
            repeats: 3,
        })
    }

    fn config(&self, ranks: usize) -> ConvertConfig {
        ConvertConfig::with_ranks(ranks)
    }

    /// Best-of-`repeats` timing of a fallible measurement.
    fn best_of(&self, mut f: impl FnMut() -> Result<Duration>) -> Result<Duration> {
        let mut best = f()?;
        for _ in 1..self.repeats.max(1) {
            best = best.min(f()?);
        }
        Ok(best)
    }
}

/// The three conversions the SAM-side figures sweep.
const LINE_TARGETS: [(TargetFormat, &str); 3] = [
    (TargetFormat::Bed, "BED"),
    (TargetFormat::BedGraph, "BEDGRAPH"),
    (TargetFormat::Fasta, "FASTA"),
];

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: sequential SAM→FASTQ and BAM→SAM against the Picard-like
/// baseline. "With preprocessing" reports the conversion phase running
/// off preprocessed BAMX (the preprocessing cost itself is amortizable
/// and reported by Fig 10).
pub fn table1(cfg: &ExperimentConfig) -> Result<Table1> {
    let records = cfg.scale.table1_records();
    // The paper's Table I datasets are restricted to chr1.
    let sam = cfg.cache.sam(records, 1)?;
    let bam = cfg.cache.bam(records, 1)?;
    let mut rows = Vec::new();

    // --- SAM → FASTQ ---
    let out = cfg.cache.scratch("table1-sam")?;
    let t = Instant::now();
    let plain = SamConverter::new(cfg.config(1));
    plain.convert_file(&sam, TargetFormat::Fastq, out.join("without"))?;
    let without = t.elapsed();

    let samx = SamxConverter::new(cfg.config(1));
    let prep = samx.preprocess_file(&sam, out.join("shards"))?;
    let t = Instant::now();
    samx.convert_shards(&prep.shards, TargetFormat::Fastq, out.join("with"))?;
    let with = t.elapsed();

    let t = Instant::now();
    PicardLikeConverter.sam_to_fastq(&sam, out.join("picard.fastq"))?;
    let picard = t.elapsed();
    rows.push(("SAM→FASTQ".to_string(), without, with, picard));

    // --- BAM → SAM ---
    let out = cfg.cache.scratch("table1-bam")?;
    let conv = BamConverter::new(cfg.config(1));
    let t = Instant::now();
    conv.convert_direct(&bam, TargetFormat::Sam, out.join("without"))?;
    let without = t.elapsed();

    let prep = conv.preprocess(&bam, out.join("bamx"))?;
    let t = Instant::now();
    conv.convert_bamx(&prep.bamx_path, TargetFormat::Sam, out.join("with"))?;
    let with = t.elapsed();

    let t = Instant::now();
    PicardLikeConverter.bam_to_sam(&bam, out.join("picard.sam"))?;
    let picard = t.elapsed();
    rows.push(("BAM→SAM".to_string(), without, with, picard));

    Ok(Table1 { rows })
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Figure 6: conversion speedup of the SAM format converter into BED,
/// BEDGRAPH and FASTA.
pub fn fig6(cfg: &ExperimentConfig) -> Result<Figure> {
    let sam = cfg.cache.sam(cfg.scale.fig6_records(), 3)?;
    let source = ngs_converter::FileSource::open(&sam)?;
    let mut fig =
        Figure::new("Figure 6: Conversion Speedup of SAM Format Converter", "speedup");
    for (target, name) in LINE_TARGETS {
        let mut timings = Vec::new();
        for &n in &cfg.cores {
            let conv = SamConverter::new(cfg.config(n));
            let t = cfg.best_of(|| {
                let out = cfg.cache.scratch(&format!("fig6-{name}-{n}"))?;
                Ok(conv.convert_source(&source, target, &out, "x")?.busy)
            })?;
            timings.push((n, t));
        }
        fig.series.push(to_speedup(&format!("SAM→{name}"), &timings));
    }
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7: full-conversion speedup of the BAM format converter
/// (conversion phase over the preprocessed BAMX, as in the paper).
pub fn fig7(cfg: &ExperimentConfig) -> Result<Figure> {
    let bam = cfg.cache.bam(cfg.scale.fig7_records(), 3)?;
    let prep_dir = cfg.cache.scratch("fig7-prep")?;
    let conv = BamConverter::new(cfg.config(1));
    let prep = conv.preprocess(&bam, &prep_dir)?;

    let mut fig =
        Figure::new("Figure 7: Full Conversion Speedup of BAM Format Converter", "speedup");
    for (target, name) in LINE_TARGETS {
        let mut timings = Vec::new();
        for &n in &cfg.cores {
            let conv = BamConverter::new(cfg.config(n));
            let t = cfg.best_of(|| {
                let out = cfg.cache.scratch(&format!("fig7-{name}-{n}"))?;
                Ok(conv.convert_bamx(&prep.bamx_path, target, &out)?.busy)
            })?;
            timings.push((n, t));
        }
        fig.series.push(to_speedup(&format!("BAM→{name}"), &timings));
    }
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Figure 8: partial-conversion times of the BAM format converter for
/// region subsets of 20–100 % of the dataset (BAM→SAM, as in the paper).
pub fn fig8(cfg: &ExperimentConfig) -> Result<Figure> {
    // Single-chromosome dataset so a chr1 interval maps linearly to a
    // fraction of the records.
    let bam = cfg.cache.bam(cfg.scale.fig7_records(), 1)?;
    let prep_dir = cfg.cache.scratch("fig8-prep")?;
    let conv = BamConverter::new(cfg.config(1));
    let prep = conv.preprocess(&bam, &prep_dir)?;
    let header = ngs_bamx::BamxFile::open(&prep.bamx_path)?.header().clone();
    let chr_len = header.references[0].length as i64;

    let mut fig = Figure::new(
        "Figure 8: Partial Conversion Times of BAM Format Converter (BAM→SAM)",
        "milliseconds",
    );
    let cores: Vec<usize> = cfg.cores.iter().copied().filter(|&c| c >= 8).collect();
    let cores = if cores.is_empty() { vec![8, 16, 32, 64, 128] } else { cores };
    for pct in [20u32, 40, 60, 80, 100] {
        let region = Region::new("chr1", 0, chr_len * pct as i64 / 100)?;
        let mut series = Series::new(format!("{pct}% region"));
        for &n in &cores {
            let conv = BamConverter::new(cfg.config(n));
            let t = cfg.best_of(|| {
                let out = cfg.cache.scratch(&format!("fig8-{pct}-{n}"))?;
                let report = conv.convert_partial(
                    &prep.bamx_path,
                    &prep.baix_path,
                    &region,
                    TargetFormat::Sam,
                    &out,
                )?;
                Ok(report.busy)
            })?;
            series.push(n, t.as_secs_f64() * 1e3);
        }
        fig.series.push(series);
    }
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// Figure 9: speedups of the preprocessing-optimized SAM converter
/// (suffix `_P`, conversion phase only) against the original SAM
/// converter, for BED/BEDGRAPH/FASTA.
pub fn fig9(cfg: &ExperimentConfig) -> Result<Figure> {
    let sam = cfg.cache.sam(cfg.scale.fig9_records(), 3)?;
    let source = ngs_converter::FileSource::open(&sam)?;
    let mut fig = Figure::new(
        "Figure 9: Preprocessing-Optimized (\"_P\") vs Original SAM Format Converter",
        "speedup (each family normalized to the original converter's 1-core time)",
    );

    for (target, name) in LINE_TARGETS {
        // Original converter series.
        let mut plain_timings = Vec::new();
        for &n in &cfg.cores {
            let t = cfg.best_of(|| {
                let out = cfg.cache.scratch(&format!("fig9-plain-{name}-{n}"))?;
                let conv = SamConverter::new(cfg.config(n));
                Ok(conv.convert_source(&source, target, &out, "x")?.busy)
            })?;
            plain_timings.push((n, t));
        }
        let base = plain_timings[0].1.as_secs_f64();
        let mut plain = Series::new(format!("SAM→{name}"));
        for (n, t) in &plain_timings {
            plain.push(*n, base / t.as_secs_f64().max(1e-12));
        }
        fig.series.push(plain);

        // Preprocessing-optimized series (conversion only, preprocessing
        // excluded as in the paper's "_P" bars), normalized against the
        // original converter's 1-core time, so the _P series also expose
        // their absolute advantage.
        let samx = SamxConverter::new(cfg.config(1));
        let shards_dir = cfg.cache.scratch(&format!("fig9-shards-{name}"))?;
        let prep = samx.preprocess_source(&source, &shards_dir, "x")?;
        let mut opt = Series::new(format!("SAM→{name}_P"));
        for &n in &cfg.cores {
            let samx_n = SamxConverter::new(cfg.config(n));
            let t = cfg.best_of(|| {
                let out = cfg.cache.scratch(&format!("fig9-opt-{name}-{n}"))?;
                Ok(samx_n.convert_shards(&prep.shards, target, &out)?.busy)
            })?;
            opt.push(n, base / t.as_secs_f64().max(1e-12));
        }
        fig.series.push(opt);
    }
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Figure 10: speedup of the (parallelized) SAM preprocessing step, on
/// the production path: shards and indexes published through the
/// `ShardRepo`.
pub fn fig10(cfg: &ExperimentConfig) -> Result<Figure> {
    let sam = cfg.cache.sam(cfg.scale.fig9_records(), 3)?;
    let source = ngs_converter::FileSource::open(&sam)?;
    let mut fig = Figure::new(
        "Figure 10: Preprocessing Speedup of Preprocessing-Optimized SAM Format Converter",
        "speedup",
    );
    let mut timings = Vec::new();
    for &n in &cfg.cores {
        let samx = SamxConverter::new(cfg.config(n));
        let t = cfg.best_of(|| {
            let out = cfg.cache.scratch(&format!("fig10-{n}"))?;
            Ok(samx.preprocess_source(&source, &out, "x")?.busy)
        })?;
        timings.push((n, t));
    }
    fig.series.push(to_speedup("SAM preprocessing", &timings));
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// Figure 11: NL-means speedup for search radii r ∈ {20, 80, 320}
/// (l = 15, σ = 10, 25 bp bins — the paper's settings).
pub fn fig11(cfg: &ExperimentConfig) -> Result<Figure> {
    let bins = cfg.scale.nlmeans_bins();
    // A coverage-like histogram: Poisson noise around peaky enrichment.
    let mut rng = ngs_simgen::Rng::seed_from_u64(0x11);
    let data: Vec<f64> = (0..bins)
        .map(|i| {
            let enrich = if i % 997 < 40 { 30.0 } else { 0.0 };
            rng.poisson(8.0 + enrich) as f64
        })
        .collect();

    let mut fig = Figure::new("Figure 11: Speedup of NL-means Processing", "speedup");
    for r in [20usize, 80, 320] {
        let params = NlMeansParams { search_radius: r, half_patch: 15, sigma: 10.0 };
        let mut timings = Vec::new();
        for &n in &cfg.cores {
            let t = cfg.best_of(|| Ok(nlmeans_distributed(&data, &params, n).1.makespan()))?;
            timings.push((n, t));
        }
        fig.series.push(to_speedup(&format!("r = {r}"), &timings));
    }
    Ok(fig)
}

// ---------------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------------

/// Figure 12: FDR computation speedup (1 histogram + B simulations),
/// including the summation-permutation ablation (fused single-reduction
/// Algorithm 2 vs the two-barrier unfused version).
pub fn fig12(cfg: &ExperimentConfig) -> Result<Figure> {
    let bins = cfg.scale.fdr_bins();
    let rounds = cfg.scale.fdr_rounds();
    let mut rng = ngs_simgen::Rng::seed_from_u64(0x12);
    let observed: Vec<f64> = (0..bins)
        .map(|i| {
            let enrich = if i % 499 < 12 { 25.0 } else { 0.0 };
            rng.poisson(6.0 + enrich) as f64
        })
        .collect();
    let input = build_fdr_input(observed, rounds, NullModel::Poisson, 0x1214);
    let p_t = rounds as f64 * 0.05;

    // The paper scales FDR to 256 cores.
    let mut cores = cfg.cores.clone();
    if cores.last().copied() == Some(128) {
        cores.push(256);
    }

    let mut fig = Figure::new(
        format!("Figure 12: Speedup of FDR Computation (B = {rounds} simulations)"),
        "speedup",
    );
    let mut fused_timings = Vec::new();
    let mut unfused_timings = Vec::new();
    for &n in &cores {
        let tf = cfg.best_of(|| Ok(fdr_parallel(&input, p_t, n).1.makespan()))?;
        fused_timings.push((n, tf));
        let tu = cfg.best_of(|| Ok(fdr_parallel_two_phase(&input, p_t, n).1.makespan()))?;
        unfused_timings.push((n, tu));
    }
    // Both normalized to the fused 1-core time so the ablation's cost is
    // visible as a lower curve.
    let base = fused_timings[0].1;
    let mut fused = Series::new("Algorithm 2 (fused reduction)");
    for (n, t) in &fused_timings {
        fused.push(*n, base.as_secs_f64() / t.as_secs_f64().max(1e-12));
    }
    let mut unfused = Series::new("two-phase (ablation)");
    for (n, t) in &unfused_timings {
        unfused.push(*n, base.as_secs_f64() / t.as_secs_f64().max(1e-12));
    }
    fig.series.push(fused);
    fig.series.push(unfused);
    Ok(fig)
}

/// Times one closure.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

// ---------------------------------------------------------------------------
// What the drills share
// ---------------------------------------------------------------------------

/// Rank axis of the collate scaling sweep.
const SCALING_RANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// How a scaling row is timed, recorded in the drill's JSON.
const SCALING_TIMING: &str = "makespan = largest per-rank on-CPU time of one threaded run \
     (ngs_cluster::time_ranks), best of the configured repeats; speedup against the 1-rank row";

/// A drill's results before its JSON is written into the working
/// directory.
struct Drill {
    /// The rendered table `repro` prints.
    table: String,
    /// The JSON document.
    json: String,
}

impl Drill {
    /// Writes the JSON into the working directory as `file` and returns
    /// the table.
    fn publish(self, file: &str) -> Result<String> {
        std::fs::write(file, &self.json)?;
        Ok(format!("{}JSON written to {file}\n", self.table))
    }
}

/// Renders `(ranks, makespan)` rows as table lines and JSON rows, each
/// with its speedup against the first (1-rank) row.
fn render_scaling(rows: &[(usize, Duration)]) -> (String, String) {
    let base = rows.first().map_or(0.0, |&(_, t)| t.as_secs_f64());
    let mut table = String::from("        ranks  makespan    speedup\n");
    let mut json = Vec::with_capacity(rows.len());
    for &(ranks, makespan) in rows {
        let speedup = base / makespan.as_secs_f64().max(1e-12);
        table.push_str(&format!("{ranks:>13}  {makespan:>8.2?}  {speedup:>8.2}x\n"));
        json.push(format!(
            "    {{\"ranks\": {ranks}, \"makespan_seconds\": {:.6}, \"speedup\": {speedup:.3}}}",
            makespan.as_secs_f64(),
        ));
    }
    (table, json.join(",\n"))
}

/// The fields every drill's JSON opens with: what ran, at which
/// `--scale`, on how many host cores.
fn json_head(cfg: &ExperimentConfig, experiment: &str) -> String {
    format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"scale\": {:?},\n  \
         \"host_cores\": {},\n  ",
        cfg.scale.0,
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    )
}

// ---------------------------------------------------------------------------
// Overload / graceful degradation (BENCH_load.json)
// ---------------------------------------------------------------------------

/// Overload experiment (no corresponding paper figure; DESIGN.md §13):
/// goodput and per-class latency of the query engine under sustained
/// **open-loop** load past saturation.
///
/// A closed-loop driver self-throttles — when the server slows, so does
/// the offered load, and overload never happens. This experiment first
/// *calibrates* the engine's saturation throughput with a closed-loop
/// warm pass, then replays the same seeded open-loop plan
/// (`ngs_query::load`) at {0.5, 1, 2, 4}× that rate, pacing arrivals in
/// real time regardless of how the engine is keeping up. Degradation is
/// graceful when goodput (completions within deadline) holds near
/// capacity past saturation while the excess is *shed* — rejected
/// before any decode work with a `retry_after` hint — instead of
/// dragging every request's latency into its deadline.
///
/// Timing note: this is wall-clock threaded serving, not simulated-cluster
/// mode — the measured object is admission control under real queue
/// contention, not parallel scaling. The drill fails unless the goodput
/// *rate* at 2× offered load holds at ≥ 80 % of the rate at 1× (shedding
/// the excess, not collapsing); that ratio is stable across host speeds.
/// Completion counts are not compared across rows, because the open-loop
/// replay span shrinks as the offered rate rises.
pub fn load_bench(cfg: &ExperimentConfig) -> Result<String> {
    use ngs_obs::{HistogramSnapshot, Registry};
    use ngs_query::{
        generate_load, EngineConfig, LoadProfile, QueryEngine, RetryPolicy, ShardStore,
        SystemClock,
    };
    use std::path::Path;
    use std::sync::Arc;

    const DATASETS: usize = 4;
    const WINDOWS: usize = 8;
    const WORKERS: usize = 4;
    const MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
    let records = cfg.scale.query_records();
    let requests = cfg.scale.query_requests();

    // DATASETS distinct BAMs preprocessed into one shard directory.
    let shard_dir = cfg.cache.scratch("load-shards")?;
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let mut names = Vec::new();
    let mut chr1_len = 0u64;
    for i in 0..DATASETS {
        let n = records + i * 97;
        let bam = cfg.cache.bam(n, 3)?;
        let prep = conv.preprocess(&bam, &shard_dir)?;
        chr1_len = chr1_len.max((n as u64 * 40).max(100_000));
        names.push(
            prep.bamx_path
                .file_stem()
                .expect("bamx stem")
                .to_string_lossy()
                .into_owned(),
        );
    }
    let windows: Vec<String> = (0..WINDOWS)
        .map(|w| {
            let span = chr1_len / WINDOWS as u64;
            format!("chr1:{}-{}", w as u64 * span + 1, (w as u64 + 1) * span)
        })
        .collect();

    let profile = LoadProfile {
        requests,
        datasets: DATASETS,
        windows: WINDOWS,
        // Generous relative deadlines: the gated quantity is the
        // goodput *ratio* under overload, and hair-trigger deadlines
        // would fold host speed into it.
        interactive_deadline: Some(Duration::from_millis(250)),
        batch_deadline: Some(Duration::from_secs(5)),
        ..LoadProfile::default()
    };
    let plan = generate_load(&profile);

    let engine_at = |registry: &Arc<Registry>| -> Result<(QueryEngine, Arc<dyn ngs_query::Clock>)> {
        let clock: Arc<dyn ngs_query::Clock> = Arc::new(SystemClock::new());
        let store = Arc::new(
            ShardStore::open_with(&shard_dir, DATASETS, Arc::clone(&clock), RetryPolicy::default())?
                .with_segments(EngineConfig::default().segments),
        );
        let engine = QueryEngine::with_store(
            store,
            EngineConfig {
                workers: WORKERS,
                // Bounded per-class queues: roomy enough that the
                // closed-loop calibration never overloads, small enough
                // that the 4x row can overflow them.
                queue_capacity: (requests / 8).max(64),
                cache_capacity: DATASETS,
                convert: ConvertConfig::with_ranks(1),
                obs: Some(Arc::clone(registry)),
                ..EngineConfig::default()
            },
            Arc::clone(&clock),
        )?;
        Ok((engine, clock))
    };

    // Touch every (dataset, window) once so measured passes run warm.
    let warm_up = |engine: &QueryEngine, out: &Path| -> Result<()> {
        for (i, a) in plan.iter().take(DATASETS * WINDOWS * 2).enumerate() {
            let req = a.to_request(&names, &windows, &out.join("warm"), i, None);
            let ticket = engine.submit(req).map_err(|e| {
                ngs_formats::error::Error::InvalidRecord(format!("warmup submit: {e}"))
            })?;
            engine_wait(ticket)?;
        }
        Ok(())
    };

    // Calibration: closed-loop (bounded in-flight, no deadlines) warm
    // throughput = the saturation rate the sweep is anchored to.
    let capacity_rps = {
        let registry = Arc::new(Registry::new());
        let (engine, _clock) = engine_at(&registry)?;
        let out = cfg.cache.scratch("load-calibrate")?;
        warm_up(&engine, &out)?;
        let run = || -> Result<Duration> {
            let t0 = Instant::now();
            let mut inflight = std::collections::VecDeque::new();
            for (i, a) in plan.iter().enumerate() {
                if inflight.len() == WORKERS * 4 {
                    if let Some(oldest) = inflight.pop_front() {
                        engine_wait(oldest)?;
                    }
                }
                let req = a.to_request(&names, &windows, &out.join("pass"), i, None);
                inflight.push_back(engine.submit(req).map_err(|e| {
                    ngs_formats::error::Error::InvalidRecord(format!("calibrate submit: {e}"))
                })?);
            }
            for ticket in inflight {
                engine_wait(ticket)?;
            }
            Ok(t0.elapsed())
        };
        let best = cfg.best_of(run)?;
        engine.drain();
        requests as f64 / best.as_secs_f64()
    };

    let hist_delta = |total: &HistogramSnapshot, prior: &HistogramSnapshot| {
        let mut d = HistogramSnapshot::default();
        for (i, slot) in d.buckets.iter_mut().enumerate() {
            *slot = total.buckets[i].saturating_sub(prior.buckets[i]);
        }
        d.count = total.count.saturating_sub(prior.count);
        d.sum = total.sum.saturating_sub(prior.sum);
        d
    };
    let round_sig = |x: f64| {
        if x <= 0.0 {
            return 0.0;
        }
        let mag = x.log10().floor();
        let factor = 10f64.powf(2.0 - mag);
        (x * factor).round() / factor
    };
    let pcts = |h: &HistogramSnapshot| {
        format!(
            "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99)
        )
    };

    let mut table = String::from("Query engine under sustained open-loop overload\n");
    table.push_str(&format!(
        "{DATASETS} datasets, {requests} planned arrivals/row, {WORKERS} workers; \
         saturation (closed-loop warm) = {:.0} req/s\n",
        capacity_rps
    ));
    table.push_str(
        "offered  offered/s  goodput  goodput/s  shed  overfl  int p99 ms  batch p99 ms\n",
    );
    let mut json_rows = Vec::new();
    let mut goodput_rates = Vec::with_capacity(MULTIPLIERS.len());
    for &mult in &MULTIPLIERS {
        let offered_rps = capacity_rps * mult;
        let swept = generate_load(&LoadProfile { rate_per_sec: offered_rps, ..profile.clone() });
        let registry = Arc::new(Registry::new());
        let (engine, clock) = engine_at(&registry)?;
        let out = cfg.cache.scratch(&format!("load-x{}", (mult * 10.0) as u32))?;
        warm_up(&engine, &out)?;
        let before = registry.snapshot();

        // Open-loop replay: submissions are paced by the plan alone.
        // Rejections (shed/overloaded) return immediately and are
        // tallied by the engine's ledger; accepted tickets settle after
        // the timeline ends.
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(swept.len());
        for (i, a) in swept.iter().enumerate() {
            let due = a.at;
            let elapsed = t0.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            let deadline = a.deadline.map(|d| clock.now() + d);
            let req = a.to_request(&names, &windows, &out.join("pass"), i, deadline);
            if let Ok(ticket) = engine.submit(req) {
                tickets.push(ticket);
            }
        }
        let span = t0.elapsed();
        for t in tickets {
            // Shed-in-queue / deadline outcomes are data, not errors.
            let _ = t.wait();
        }
        engine.drain();
        let after = registry.snapshot();

        let delta = |name: &str| -> u64 {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let goodput = delta("query.goodput_completed");
        let shed = delta("query.shed");
        let overloaded = delta("query.rejected");
        let completed = delta("query.completed");
        let int_lat = hist_delta(
            &after.histograms["query.class.interactive.latency_ns"],
            &before.histograms["query.class.interactive.latency_ns"],
        );
        let batch_lat = hist_delta(
            &after.histograms["query.class.batch.latency_ns"],
            &before.histograms["query.class.batch.latency_ns"],
        );
        let goodput_rps = round_sig(goodput as f64 / span.as_secs_f64().max(1e-9));
        goodput_rates.push((mult, goodput_rps));
        table.push_str(&format!(
            "{:>6.1}x  {:>9.0}  {goodput:>7}  {goodput_rps:>9.0}  {shed:>4}  {overloaded:>6}  \
             {:>10.1}  {:>12.1}\n",
            mult,
            round_sig(offered_rps),
            int_lat.quantile(0.99) as f64 / 1e6,
            batch_lat.quantile(0.99) as f64 / 1e6,
        ));
        json_rows.push(format!(
            "    {{\"offered_multiplier\": {mult}, \"offered_rps\": {}, \
             \"offered_requests\": {}, \"span_seconds\": {:.6}, \
             \"completed\": {completed}, \"goodput\": {goodput}, \
             \"goodput_rps\": {goodput_rps}, \"shed\": {shed}, \
             \"shed_expired\": {}, \"shed_expired_in_queue\": {}, \"shed_hot_shard\": {}, \
             \"overloaded\": {overloaded}, \
             \"interactive_latency_ns\": {}, \"batch_latency_ns\": {}}}",
            round_sig(offered_rps),
            swept.len(),
            span.as_secs_f64(),
            delta("query.shed.expired"),
            delta("query.shed.expired_in_queue"),
            delta("query.shed.hot_shard"),
            pcts(&int_lat),
            pcts(&batch_lat),
        ));
    }
    let json = format!(
        "{}\"datasets\": {DATASETS},\n  \"records_per_dataset\": {records},\n  \
         \"requests_per_row\": {requests},\n  \"workers\": {WORKERS},\n  \
         \"saturation_rps\": {},\n  \
         \"profile\": {{\"hot_pct\": {}, \"interactive_pct\": {}, \"analyze_pct\": {}, \
         \"interactive_deadline_ms\": 250, \"batch_deadline_ms\": 5000}},\n  \
         \"timing\": \"open-loop wall-clock replay of a seeded arrival plan at each \
         multiplier of the closed-loop saturation rate; goodput = completions within \
         deadline; shed/overloaded = typed load-control rejections before any decode \
         work. Rates rounded to 3 significant figures.\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_head(cfg, "overload_graceful_degradation"),
        round_sig(capacity_rps),
        profile.hot_pct,
        profile.interactive_pct,
        profile.analyze_pct,
        json_rows.join(",\n"),
    );
    let table = Drill { table, json }.publish("BENCH_load.json")?;

    // Graceful, not collapsing: 2x offered load keeps >= 80 % of the
    // goodput rate at 1x.
    let rate_at = |m: f64| goodput_rates.iter().find(|&&(x, _)| x == m).map_or(0.0, |&(_, r)| r);
    let (at_1x, at_2x) = (rate_at(1.0), rate_at(2.0));
    if at_2x < 0.8 * at_1x {
        return Err(ngs_formats::error::Error::InvalidRecord(format!(
            "goodput rate collapsed under 2x overload: {at_1x} req/s at 1x, {at_2x} req/s at 2x"
        )));
    }
    Ok(table)
}

/// Settles one ticket, mapping failed queries to bench errors (shed and
/// overload outcomes are impossible on closed-loop passes, which never
/// attach deadlines and bound their own in-flight count).
fn engine_wait(ticket: ngs_query::Ticket) -> Result<()> {
    if let Err(e) = ticket.wait().outcome {
        return Err(ngs_formats::error::Error::InvalidRecord(format!("query failed: {e}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fault matrix (BENCH_fault.json)
// ---------------------------------------------------------------------------

/// Fault-matrix experiment (no corresponding paper figure): decode
/// robustness and fault-detection latency per fault class. For each
/// class, seeded `ngs-fault` plans are applied to one BGZF-bodied BAMX
/// shard and the full decode path (open + read every record) runs over
/// the damaged source. Byte-damaging classes must be *rejected* with a
/// typed error or *survive* with a clean decode (a flip in compression
/// slack) — never panic, never silently diverge. Delivery-only classes
/// (short reads, transient errors) must *recover* to byte-identical
/// records within the plan's retry budget. Writes `BENCH_fault.json`
/// and returns a rendered table.
pub fn fault_bench(cfg: &ExperimentConfig) -> Result<String> {
    use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
    use ngs_fault::{Fault, FaultPlan, FaultyFile};
    use ngs_simgen::rng::Rng;

    const PLANS_PER_KIND: u64 = 32;
    let records = cfg.scale.query_records();

    let dir = cfg.cache.scratch("fault-shards")?;
    let ds = cfg.cache.dataset(records, 2, true);
    let bamx_path = dir.join("f.bamx");
    write_bamx_file(&bamx_path, &ds.header(), &ds.records, BamxCompression::Bgzf)?;
    Baix::build(&BamxFile::open(&bamx_path)?)?.save(bamx_path.with_extension("baix"))?;
    let pristine = std::fs::read(&bamx_path)?;
    let len = pristine.len() as u64;

    let clean_shard = BamxFile::open_with(Box::new(pristine.clone()), "clean")?;
    let clean_records = clean_shard.read_range(0, clean_shard.len())?;
    let (clean_scan, clean_time) = time_once(|| -> Result<usize> {
        let f = BamxFile::open_with(Box::new(pristine.clone()), "clean")?;
        Ok(f.read_range(0, f.len())?.len())
    });
    clean_scan?;

    /// One fault of the named class, derived from a seeded RNG.
    fn make_fault(kind: &str, rng: &mut Rng, len: u64) -> Fault {
        let bound = len.max(1);
        match kind {
            "truncate" => Fault::TruncateAt { offset: rng.next_below(bound) },
            "bitflip" => Fault::BitFlip {
                offset: rng.next_below(bound),
                mask: 1 << rng.next_below(8),
            },
            "zerorun" => Fault::ZeroRun {
                offset: rng.next_below(bound),
                len: 1 + rng.next_below(256),
            },
            "shortread" => Fault::ShortRead { max: 1 + rng.next_below(63) },
            _ => Fault::TransientIo { failures: 1 + rng.next_below(4) as u32 },
        }
    }

    let mut table = String::from("Fault matrix (BGZF-bodied BAMX shard, full open+scan per plan)\n");
    table.push_str(&format!(
        "{records} records, {PLANS_PER_KIND} seeded plans per class; clean decode {:?}\n",
        clean_time
    ));
    table.push_str("class      rejected  survived  recovered  diverged  mean detect\n");
    let mut json_rows = Vec::new();
    for kind in ["truncate", "bitflip", "zerorun", "shortread", "transient"] {
        let lossless = matches!(kind, "shortread" | "transient");
        let (mut rejected, mut survived, mut recovered, mut diverged) = (0u64, 0u64, 0u64, 0u64);
        let mut detect_total = Duration::ZERO;
        for seed in 0..PLANS_PER_KIND {
            let mut rng = Rng::seed_from_u64(0xFA17 ^ (seed << 8));
            let plan = FaultPlan::new(vec![
                make_fault(kind, &mut rng, len),
                // A second fault of the same class stresses interactions.
                make_fault(kind, &mut rng, len),
            ]);
            let budget = plan.total_transient_failures() as usize + 1;
            let source = std::sync::Arc::new(FaultyFile::new(pristine.clone(), plan));
            let (outcome, elapsed) = time_once(|| {
                // Retry within the transient budget, exactly as the
                // query engine's shard store does.
                let attempt = || {
                    let f = BamxFile::open_with(Box::new(source.clone()), "fault")?;
                    let recs = f.read_range(0, f.len())?;
                    Ok::<_, ngs_formats::error::Error>(recs)
                };
                let mut result = attempt();
                for _ in 1..budget {
                    if !matches!(&result, Err(e) if e.is_transient()) {
                        break;
                    }
                    result = attempt();
                }
                result
            });
            match outcome {
                Ok(recs) if recs == clean_records => {
                    if lossless {
                        recovered += 1;
                    } else {
                        survived += 1;
                    }
                }
                Ok(_) if lossless => {
                    return Err(ngs_formats::error::Error::InvalidRecord(format!(
                        "fault class {kind} seed {seed}: lossless plan changed decoded bytes"
                    )));
                }
                // A flip or zero-run in an unchecksummed region (the plain
                // prologue) is undetectable in principle; the matrix
                // reports how often that happens rather than hiding it.
                Ok(_) => diverged += 1,
                Err(e) if lossless => {
                    return Err(ngs_formats::error::Error::InvalidRecord(format!(
                        "fault class {kind} seed {seed}: lossless plan was rejected: {e}"
                    )));
                }
                Err(_) => {
                    rejected += 1;
                    detect_total += elapsed;
                }
            }
        }
        let mean_detect = detect_total
            .checked_div(rejected.max(1) as u32)
            .unwrap_or(Duration::ZERO);
        table.push_str(&format!(
            "{kind:<9}  {rejected:>8}  {survived:>8}  {recovered:>9}  {diverged:>8}  {mean_detect:>11.2?}\n"
        ));
        json_rows.push(format!(
            "    {{\"class\": \"{kind}\", \"plans\": {PLANS_PER_KIND}, \"rejected\": {rejected}, \
             \"survived\": {survived}, \"recovered\": {recovered}, \"diverged\": {diverged}, \
             \"mean_detect_seconds\": {:.6}}}",
            mean_detect.as_secs_f64(),
        ));
    }
    let json = format!(
        "{}\"records\": {records},\n  \
         \"plans_per_class\": {PLANS_PER_KIND},\n  \"clean_decode_seconds\": {:.6},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_head(cfg, "fault_matrix"),
        clean_time.as_secs_f64(),
        json_rows.join(",\n"),
    );
    Drill { table, json }.publish("BENCH_fault.json")
}

// ---------------------------------------------------------------------------
// Observability overhead (BENCH_obs.json)
// ---------------------------------------------------------------------------

/// Observability-overhead experiment (no corresponding paper figure):
/// the runtime cost of the always-on `ngs-obs` instrumentation
/// (DESIGN.md §9) on the one-shot BAMX converter. The same
/// `BamConverter::convert_bamx` call is timed with the global registry
/// enabled and disabled (`ngs_obs::set_enabled`) in one process — no
/// rebuild — over a BGZF-compressed shard so the codec's per-block
/// counters, the hottest instrumented path, sit on the measured path.
///
/// The estimator is paired: [`OBS_PAIRS`] back-to-back
/// enabled/disabled calls (which mode goes first alternates pair by
/// pair), each pair's relative difference taken on its own, and the
/// median of those differences reported with their interquartile range.
/// Drift and scheduling noise land on both halves of a pair and cancel;
/// a minimum of a few calls (the old best-of-5) does not. Relaxed-atomic
/// handles are expected to stay under a 5% overhead budget; the JSON
/// records the median, its spread and a `within_budget` verdict. Writes
/// `BENCH_obs.json` into the working directory and returns a rendered
/// table.
pub fn obs_bench(cfg: &ExperimentConfig) -> Result<String> {
    const TARGET: TargetFormat = TargetFormat::Bed;
    const BUDGET_PERCENT: f64 = 5.0;
    let records = cfg.scale.pipeline_records();
    let bam = cfg.cache.bam(records, 3)?;
    let shard_dir = cfg.cache.scratch("obs-shards")?;
    let mut conv = BamConverter::new(ConvertConfig::with_ranks(1));
    conv.bamx_compression = ngs_bamx::BamxCompression::Bgzf;
    let prep = conv.preprocess(&bam, &shard_dir)?;
    let out_root = cfg.cache.scratch("obs-out")?;

    let converter = BamConverter::new(ConvertConfig::with_ranks(4));
    // Each mode rewrites its own directory's part files in place.
    let one_run = |enabled: bool| -> Result<f64> {
        ngs_obs::set_enabled(enabled);
        let dir = out_root.join(if enabled { "enabled" } else { "disabled" });
        let t = Instant::now();
        std::hint::black_box(converter.convert_bamx(&prep.bamx_path, TARGET, &dir)?);
        Ok(t.elapsed().as_secs_f64())
    };

    // Warm the page cache, both output directories and first-touch
    // registry registration so neither timed mode pays one-time costs.
    one_run(true)?;
    one_run(false)?;

    let inflated_before = ngs_obs::global().counter("bgzf.blocks_inflated").get();
    let (mut disabled, mut enabled, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..OBS_PAIRS {
        let (d, e) = if pair % 2 == 0 {
            let d = one_run(false)?;
            (d, one_run(true)?)
        } else {
            let e = one_run(true)?;
            (one_run(false)?, e)
        };
        disabled.push(d);
        enabled.push(e);
        overhead.push((e - d) / d.max(1e-12) * 100.0);
    }
    ngs_obs::set_enabled(true);
    let inflated_delta = ngs_obs::global().counter("bgzf.blocks_inflated").get() - inflated_before;

    let [q1, overhead_percent, q3] = quartiles(&mut overhead);
    let [_, disabled_s, _] = quartiles(&mut disabled);
    let [_, enabled_s, _] = quartiles(&mut enabled);
    let within_budget = overhead_percent <= BUDGET_PERCENT;
    let snap = ngs_obs::global().snapshot();
    let published = snap.counters.len() + snap.gauges.len() + snap.histograms.len();

    let disabled_rps = records as f64 / disabled_s.max(1e-12);
    let enabled_rps = records as f64 / enabled_s.max(1e-12);
    let mut table = String::from("Observability overhead (ngs-obs) on the one-shot BAMX converter\n");
    table.push_str(&format!(
        "{records} records, BGZF-compressed shard, BED target, {OBS_PAIRS} alternating \
         enabled/disabled pairs\n"
    ));
    table.push_str(&format!(
        "  instrumentation disabled: {:>8.2?} median  ({disabled_rps:.0} rec/s)\n",
        Duration::from_secs_f64(disabled_s)
    ));
    table.push_str(&format!(
        "  instrumentation enabled:  {:>8.2?} median  ({enabled_rps:.0} rec/s)\n",
        Duration::from_secs_f64(enabled_s)
    ));
    table.push_str(&format!(
        "  overhead: {overhead_percent:.2}% median of per-pair differences, IQR \
         [{q1:.2}%, {q3:.2}%] (budget {BUDGET_PERCENT:.0}%) — {}\n",
        if within_budget { "within budget" } else { "OVER BUDGET" }
    ));
    table.push_str(&format!(
        "  enabled runs inflated {inflated_delta} BGZF blocks; global registry holds \
         {published} metrics\n"
    ));

    let json = format!(
        "{}\"records\": {records},\n  \
         \"target\": \"bed\",\n  \"repeats\": {OBS_PAIRS},\n  \
         \"disabled_seconds\": {disabled_s:.6},\n  \"enabled_seconds\": {enabled_s:.6},\n  \
         \"overhead_percent\": {overhead_percent:.3},\n  \
         \"overhead_q1_percent\": {q1:.3},\n  \"overhead_q3_percent\": {q3:.3},\n  \
         \"budget_percent\": {BUDGET_PERCENT:.1},\n  \
         \"within_budget\": {within_budget},\n  \
         \"bgzf_blocks_inflated\": {inflated_delta},\n  \
         \"registry_metrics\": {published}\n}}\n",
        json_head(cfg, "obs_overhead"),
    );
    Drill { table, json }.publish("BENCH_obs.json")
}

/// Enabled/disabled call pairs behind `BENCH_obs.json`'s median.
const OBS_PAIRS: usize = 101;

/// The lower quartile, median and upper quartile of `xs` (nearest rank).
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: usize| xs[(xs.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
}

// ---------------------------------------------------------------------------
// Crash recovery (BENCH_recovery.json)
// ---------------------------------------------------------------------------

/// Crash-recovery experiment (no corresponding paper figure): the cost
/// of repairing a shard repository after a mid-preprocessing power cut
/// versus re-preprocessing from scratch (DESIGN.md §7.5).
///
/// A reference run through an instrumented [`ngs_fault::FaultyFs`]
/// measures the total publication byte stream; preprocessing is then
/// killed at several fractions of that stream with
/// [`ngs_fault::Fault::CrashAtByte`], and for each crash the timed
/// repair path runs: reopen the repository, verify (must be clean —
/// the manifest never references a torn artifact), sweep stray temps,
/// and resume — manifest-verified shards are skipped byte-for-byte,
/// only the lost tail is rebuilt. Every recovered directory is checked
/// byte-identical to the reference before its timing counts. Writes
/// `BENCH_recovery.json` and returns a rendered table.
pub fn recovery_bench(cfg: &ExperimentConfig) -> Result<String> {
    use ngs_bamx::repo::ShardRepo;
    use ngs_converter::MemSource;
    use ngs_fault::{Fault, FaultPlan, FaultyFs};
    use std::sync::Arc;

    const RANKS: usize = 4;
    // Crash fractions of the publication stream. The rank threads
    // publish concurrently, so early fractions strike before any shard
    // has sealed (full rebuild) while tail fractions leave most shards
    // manifest-verified (cheap repair) — both regimes are reported.
    const FRACTIONS: [f64; 5] = [0.25, 0.50, 0.75, 0.95, 0.9999];

    let records = cfg.scale.query_records();
    let ds = cfg.cache.dataset(records, 2, true);
    let source = MemSource::new(ds.to_sam_bytes());
    let conv = SamxConverter::new(cfg.config(RANKS));
    let root = cfg.cache.scratch("recovery")?;

    // Reference: full preprocess, instrumented to learn the stream
    // length; the on-disk bytes are the recovery oracle.
    let ref_dir = root.join("reference");
    let fs = FaultyFs::new(FaultPlan::none());
    let state = Arc::clone(fs.state());
    let repo = ShardRepo::create_with(&ref_dir, Arc::new(fs))?;
    conv.preprocess_source_repo(&source, &repo, "r", false)?;
    let total = state.written();
    let mut reference = Vec::new();
    for entry in std::fs::read_dir(&ref_dir)? {
        let path = entry?.path();
        reference.push((path.clone(), std::fs::read(&path)?));
    }

    // Baseline: a clean full re-preprocess on the real filesystem — the
    // cost a crash would incur without the manifest's resume path.
    let full = cfg.best_of(|| {
        let dir = root.join("full");
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let repo = ShardRepo::create(&dir)?;
        let (r, elapsed) = time_once(|| conv.preprocess_source_repo(&source, &repo, "r", false));
        r?;
        Ok(elapsed)
    })?;

    let mut table = String::from("Crash recovery: repair (resume) vs full re-preprocess\n");
    table.push_str(&format!(
        "{records} records, {RANKS} ranks, {total}-byte publication stream; \
         full re-preprocess {full:.2?}\n"
    ));
    table.push_str("crash at   resumed  rebuilt     repair    speedup\n");
    let mut json_rows = Vec::new();
    for (i, frac) in FRACTIONS.iter().enumerate() {
        let offset = ((total as f64 * frac) as u64).min(total.saturating_sub(1));
        let dir = root.join(format!("crash-{i}"));
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let crashed = ShardRepo::create_with(&dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| conv.preprocess_source_repo(&source, &repo, "r", false));
        if crashed.is_ok() {
            return Err(ngs_formats::error::Error::InvalidRecord(format!(
                "crash at byte {offset} of {total}: run survived its own crash"
            )));
        }

        // Timed repair: reopen, verify, sweep, resume.
        let ((resumed, rebuilt), repair) = {
            let (r, elapsed) = time_once(|| -> Result<(u64, u64)> {
                let repo = ShardRepo::create(&dir)?;
                let report = repo.verify()?;
                if !report.is_clean() {
                    return Err(ngs_formats::error::Error::InvalidRecord(format!(
                        "crash at byte {offset}: torn artifact behind the manifest: {:?}",
                        report.damaged
                    )));
                }
                repo.clean_stray_temps()?;
                let prep = conv.preprocess_source_repo(&source, &repo, "r", true)?;
                let resumed = prep.shards.iter().filter(|s| s.resumed).count() as u64;
                Ok((resumed, prep.shards.len() as u64 - resumed))
            });
            (r?, elapsed)
        };

        // The timing only counts if recovery is byte-identical.
        for (ref_path, bytes) in &reference {
            let name = ref_path.file_name().unwrap_or_default();
            if std::fs::read(dir.join(name))? != *bytes {
                return Err(ngs_formats::error::Error::InvalidRecord(format!(
                    "crash at byte {offset}: {} diverged after repair",
                    name.to_string_lossy()
                )));
            }
        }

        let speedup = full.as_secs_f64() / repair.as_secs_f64().max(1e-9);
        table.push_str(&format!(
            "{:>7.2}%  {resumed:>7}  {rebuilt:>7}  {repair:>9.2?}  {speedup:>6.2}x\n",
            frac * 100.0
        ));
        json_rows.push(format!(
            "    {{\"fraction\": {frac}, \"crash_byte\": {offset}, \"resumed_shards\": {resumed}, \
             \"rebuilt_shards\": {rebuilt}, \"repair_seconds\": {:.6}, \"speedup_vs_full\": {speedup:.3}}}",
            repair.as_secs_f64(),
        ));
    }
    let json = format!(
        "{}\"records\": {records},\n  \
         \"ranks\": {RANKS},\n  \"publication_stream_bytes\": {total},\n  \
         \"full_preprocess_seconds\": {:.6},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_head(cfg, "crash_recovery"),
        full.as_secs_f64(),
        json_rows.join(",\n"),
    );
    Drill { table, json }.publish("BENCH_recovery.json")
}

// ---------------------------------------------------------------------------
// Collate shuffle (BENCH_collate.json)
// ---------------------------------------------------------------------------

/// Collate-shuffle experiment (DESIGN.md §10; no corresponding paper
/// figure — it extends the paper's removal of the sort/merge bottleneck
/// to the post-conversion regroup stages): duplicate marking over the
/// keyed regroup engine, on two axes.
///
/// * **Simulated-cluster scaling** — records are partitioned by
///   signature-key hash modulo R (key-disjoint, so no duplicate group
///   straddles a rank), and the R ranks run their in-memory reference
///   passes on [`time_ranks`]; makespan =
///   [`RankTimes::makespan`](ngs_cluster::RankTimes::makespan), the
///   shuffle's scaling shape independent of host core count. Correctness
///   gate: in every timed run the ranks together must mark exactly as
///   many duplicates as the sequential pass.
/// * **Spill-threshold sweep** — the thread-parallel streaming engine
///   runs under budgets from "never spill" down to an eighth of the
///   input's gauge working set; each run must produce output identical
///   to the in-memory reference while spill runs, merge fan-in, and the
///   buffered-bytes peak track the budget.
///
/// Writes `BENCH_collate.json` and returns a rendered table.
pub fn collate_bench(cfg: &ExperimentConfig) -> Result<String> {
    collate_drill(cfg)?.publish("BENCH_collate.json")
}

fn collate_drill(cfg: &ExperimentConfig) -> Result<Drill> {
    use ngs_collate::{keys, reference_run, CollateConfig, Collator, Workload};
    use ngs_formats::record::AlignmentRecord;
    use ngs_pipeline::{Cost, PipelineConfig};
    use ngs_simgen::{Dataset, DatasetSpec, ReadProfile};

    const WORKLOAD: Workload = Workload::MarkDup;
    let records = cfg.scale.pipeline_records();
    let ds = Dataset::generate(&DatasetSpec {
        n_records: records,
        n_chroms: 3,
        seed: 20140519,
        profile: ReadProfile { duplicate_rate: 0.15, ..Default::default() },
        ..Default::default()
    });
    let header = ds.header();
    let n = ds.records.len();

    // The sequential pass: the duplicate count every partitioned run must
    // reproduce, and the identity oracle for the spill sweep.
    let (expected, seq_counts) = reference_run(&header, &ds.records, WORKLOAD);

    let mut table = String::from("Collate shuffle: duplicate marking over the regroup stage\n");
    table.push_str(&format!("{n} records ({} duplicates)\n", seq_counts.duplicates_marked));

    // Simulated-cluster scaling: key-disjoint partitions, one rank each.
    let key_fn = keys::key_fn_for(WORKLOAD, std::sync::Arc::new(header.clone()));
    let mut scaling = Vec::new();
    for &ranks in &SCALING_RANKS {
        let mut parts: Vec<Vec<AlignmentRecord>> = vec![Vec::new(); ranks];
        for r in &ds.records {
            let slot = (keys::fnv1a64(&key_fn(r)) % ranks as u64) as usize;
            parts[slot].push(r.clone());
        }
        let makespan = cfg.best_of(|| {
            let (marked, times) = time_ranks(ranks, |comm| {
                reference_run(&header, &parts[comm.rank()], WORKLOAD).1.duplicates_marked
            });
            let total_marked: u64 = marked.iter().sum();
            if total_marked != seq_counts.duplicates_marked {
                return Err(ngs_formats::error::Error::InvalidRecord(format!(
                    "{ranks}-rank partition marked {total_marked} duplicates, sequential marked {}",
                    seq_counts.duplicates_marked
                )));
            }
            Ok(times.makespan())
        })?;
        scaling.push((ranks, makespan));
    }
    let (scaling_table, scaling_json) = render_scaling(&scaling);
    table.push_str("simulated shuffle scaling (makespan = max rank on-CPU time):\n");
    table.push_str(&scaling_table);

    // Spill-threshold sweep: thread-parallel engine, identity-gated.
    let working_set = AlignmentRecord::slice_cost(&ds.records);
    let budgets: [u64; 4] = [0, working_set / 2, working_set / 4, working_set / 8];
    let spill_root = cfg.cache.scratch("collate-spill")?;
    table.push_str(&format!(
        "spill-threshold sweep ({working_set}-byte working set, 4 workers):\n"
    ));
    table.push_str("       budget    rec/s   runs  fan-in  peak buffered\n");
    let mut sweep_rows = Vec::new();
    for (i, &budget) in budgets.iter().enumerate() {
        let collator = Collator::new(CollateConfig {
            pipeline: PipelineConfig::with_workers(4),
            spill_budget: budget,
            spill_dir: (budget > 0).then(|| spill_root.join(format!("budget-{i}"))),
            ..Default::default()
        });
        let mut best = Duration::MAX;
        let mut stats = None;
        for _ in 0..cfg.repeats.max(1) {
            let mut out = Vec::with_capacity(n);
            let t = Instant::now();
            let run = collator.run_records(&header, ds.records.clone(), WORKLOAD, &mut |r| {
                out.push(r);
                Ok(())
            })?;
            best = best.min(t.elapsed());
            if out != expected {
                return Err(ngs_formats::error::Error::InvalidRecord(format!(
                    "budget {budget}: streaming output diverged from the reference"
                )));
            }
            stats = Some(run);
        }
        let run = stats.ok_or_else(|| {
            ngs_formats::error::Error::InvalidRecord("no repeats configured".into())
        })?;
        let spill_runs =
            run.regroup.spill_runs + run.restore.as_ref().map_or(0, |r| r.spill_runs);
        let spilled_bytes =
            run.regroup.spilled_bytes + run.restore.as_ref().map_or(0, |r| r.spilled_bytes);
        let peak = run
            .regroup
            .peak_buffered_bytes
            .max(run.restore.as_ref().map_or(0, |r| r.peak_buffered_bytes));
        let rps = n as f64 / best.as_secs_f64().max(1e-12);
        table.push_str(&format!(
            "{budget:>13}  {rps:>7.0}  {spill_runs:>5}  {:>6}  {peak:>10} B\n",
            run.regroup.merge_fan_in
        ));
        sweep_rows.push(format!(
            "    {{\"budget_bytes\": {budget}, \"seconds\": {:.6}, \
             \"records_per_sec\": {rps:.2}, \"spill_runs\": {spill_runs}, \
             \"spilled_bytes\": {spilled_bytes}, \"merge_fan_in\": {}, \
             \"peak_buffered_bytes\": {peak}}}",
            best.as_secs_f64(),
            run.regroup.merge_fan_in,
        ));
    }

    let json = format!(
        "{}\"workload\": \"markdup\",\n  \
         \"records\": {n},\n  \"duplicates_marked\": {},\n  \
         \"working_set_bytes\": {working_set},\n  \"timing\": \"{SCALING_TIMING}\",\n  \
         \"simulated_scaling\": [\n{scaling_json}\n  ],\n  \"spill_sweep\": [\n{}\n  ]\n}}\n",
        json_head(cfg, "collate_shuffle"),
        seq_counts.duplicates_marked,
        sweep_rows.join(",\n"),
    );
    Ok(Drill { table, json })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn tiny_config() -> ExperimentConfig {
        let dir = tempdir().unwrap();
        let cache = DataCache::new(dir.path().join("cache")).unwrap();
        // Leak the tempdir so the cache survives for the test body.
        std::mem::forget(dir);
        ExperimentConfig { scale: Scale(0.02), cores: vec![1, 2, 4], cache, repeats: 1 }
    }

    #[test]
    fn table1_produces_two_rows() {
        let cfg = tiny_config();
        let t = table1(&cfg).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.1 > Duration::ZERO));
        let text = t.to_string();
        assert!(text.contains("SAM→FASTQ") && text.contains("BAM→SAM"));
    }

    #[test]
    fn fig6_has_three_series_over_axis() {
        let cfg = tiny_config();
        let fig = fig6(&cfg).unwrap();
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 3);
            assert!((s.at(1).unwrap() - 1.0).abs() < 1e-9, "speedup(1) == 1");
        }
    }

    #[test]
    fn fig8_times_grow_with_region() {
        let cfg = tiny_config();
        let fig = fig8(&cfg).unwrap();
        assert_eq!(fig.series.len(), 5);
        // At the same core count, a bigger region must not be faster
        // (modulo tiny-jitter tolerance).
        let cores = fig.cores_axis()[0];
        let t20 = fig.series[0].at(cores).unwrap();
        let t100 = fig.series[4].at(cores).unwrap();
        assert!(t100 >= t20 * 0.8, "t20={t20}, t100={t100}");
    }

    #[test]
    fn fig11_and_fig12_speedups_normalized() {
        let cfg = tiny_config();
        let f11 = fig11(&cfg).unwrap();
        assert_eq!(f11.series.len(), 3);
        let f12 = fig12(&cfg).unwrap();
        assert_eq!(f12.series.len(), 2);
        assert!((f12.series[0].at(1).unwrap() - 1.0).abs() < 1e-9);
    }

    /// The `makespan_seconds` of every scaling row in a drill's JSON.
    fn makespans(json: &str) -> Vec<f64> {
        json.split("\"makespan_seconds\": ")
            .skip(1)
            .map(|rest| rest.split(',').next().unwrap().parse().unwrap())
            .collect()
    }

    #[test]
    fn collate_scaling_runs_on_time_ranks_and_keeps_its_gates() {
        // The drill returns Err if a rank count changes the duplicate
        // count.
        let cfg = tiny_config();
        let drill = collate_drill(&cfg).unwrap();
        let rows = makespans(&drill.json);
        assert_eq!(rows.len(), SCALING_RANKS.len(), "{}", drill.json);
        assert!(rows.iter().all(|&t| t > 0.0), "{rows:?}");
        assert!(drill.json.contains("\"host_cores\": "));
    }
}
