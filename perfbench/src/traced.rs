//! The traced run (`--trace 1`): layer probes, then half of the run's
//! time on composed rounds (every second one with a root span per
//! operation) and a quarter on decomposed rounds; then every per-layer
//! metric. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::time::Instant;

use ngs_query::{EngineConfig, QueryEngine, QueryRequest, RequestMetrics, ShardStore};

use crate::decomp::{Decomposer, LayerTimes};
use crate::measure::{load1, timed_rounds, Args, Metric, Timed, Warm};
use crate::ops::{request, Kind, Op};
use crate::probes::{self, REPS};
use crate::spans::{Recorder, LAYERS};
use crate::spec::{Workload, CACHE_CAPACITY, PER_LAYER};
use crate::stats::{median, percentile};
use crate::BenchResult;

/// One served request as both sides saw it.
struct Sample {
    kind: Kind,
    latency_s: f64,
    engine: RequestMetrics,
}

/// Passes over the request list when a batch workload's shard is served
/// just to measure the `query.*` metrics on it.
const BATCH_QUERY_PASSES: usize = 8;
/// Lookups per timed repetition of the store-hit probe.
const STORE_HITS: usize = 1_000;

/// Runs the traced flow on a warmed-up workload.
pub fn run(args: &Args, warm: &mut Warm) -> BenchResult<(Timed, Vec<Metric>)> {
    let mut m = probes::run(args.seed, &args.dir.join("probe"))?;
    let slice = args.seconds / 4.0;

    // Composed rounds, alternately without and with a root span per
    // operation, so both kinds see the same machine state; the difference
    // of their medians is the tracing overhead.
    let rec = Recorder::default();
    let mut samples = Vec::new();
    let mut trace_id = 0;
    let mut op_index = 0;
    let ops = warm.ctx.ops.clone();
    let ops_per_round = warm.plan.round_len();
    let composed = timed_rounds(warm, 2.0 * slice, 2, |id, done| {
        let traced_round = (op_index / ops_per_round) % 2 == 1;
        op_index += 1;
        if traced_round {
            trace_id += 1;
            let span = rec.reserve_id();
            let end = rec.now_ns();
            let start = end.saturating_sub(done.latency.as_nanos() as u64);
            rec.finish(
                span,
                trace_id,
                0,
                "bench",
                ops[id].label(),
                start,
                done.counts.records_in,
            );
        }
        if let (Op::Serve(t), Some(engine)) = (ops[id], done.served.clone()) {
            samples.push(Sample {
                kind: t.kind,
                latency_s: done.latency.as_secs_f64(),
                engine,
            });
        }
    });
    let walls = |parity: usize| -> Vec<f64> {
        composed
            .rounds
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|r| r.wall_s)
            .collect()
    };
    m.insert(
        "bench.trace_overhead_frac",
        median(&walls(1)) / median(&walls(0)) - 1.0,
    );

    // Decomposed rounds, in the plan's order.
    let mut decomposed = Timed::default();
    let mut layer_rounds: Vec<LayerTimes> = Vec::new();
    {
        let mut decomposer =
            Decomposer::new(&warm.ctx, &rec, args.dir.join("decomposed"), trace_id + 1);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < slice || layer_rounds.is_empty() {
            let mut round = [0.0; LAYERS.len()];
            for id in warm.plan.next_round() {
                decomposed.attempted += 1;
                match decomposer.run(id) {
                    Ok((counts, times)) if counts == warm.expect[id] => {
                        for (slot, t) in round.iter_mut().zip(times) {
                            *slot += t;
                        }
                    }
                    Ok((counts, _)) => {
                        eprintln!(
                            "decomposed op {id}: {counts:?}, warm-up had {:?}",
                            warm.expect[id]
                        );
                        decomposed.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("decomposed op {id}: {e}");
                        decomposed.failed += 1;
                    }
                }
            }
            layer_rounds.push(round);
        }
    }

    // Shares of a composed round. The engine's own queue wait and
    // hand-off (caller latency minus the service time it reports) is the
    // query layer's part of a served request.
    let composed_round = median(&round_sums(&composed, |ms| ms / 1e3));
    let per_round = |total: f64, rounds: usize| total / rounds.max(1) as f64;
    let query_overhead = per_round(
        samples
            .iter()
            .map(|s| s.latency_s - s.engine.service_time.as_secs_f64())
            .sum(),
        composed.rounds.len(),
    );
    let mut attributed = 0.0;
    for (slot, layer) in LAYERS.iter().enumerate() {
        let column: Vec<f64> = layer_rounds.iter().map(|r| r[slot]).collect();
        let mut time = median(&column);
        if *layer == "query" {
            time += query_overhead;
        }
        attributed += time;
        m.insert(share_name(layer), time / composed_round);
    }
    m.insert("share.unattributed", 1.0 - attributed / composed_round);
    m.insert("bench.load1", load1());

    // query.*: from the composed rounds themselves on served workloads,
    // from a short served section over the workload's own shard otherwise.
    let (store_dir, dataset, depth2) = if args.workload.is_served() {
        let engine = warm.ctx.engine().expect("served workloads start an engine");
        let requests: Vec<QueryRequest> = warm
            .plan
            .next_round()
            .into_iter()
            .filter_map(|id| warm.ctx.request(id))
            .collect();
        let depth2 = depth2_rate(engine, &requests)?;
        (
            warm.ctx.fx.shards(),
            warm.ctx.regions[0].dataset.clone(),
            depth2,
        )
    } else {
        // `ingest` published a v1 shard into operation 0's directory;
        // `convert` reads the fixture's.
        let dir = match args.workload {
            Workload::Ingest => warm.ctx.out_dir(0),
            _ => warm.ctx.fx.shards(),
        };
        let dataset = warm.ctx.regions[0].dataset.clone();
        let out = args.dir.join("query-probe");
        let mut requests = Vec::new();
        for (r, line) in warm.ctx.regions.iter().enumerate() {
            for kind in Kind::ALL {
                let out_dir = out.join(format!("r{r}"));
                requests.push((kind, request(&line.dataset, &line.region, kind, out_dir)));
            }
        }
        let config = EngineConfig {
            cache_capacity: CACHE_CAPACITY,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::new(&dir, config)?;
        for _ in 0..BATCH_QUERY_PASSES {
            for (kind, request) in &requests {
                let t = Instant::now();
                let response = engine
                    .submit(request.clone())
                    .map_err(|e| e.to_string())?
                    .wait();
                let latency_s = t.elapsed().as_secs_f64();
                response.outcome.map_err(|e| e.to_string())?;
                samples.push(Sample {
                    kind: *kind,
                    latency_s,
                    engine: response.metrics,
                });
            }
        }
        let plain: Vec<QueryRequest> = requests.into_iter().map(|(_, r)| r).collect();
        let depth2 = depth2_rate(&engine, &plain)?;
        (dir, dataset, depth2)
    };
    query_metrics(&mut m, &samples);
    m.insert("query.depth2_req_per_s", depth2);
    let (hit_ns, miss_us) = store_probe(&store_dir, &dataset)?;
    m.insert("query.store_hit_ns", hit_ns);
    m.insert("query.store_miss_us", miss_us);

    rec.write_jsonl(&args.dir.join("trace.jsonl"))?;

    let mut all = Timed::default();
    for part in [&composed, &decomposed] {
        all.attempted += part.attempted;
        all.failed += part.failed;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            m.get(name)
                .map(|&v| (name, unit, v))
                .ok_or_else(|| format!("no value for {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((all, metrics))
}

/// Per-round sums of operation latencies. Every round of a run holds the
/// same number of operations, so the latency list splits evenly.
fn round_sums(timed: &Timed, scale: impl Fn(f64) -> f64) -> Vec<f64> {
    let per_round = timed.latencies_ms.len() / timed.rounds.len().max(1);
    timed
        .latencies_ms
        .chunks(per_round.max(1))
        .map(|round| round.iter().map(|&ms| scale(ms)).sum())
        .collect()
}

fn share_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_prefix("share.") == Some(layer))
        .expect("every layer has a share.* metric")
}

fn query_metrics(m: &mut BTreeMap<&'static str, f64>, samples: &[Sample]) {
    let us =
        |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(|s| 1e6 * f(s)).collect() };
    let service = us(&|s| s.engine.service_time.as_secs_f64());
    let queue = us(&|s| s.engine.queue_wait.as_secs_f64());
    let handoff = us(&|s| {
        s.latency_s - s.engine.queue_wait.as_secs_f64() - s.engine.service_time.as_secs_f64()
    });
    let latency_ms = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| keep(s.kind))
            .map(|s| 1e3 * s.latency_s)
            .collect()
    };
    m.insert("query.service_p50_us", median(&service));
    m.insert("query.queue_wait_p50_us", median(&queue));
    m.insert("query.handoff_us", median(&handoff));
    m.insert(
        "query.convert_p50_ms",
        median(&latency_ms(&|k| k != Kind::Coverage)),
    );
    m.insert(
        "query.coverage_p50_ms",
        median(&latency_ms(&|k| k == Kind::Coverage)),
    );
    m.insert("query.lat_p99_ms", percentile(&latency_ms(&|_| true), 99.0));
    let hits = samples.iter().filter(|s| s.engine.cache_hit).count();
    m.insert("query.store_hit_rate", hits as f64 / samples.len() as f64);
}

/// Requests per second with two requests in flight (recorded, not gated:
/// on two shared cores this does not repeat within a tenth).
fn depth2_rate(engine: &QueryEngine, requests: &[QueryRequest]) -> BenchResult<f64> {
    let t = Instant::now();
    let mut in_flight = std::collections::VecDeque::new();
    for request in requests {
        in_flight.push_back(engine.submit(request.clone()).map_err(|e| e.to_string())?);
        if in_flight.len() == 2 {
            let ticket = in_flight.pop_front().expect("two in flight");
            ticket.wait().outcome.map_err(|e| e.to_string())?;
        }
    }
    for ticket in in_flight {
        ticket.wait().outcome.map_err(|e| e.to_string())?;
    }
    Ok(requests.len() as f64 / t.elapsed().as_secs_f64())
}

/// `ShardStore::get` on a cold store (miss: verify, open, index load) and
/// on a warm one (hit), medians of [`REPS`].
fn store_probe(dir: &std::path::Path, dataset: &str) -> BenchResult<(f64, f64)> {
    let mut hit_ns = Vec::new();
    let mut miss_us = Vec::new();
    for _ in 0..REPS {
        let store = ShardStore::open(dir, CACHE_CAPACITY)?;
        let t = Instant::now();
        store.get(dataset)?;
        miss_us.push(1e6 * t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..STORE_HITS {
            std::hint::black_box(store.get(dataset)?);
        }
        hit_ns.push(1e9 * t.elapsed().as_secs_f64() / STORE_HITS as f64);
    }
    Ok((median(&hit_ns), median(&miss_us)))
}
