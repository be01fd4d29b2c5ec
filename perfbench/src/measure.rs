//! The measuring process: warm-up with the oracle, then the timed rounds
//! (`--trace 0`) or the traced run (`--trace 1`), then the result line.

use std::path::PathBuf;
use std::time::Instant;

use crate::fixture::Fixture;
use crate::ops::{Counts, Ctx, Op, Plan};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, round_throughput, Round};
use crate::{oracle, traced, BenchResult};

/// Arguments of the `measure` subcommand.
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the fixture and of the operation order.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Median fixture build time measured by the parent.
    pub fixture_s: f64,
    /// `VmHWM` of the `memory` child, measured by the parent.
    pub peak_rss_mb: f64,
    /// The run's work directory (holds `fx/`).
    pub dir: PathBuf,
}

/// A named value with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// The state after set-up: engine started, every distinct operation run
/// once and verified, its counts remembered.
pub struct Warm {
    /// Execution context.
    pub ctx: Ctx,
    /// Operation order, already advanced past the warm-up round.
    pub plan: Plan,
    /// Counts every later run of a distinct operation must repeat.
    pub expect: Vec<Counts>,
    /// Engine start plus the warm-up round's operations, in seconds.
    pub warm_s: f64,
}

/// Starts the engine (served workloads) and runs the warm-up round under
/// the oracle. Verification itself is not part of `warm_s`.
pub fn warm_up(args: &Args) -> BenchResult<Warm> {
    let t = Instant::now();
    let ctx = Ctx::open(
        args.workload,
        Fixture::at(args.dir.join("fx")),
        args.dir.join("out"),
    )?;
    let mut plan = Plan::new(args.workload, args.seed, ctx.ops.len());
    ctx.prime(&plan.dataset_order())?;
    let mut warm_s = t.elapsed().as_secs_f64();
    let mut expect: Vec<Option<Counts>> = vec![None; ctx.ops.len()];
    for id in plan.next_round() {
        let done = ctx.run(id)?;
        warm_s += done.latency.as_secs_f64();
        oracle::verify(&ctx, id, &done)?;
        let promised = match ctx.ops[id] {
            Op::ConvertPartial(r) => Some(ctx.regions[r].records),
            Op::Serve(t) => Some(ctx.regions[t.region].records),
            _ => None,
        };
        if promised.is_some_and(|n| n != done.counts.records_in) {
            return Err(format!(
                "op {id} read {} records, its region holds {promised:?}",
                done.counts.records_in
            )
            .into());
        }
        match expect[id] {
            Some(first) if first != done.counts => {
                return Err(format!(
                    "op {id} is not repeatable: {first:?} then {:?}",
                    done.counts
                )
                .into());
            }
            _ => expect[id] = Some(done.counts),
        }
    }
    let expect = expect
        .into_iter()
        .map(|c| c.ok_or("the warm-up round must run every distinct operation"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Warm {
        ctx,
        plan,
        expect,
        warm_s,
    })
}

/// What the timed rounds of a run add up to.
#[derive(Default)]
pub struct Timed {
    /// One entry per round.
    pub rounds: Vec<Round>,
    /// Caller-side latency of every successful operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or whose counts differ from the warm-up.
    pub failed: u64,
    /// Served requests that hit the shard cache.
    pub cache_hits: u64,
    /// Process CPU seconds (user + system) over the timed section.
    pub cpu_s: f64,
}

/// Runs identical rounds until `seconds` have passed and at least
/// `min_rounds` are done. `on_op` sees every finished operation.
pub fn timed_rounds(
    warm: &mut Warm,
    seconds: f64,
    min_rounds: usize,
    mut on_op: impl FnMut(usize, &crate::ops::Done),
) -> Timed {
    let mut timed = Timed::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || timed.rounds.len() < min_rounds {
        let order = warm.plan.next_round();
        let t = Instant::now();
        let mut records = 0;
        for id in order {
            timed.attempted += 1;
            match warm.ctx.run(id) {
                Ok(done) if done.counts == warm.expect[id] => {
                    records += done.counts.records_in;
                    timed.latencies_ms.push(done.latency.as_secs_f64() * 1e3);
                    timed.cache_hits +=
                        u64::from(done.served.as_ref().is_some_and(|m| m.cache_hit));
                    on_op(id, &done);
                }
                Ok(done) => {
                    eprintln!(
                        "op {id}: {:?}, warm-up had {:?}",
                        done.counts, warm.expect[id]
                    );
                    timed.failed += 1;
                }
                Err(e) => {
                    eprintln!("op {id}: {e}");
                    timed.failed += 1;
                }
            }
        }
        timed.rounds.push(Round {
            wall_s: t.elapsed().as_secs_f64(),
            records,
        });
    }
    timed.cpu_s = cpu_seconds() - cpu0;
    timed
}

/// The `memory` subcommand: the warm-up and two rounds of the workload in
/// a process whose allocator returns freed memory at once (the parent
/// sets glibc's thresholds), then its `VmHWM` alone on standard output.
pub fn memory(args: &Args) -> BenchResult<bool> {
    let mut warm = warm_up(args)?;
    let timed = timed_rounds(&mut warm, 0.0, 2, |_, _| {});
    println!("{}", peak_rss_mb()?);
    Ok(timed.failed == 0)
}

/// The `measure` subcommand. Returns whether the run was correct.
pub fn run(args: &Args) -> BenchResult<bool> {
    let mut warm = warm_up(args)?;
    let (timed, metrics) = if args.trace {
        traced::run(args, &mut warm)?
    } else {
        let timed = timed_rounds(&mut warm, args.seconds, 1, |_, _| {});
        let metrics = end_to_end(args, &warm, &timed)?;
        (timed, metrics)
    };
    let expected = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    assert!(
        metrics
            .iter()
            .map(|m| (m.0, m.1))
            .eq(expected.iter().copied()),
        "metric list out of step with spec.rs"
    );
    let correct = timed.failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    print_result(correct, timed.attempted, timed.failed, &metrics);
    Ok(correct)
}

fn end_to_end(args: &Args, warm: &Warm, timed: &Timed) -> BenchResult<Vec<Metric>> {
    let records: u64 = timed.rounds.iter().map(|r| r.records).sum();
    // `ingest` publishes its store every round; the others serve theirs.
    let (stored_bytes, stored_records) = if args.workload == Workload::Ingest {
        let per_round = |f: fn(&Counts) -> u64| -> u64 {
            Plan::new(args.workload, 0, warm.expect.len())
                .next_round()
                .iter()
                .map(|&id| f(&warm.expect[id]))
                .sum()
        };
        (per_round(|c| c.bytes_out), per_round(|c| c.records_out))
    } else {
        warm.ctx.served_store()?
    };
    let values = [
        args.fixture_s + warm.warm_s,
        round_throughput(&timed.rounds),
        median(&timed.latencies_ms),
        percentile(&timed.latencies_ms, 90.0),
        timed.cpu_s / (records as f64 / 1e6),
        args.peak_rss_mb,
        stored_bytes as f64 / stored_records as f64,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect())
}

/// Prints every metric by name and unit, then the one-line JSON result.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        println!("{name:<36} {value:>18} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        // Rust prints the shortest text that parses back to the same f64:
        // every digit as measured.
        json += &format!("{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!("{json}}}}}");
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks are 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One-minute load average, recorded beside the per-layer numbers.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fixture, workdir};

    /// What must not depend on the seed: the sorted operation labels and
    /// the records of every round, the operation count, and the hits.
    #[derive(Debug, PartialEq)]
    struct Work {
        labels: Vec<Vec<&'static str>>,
        records: Vec<u64>,
        attempted: u64,
        failed: u64,
        cache_hits: u64,
    }

    const ROUNDS: usize = 3;

    fn work(workload: Workload, seed: u64) -> Work {
        let dir = workdir::scratch(&format!("test-{}-{seed}", workload.name()));
        fixture::build(workload, seed, &dir.join("fx")).unwrap();
        fixture::write_references(workload, &dir.join("fx")).unwrap();
        let args = Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            fixture_s: 0.0,
            peak_rss_mb: 0.0,
            dir: dir.clone(),
        };
        let mut warm = warm_up(&args).unwrap();
        let ops = warm.ctx.ops.clone();
        let mut all = Vec::new();
        let timed = timed_rounds(&mut warm, 0.0, ROUNDS, |id, _| all.push(ops[id].label()));
        let mut labels: Vec<Vec<&'static str>> =
            all.chunks(all.len() / ROUNDS).map(<[_]>::to_vec).collect();
        labels.iter_mut().for_each(|round| round.sort_unstable());
        drop(warm);
        std::fs::remove_dir_all(dir).unwrap();
        Work {
            labels,
            records: timed.rounds.iter().map(|r| r.records).collect(),
            attempted: timed.attempted,
            failed: timed.failed,
            cache_hits: timed.cache_hits,
        }
    }

    /// Two seeds, the same work; returns it for workload-specific checks.
    fn seed_invariant(workload: Workload) -> Work {
        let (a, b) = (work(workload, 101), work(workload, 202));
        assert_eq!(a, b, "the seed changed the amount of work");
        assert_eq!(a.failed, 0);
        assert!(
            a.records.iter().all(|&r| r == a.records[0] && r > 0),
            "rounds differ"
        );
        assert!(
            a.labels.iter().all(|round| *round == a.labels[0]),
            "round multisets differ"
        );
        a
    }

    #[test]
    fn ingest_work_is_seed_invariant() {
        let w = seed_invariant(Workload::Ingest);
        assert_eq!(w.attempted, (ROUNDS * 7) as u64);
        assert_eq!(w.records[0], 7 * crate::spec::INGEST_RECORDS as u64);
    }

    #[test]
    fn convert_work_is_seed_invariant() {
        let w = seed_invariant(Workload::Convert);
        assert_eq!(w.attempted, (ROUNDS * 8) as u64);
        let full = 6 * crate::spec::CONVERT_RECORDS as u64;
        assert_eq!(w.records[0], full + 2 * crate::spec::PARTIAL_RECORDS as u64);
    }

    #[test]
    fn serve_warm_always_hits() {
        let w = seed_invariant(Workload::ServeWarm);
        assert_eq!(w.cache_hits, w.attempted, "hit rate must be exactly 1");
    }

    #[test]
    fn serve_churn_v2_misses_exactly_one_request_in_four() {
        let w = seed_invariant(Workload::ServeChurnV2);
        assert_eq!(
            w.cache_hits * 4,
            w.attempted * 3,
            "hit rate must be exactly 0.75"
        );
    }

    #[test]
    fn cpu_clock_advances() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
