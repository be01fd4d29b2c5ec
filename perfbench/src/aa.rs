//! `perfbench aa`: the driver's own acceptance test, run on one commit.
//!
//! For every workload, two sets of `--runs` runs, every run with another
//! seed. Per end-to-end metric it prints both medians, how much worse the
//! second is than the first, and each set's interquartile distance as a
//! share of its median (`statistics.quantiles(n=4)`), beside the bound
//! from `BENCHMARK.json`. The bounds in `BENCHMARK.json` and the table in
//! README.md come from this output.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::spec::Workload;
use crate::stats::{iqr_share, median};
use crate::BenchResult;

/// `BENCHMARK.json` at the root of the checkout this package sits in.
pub fn benchmark_json() -> BenchResult<Value> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Ok(json::parse(&std::fs::read_to_string(path)?)?)
}

/// One end-to-end run; returns its metric values by name.
fn one_run(workload: Workload, seed: u64, seconds: u64) -> BenchResult<BTreeMap<String, f64>> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{} seed {seed}: run failed: {last}", workload.name()).into());
    }
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// The `aa` subcommand: `[--runs N] [--seconds S] [--workload NAME]`.
pub fn run(args: &[String]) -> BenchResult<()> {
    let spec = benchmark_json()?;
    let mut runs = 10u64;
    let mut seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(20.0) as u64;
    let mut only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => runs = value.parse()?,
            "--seconds" => seconds = value.parse()?,
            "--workload" => {
                only = Some(Workload::parse(value).ok_or_else(|| format!("no workload {value}"))?)
            }
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default();

    println!("| workload | metric | bound | median A | median B | B worse by | IQR/median A | IQR/median B | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        // Set A takes seeds 1..=runs, set B the next `runs` seeds.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for (set, values) in sets.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = set as u64 * runs + run + 1;
                for (name, value) in one_run(workload, seed, seconds)? {
                    values.entry(name).or_default().push(value);
                }
                eprintln!(
                    "{} set {} run {}/{runs} done",
                    workload.name(),
                    ["A", "B"][set],
                    run + 1
                );
            }
        }
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let bound = metric
                .get("bound")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let lower_is_better = metric.get("better").and_then(Value::as_str) == Some("lower");
            let (a, b) = (&sets[0][name], &sets[1][name]);
            let (med_a, med_b) = (median(a), median(b));
            let worse = if lower_is_better {
                med_b - med_a
            } else {
                med_a - med_b
            } / med_a.abs();
            let (iqr_a, iqr_b) = (iqr_share(a), iqr_share(b));
            // The driver gates every spread but `setup_s`'s, and every
            // median shift; the goal is a spread below a third of the bound.
            let gated = name != "setup_s";
            let ok = worse <= bound && (!gated || iqr_a.max(iqr_b) <= bound);
            let steady = !gated || iqr_a.max(iqr_b) <= bound / 3.0;
            all_ok &= ok;
            println!(
                "| {} | {name} | {bound} | {med_a:.6} | {med_b:.6} | {:+.2}% | {:.2}% | {:.2}% | {} |",
                workload.name(),
                100.0 * worse,
                100.0 * iqr_a,
                100.0 * iqr_b,
                match (ok, steady) {
                    (true, true) => "ok",
                    (true, false) => "ok, spread above bound/3",
                    (false, _) => "REFUSED",
                }
            );
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err("at least one metric would be refused by the driver".into())
    }
}
