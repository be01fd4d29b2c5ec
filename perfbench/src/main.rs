//! The repository's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench aa [--runs 10] [--seconds 20]
//! ```
//!
//! A run is several processes: this parent, which builds the fixture three
//! times in `fixture` children (timing them), writes the sequential
//! references in a `reference` child, takes the peak resident set from a
//! short `memory` child, and then starts the `measure` child that does
//! everything that is timed and prints the result.

mod aa;
mod decomp;
mod fixture;
mod json;
mod measure;
mod ops;
mod oracle;
mod probes;
mod spans;
mod spec;
mod stats;
mod traced;
mod workdir;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spec::Workload;

/// Errors are reported, never matched on.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Fixture builds per run; `setup_s` takes their median (rule 6).
const FIXTURE_BUILDS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("fixture") => child_args(&args[1..])
            .and_then(|a| fixture::build(a.workload, a.seed, &a.dir.join("fx")).map(|()| true)),
        Some("reference") => child_args(&args[1..])
            .and_then(|a| fixture::write_references(a.workload, &a.dir.join("fx")).map(|()| true)),
        Some("memory") => child_args(&args[1..]).and_then(|a| measure::memory(&a)),
        Some("measure") => child_args(&args[1..]).and_then(|a| measure::run(&a)),
        Some("aa") => aa::run(&args[1..]).map(|()| true),
        _ => child_args(&args).and_then(|a| parent(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--workload --seed --seconds --trace [--dir --fixture-s --peak-rss-mb]`.
fn child_args(args: &[String]) -> BenchResult<measure::Args> {
    let mut parsed = measure::Args {
        workload: Workload::Ingest,
        seed: 0,
        seconds: 0.0,
        trace: false,
        fixture_s: 0.0,
        peak_rss_mb: 0.0,
        dir: PathBuf::new(),
    };
    let mut have_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Workload::parse(value).ok_or_else(bad)?;
                have_workload = true;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value == "1",
            "--fixture-s" => parsed.fixture_s = value.parse().map_err(|_| bad())?,
            "--peak-rss-mb" => parsed.peak_rss_mb = value.parse().map_err(|_| bad())?,
            "--dir" => parsed.dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    if !have_workload {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            names.join("|")
        )
        .into());
    }
    Ok(parsed)
}

/// A child of this executable: `sub --workload W --seed N --dir DIR`.
fn child(sub: &str, args: &measure::Args, dir: &std::path::Path) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path is readable"));
    cmd.arg(sub)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(dir);
    cmd
}

fn parent(args: &measure::Args) -> BenchResult<bool> {
    // Dropped — and the directory removed — on every way out of here,
    // after every child has been waited for.
    let run = workdir::RunDir::create();
    let mut builds = Vec::with_capacity(FIXTURE_BUILDS);
    for _ in 0..FIXTURE_BUILDS {
        let _ = std::fs::remove_dir_all(run.path().join("fx"));
        let t = Instant::now();
        if !child("fixture", args, run.path()).status()?.success() {
            return Err("fixture build failed".into());
        }
        builds.push(t.elapsed().as_secs_f64());
    }
    if !child("reference", args, run.path()).status()?.success() {
        return Err("reference build failed".into());
    }
    // Peak memory comes from a process of its own whose allocator maps
    // every buffer of 128 KiB or more separately and trims its heaps at
    // once, so `VmHWM` is the most memory that was live at one time. In
    // the measuring process glibc keeps freed memory, and how much depends
    // on which thread met which request first (rule 7 of README.md); its
    // allocator is left at the defaults users run with.
    let mut peak_rss_mb = 0.0;
    if !args.trace {
        let memory = child("memory", args, run.path())
            .env("MALLOC_MMAP_THRESHOLD_", (128 << 10).to_string())
            .env("MALLOC_TRIM_THRESHOLD_", (128 << 10).to_string())
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let text = String::from_utf8_lossy(&memory.stdout);
        peak_rss_mb = match text.trim().parse() {
            Ok(mb) if memory.status.success() => mb,
            _ => return Err(format!("memory pass failed: {text}").into()),
        };
    }
    let status = child("measure", args, run.path())
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--fixture-s", &stats::median(&builds).to_string()])
        .args(["--peak-rss-mb", &peak_rss_mb.to_string()])
        .status()?;
    // The span file of a traced run outlives the run directory: the last
    // one per workload stays at `perfbench/work/trace-<workload>.jsonl`.
    let spans = run.path().join("trace.jsonl");
    if spans.exists() {
        std::fs::rename(
            spans,
            workdir::root().join(format!("trace-{}.jsonl", args.workload.name())),
        )?;
    }
    Ok(status.success())
}
