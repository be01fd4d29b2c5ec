//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                      # every experiment at default scale
//! repro table1 fig6 fig12        # a subset
//! repro all --scale 0.25        # smaller datasets
//! repro fig6 --cores 1,2,4,8    # custom core axis
//! repro all --out results.txt   # also write a report file
//! ```

use std::io::Write;

use ngs_bench::{
    collate_bench, fault_bench, fig10, fig11, fig12, fig6, fig7, fig8, fig9,
    load_bench, obs_bench, recovery_bench, table1, ExperimentConfig, Scale,
};

const ALL: [&str; 13] = [
    "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fault", "recovery",
    "obs", "collate", "load",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [{}|all]... [--scale F] [--cores A,B,C] [--out FILE]",
        ALL.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut selected: Vec<String> = Vec::new();
    let mut scale = Scale(1.0);
    let mut cores: Option<Vec<usize>> = None;
    let mut out_file: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale(v.parse().unwrap_or_else(|_| usage()));
            }
            "--cores" => {
                let v = it.next().unwrap_or_else(|| usage());
                cores = Some(
                    v.split(',')
                        .map(|c| c.parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--out" => out_file = Some(it.next().unwrap_or_else(|| usage())),
            "all" => selected.extend(ALL.iter().map(|s| s.to_string())),
            name if ALL.contains(&name) => selected.push(name.to_string()),
            _ => usage(),
        }
    }
    if selected.is_empty() {
        usage();
    }
    selected.dedup();

    let mut cfg = ExperimentConfig::new(scale).expect("cache directory");
    if let Some(c) = cores {
        cfg.cores = c;
    }

    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let mut report = String::new();
    report.push_str(&format!(
        "ngs-parallel reproduction report (scale {:.3}, cores {:?}, host cores {host_cores})\n\
         simulated-cluster timing: ranks run on real threads; parallel time = serial sections \
         + max(per-rank on-CPU time)\n\n",
        scale.0, cfg.cores
    ));

    for name in &selected {
        eprintln!("[repro] running {name} ...");
        let start = std::time::Instant::now();
        let text = match name.as_str() {
            "table1" => table1(&cfg).expect("table1").to_string(),
            "fig6" => fig6(&cfg).expect("fig6").to_string(),
            "fig7" => fig7(&cfg).expect("fig7").to_string(),
            "fig8" => fig8(&cfg).expect("fig8").to_string(),
            "fig9" => fig9(&cfg).expect("fig9").to_string(),
            "fig10" => fig10(&cfg).expect("fig10").to_string(),
            "fig11" => fig11(&cfg).expect("fig11").to_string(),
            "fig12" => fig12(&cfg).expect("fig12").to_string(),
            "fault" => fault_bench(&cfg).expect("fault"),
            "recovery" => recovery_bench(&cfg).expect("recovery"),
            "obs" => obs_bench(&cfg).expect("obs"),
            "collate" => collate_bench(&cfg).expect("collate"),
            "load" => load_bench(&cfg).expect("load"),
            _ => unreachable!(),
        };
        eprintln!("[repro] {name} done in {:.1}s", start.elapsed().as_secs_f64());
        report.push_str(&text);
        report.push('\n');
    }

    print!("{report}");
    if let Some(path) = out_file {
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(report.as_bytes()))
            .expect("write report");
        eprintln!("[repro] report written to {path}");
    }
}
