//! The contract of the result line, checked on the real binary: names and
//! units printed with `--trace 0` / `--trace 1` are the `end_to_end` /
//! `per_layer` lists of `BENCHMARK.json`, in order.

use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark as the driver does and returns the printed metric
/// lines (`name value unit`) and the parsed result line.
fn run(workload: &str, trace: &str) -> (Vec<(String, String)>, Value) {
    let child = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let run_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("work/run-{}", child.id()));
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "exit {:?}", output.status);
    assert!(!run_dir.exists(), "the work directory must be removed");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(lines.pop().unwrap()).unwrap();
    let printed = lines
        .iter()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "metric line {l:?}");
            assert!(f[1].parse::<f64>().unwrap().is_finite());
            (f[0].to_string(), f[2].to_string())
        })
        .collect();
    (printed, result)
}

fn check(trace: &str, list: &str) {
    let spec = benchmark_json();
    let want = declared(&spec, list);
    let (printed, result) = run("ingest", trace);
    assert_eq!(printed, want, "printed metric lines");
    let Some(Value::Object(top)) = Some(&result) else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics")
    };
    assert_eq!(metrics.len(), want.len());
    for (name, unit) in &want {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap().is_finite(),
            "{name}"
        );
    }
}

#[test]
fn trace_0_prints_the_end_to_end_list() {
    check("0", "end_to_end");
}

#[test]
fn trace_1_prints_the_per_layer_list() {
    check("1", "per_layer");
}

#[test]
fn benchmark_json_names_the_four_workloads_and_this_package() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        ["ingest", "convert", "serve_warm", "serve_churn_v2"]
    );
    let paths = spec.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::String("perfbench".into())]);
    let e2e = declared(&spec, "end_to_end");
    assert!(e2e.contains(&("setup_s".into(), "s".into())));
    for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"][..], &[][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success());
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
    }
}
