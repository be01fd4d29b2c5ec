//! End-to-end tests driving the real `ngsp` binary.

use std::path::Path;
use std::process::{Command, Output};

use tempfile::tempdir;

fn ngsp(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ngsp"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn ngsp")
}

fn ok(dir: &Path, args: &[&str]) -> String {
    let out = ngsp(dir, args);
    assert!(
        out.status.success(),
        "ngsp {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_convert_flagstat_chain() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    let text = ok(d, &["generate", "--records", "800", "--out", "in.sam"]);
    assert!(text.contains("wrote 800 records"));

    let text = ok(d, &["convert", "in.sam", "--to", "bed", "--out", "bed", "--ranks", "3"]);
    assert!(text.contains("records: 800 in"));
    assert!(d.join("bed/in.part0000.bed").exists());
    assert!(d.join("bed/in.part0002.bed").exists());

    let text = ok(d, &["flagstat", "in.sam"]);
    assert!(text.contains("800 in total"));
}

#[test]
fn bam_region_workflow() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "600", "--out", "in.bam", "--sorted"]);
    let text = ok(d, &[
        "convert", "in.bam", "--to", "sam", "--out", "part", "--ranks", "2", "--region",
        "chr1:1-10000",
    ]);
    assert!(text.contains("records:"));

    // view with region prints header + only region records.
    let sam = ok(d, &["view", "in.bam", "chr1:1-10000"]);
    assert!(sam.starts_with("@HD"));
    for line in sam.lines().filter(|l| !l.starts_with('@')) {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields[2], "chr1");
        let pos: i64 = fields[3].parse().unwrap();
        assert!((1..=10_000).contains(&pos), "pos {pos}");
    }
}

#[test]
fn sort_merge_roundtrip() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "400", "--out", "in.sam"]);
    ok(d, &["sort", "in.sam", "--out", "sorted.sam", "--by", "coord"]);
    ok(d, &["convert", "sorted.sam", "--to", "sam", "--out", "parts", "--ranks", "3"]);
    let text = ok(d, &[
        "merge",
        "--out",
        "merged.sam",
        "parts/sorted.part0000.sam",
        "parts/sorted.part0001.sam",
        "parts/sorted.part0002.sam",
    ]);
    assert!(text.contains("merged 400 records"));
    assert_eq!(
        std::fs::read(d.join("merged.sam")).unwrap(),
        std::fs::read(d.join("sorted.sam")).unwrap()
    );
}

#[test]
fn stats_chain_histogram_denoise_fdr() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "2000", "--out", "in.sam"]);
    let text = ok(d, &["histogram", "in.sam", "--out", "h.bedgraph", "--bin", "25"]);
    assert!(text.contains("bins of 25 bp"));
    let text = ok(d, &[
        "denoise", "h.bedgraph", "--out", "s.bedgraph", "--radius", "4", "--patch", "2",
        "--sigma", "5",
    ]);
    assert!(text.contains("denoised"));
    let text = ok(d, &["fdr", "s.bedgraph", "--rounds", "6", "--thresholds", "0,2"]);
    assert!(text.contains("p_t"));
    assert!(text.lines().count() >= 4);
}

#[test]
fn preprocess_reports_layout() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "300", "--out", "in.bam", "--sorted"]);
    let text = ok(d, &["preprocess", "in.bam", "--out", "x"]);
    assert!(text.contains("record size"));
    assert!(d.join("x/in.bamx").exists());
    assert!(d.join("x/in.baix").exists());

    // SAM preprocessing produces shards.
    ok(d, &["generate", "--records", "300", "--out", "in.sam"]);
    let text = ok(d, &["preprocess", "in.sam", "--out", "shards", "--ranks", "2"]);
    assert!(text.contains("2 shards"));
}

#[test]
fn pipeline_streams_byte_identical_to_convert() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "700", "--out", "in.bam", "--sorted"]);
    ok(d, &["convert", "in.bam", "--to", "sam", "--out", "batch", "--ranks", "1"]);
    let text = ok(d, &[
        "pipeline", "in.bam", "--to", "sam", "--out", "stream", "--workers", "2", "--batch",
        "64", "--bound", "2",
    ]);
    assert!(text.contains("records: 700 in"), "got {text}");
    assert!(text.contains("items/s"), "metrics missing: {text}");
    assert_eq!(
        std::fs::read(d.join("batch/in.part0000.sam")).unwrap(),
        std::fs::read(d.join("stream/in.part0000.sam")).unwrap(),
        "streaming output must match batch conversion byte for byte"
    );

    // Region-restricted streaming over the already-preprocessed shard.
    let text = ok(d, &[
        "pipeline", "stream/bamx/in.bamx", "--to", "bed", "--out", "region", "--region",
        "chr1:1-10000",
    ]);
    assert!(text.contains("records:"), "got {text}");

    // Analysis graph: coverage + FDR with per-stage metrics.
    let text = ok(d, &["pipeline", "in.bam", "--analyze", "--rounds", "4"]);
    assert!(text.contains("analyzed 700 records"), "got {text}");
    assert!(text.contains("p_t"), "got {text}");
    assert!(text.contains("coverage"), "stage metrics missing: {text}");
}

#[test]
fn error_paths_exit_nonzero() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    let out = ngsp(d, &["convert", "missing.sam", "--to", "bed", "--out", "o"]);
    assert!(!out.status.success());
    let out = ngsp(d, &["convert", "x.sam", "--to", "nonsense", "--out", "o"]);
    assert!(!out.status.success());
    let out = ngsp(d, &["bogus-command"]);
    assert!(!out.status.success());
    let out = ngsp(d, &["generate", "--records"]);
    assert!(!out.status.success());

    // A flag the subcommand does not read (`--rank` for `--ranks`) is
    // rejected before any output is written.
    ok(d, &["generate", "--records", "50", "--out", "in.sam"]);
    let out = ngsp(d, &["convert", "in.sam", "--to", "bed", "--out", "typo", "--rank", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --rank"));
    assert!(!d.join("typo").exists(), "a rejected command must write nothing");
}

/// Every file in `dir`, by name.
fn snapshot(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn verify_flags_damage_and_repair_keeps_the_recorded_layout() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "600", "--out", "in.sam"]);
    ok(d, &["preprocess", "in.sam", "--out", "sh", "--ranks", "2", "--compress"]);
    let pristine = snapshot(&d.join("sh"));
    ok(d, &["verify", "sh"]);

    let shard = d.join("sh/in.shard0001.bamx");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&shard, bytes).unwrap();
    let out = ngsp(d, &["verify", "sh"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("DAMAGED"));

    // No layout flags: ranks, compression and format come from the
    // MANIFEST, so the intact shard is kept and only the damaged one is
    // rebuilt, byte for byte.
    let text = ok(d, &["repair", "sh", "--from", "in.sam"]);
    assert!(text.contains("1 shard(s) kept"), "got {text}");
    ok(d, &["verify", "sh"]);
    assert!(snapshot(&d.join("sh")) == pristine, "repair must restore the preprocessed bytes");
}

#[test]
fn usage_printed_without_args() {
    let dir = tempdir().unwrap();
    let out = ngsp(dir.path(), &[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn index_then_view_uses_overlap_semantics() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "500", "--out", "in.bam", "--sorted"]);
    let text = ok(d, &["index", "in.bam"]);
    assert!(text.contains("chunks"));
    assert!(d.join("in.bam.nbai").exists());

    // Indexed view (overlap semantics) returns at least as many records
    // as the BAIX fallback (start-inside semantics) for the same region.
    let with_index = ok(d, &["view", "in.bam", "chr1:3001-9000"]);
    std::fs::remove_file(d.join("in.bam.nbai")).unwrap();
    let without_index = ok(d, &["view", "in.bam", "chr1:3001-9000"]);
    let count = |s: &str| s.lines().filter(|l| !l.starts_with('@')).count();
    assert!(count(&with_index) >= count(&without_index));
    assert!(count(&with_index) > 0);
}

#[test]
fn peaks_pipeline_finds_injected_enrichment() {
    let dir = tempdir().unwrap();
    let d = dir.path();
    // Build a bedgraph with obvious enrichment islands by hand.
    let mut text = String::new();
    for i in 0..400 {
        let v = if (100..110).contains(&i) { 60 } else { 2 };
        text.push_str(&format!("chr1\t{}\t{}\t{}\n", i * 25, (i + 1) * 25, v));
    }
    std::fs::write(d.join("cov.bedgraph"), text).unwrap();

    let out = ok(d, &[
        "peaks", "cov.bedgraph", "--rounds", "12", "--target-fdr", "0.2", "--out",
        "peaks.bed",
    ]);
    assert!(out.contains("peaks"), "got {out}");
    let bed = std::fs::read_to_string(d.join("peaks.bed")).unwrap();
    // The enrichment island 2500..2750 must be among the called peaks.
    let mut hit = false;
    for line in bed.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let (s, e): (i64, i64) = (f[1].parse().unwrap(), f[2].parse().unwrap());
        if s <= 2500 && e >= 2750 {
            hit = true;
        }
    }
    assert!(hit, "island not called: {bed}");
}

#[test]
fn closed_stdout_exits_quietly_with_sigpipe_code() {
    use std::process::Stdio;

    let dir = tempdir().unwrap();
    let d = dir.path();
    ok(d, &["generate", "--records", "6000", "--out", "in.sam"]);

    // Emitting subcommands whose output can outrun a closed consumer.
    for args in [
        vec!["view", "in.sam"],
        vec!["flagstat", "in.sam"],
        vec!["convert", "in.sam", "--to", "bed", "--out", "bed", "--ranks", "2"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ngsp"))
            .current_dir(d)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ngsp");
        // Close the read end immediately: the child's writes hit EPIPE.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait ngsp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() || out.status.code() == Some(141),
            "ngsp {args:?}: expected success or exit 141, got {:?}\nstderr: {stderr}",
            out.status
        );
        // No panic backtrace, no error spray — a closed pipe is routine.
        assert!(!stderr.contains("panic"), "ngsp {args:?} panicked:\n{stderr}");
        assert!(!stderr.contains("Broken pipe") && !stderr.contains("ngsp"),
            "ngsp {args:?} noisy on closed stdout:\n{stderr}");
    }

    // The 6000-record view overflows the pipe buffer, so at least that
    // invocation must have taken the EPIPE path rather than finishing.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ngsp"))
        .current_dir(d)
        .args(["view", "in.sam"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ngsp");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait ngsp");
    assert_eq!(out.status.code(), Some(141), "stderr: {}",
        String::from_utf8_lossy(&out.stderr));
}
