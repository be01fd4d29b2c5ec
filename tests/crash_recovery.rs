//! Crash matrix (DESIGN.md §7.5): preprocessing is killed at injected
//! byte offsets of its publication stream, and after every simulated
//! power cut the full recovery contract must hold end to end:
//!
//! 1. the shard repository reopens and `verify()` is clean — the
//!    manifest never references a torn artifact;
//! 2. resumed preprocessing skips manifest-verified shards and rebuilds
//!    only the lost tail, restoring a byte-identical shard set
//!    (MANIFEST included);
//! 3. the query engine serves correct results before the crash, during
//!    the damage (healing through its repairer seam), and after repair.

use std::sync::Arc;

use ngs_bamx::repo::ShardRepo;
use ngs_converter::{BamConverter, ConvertConfig, MemSource, SamxConverter, TargetFormat};
use ngs_fault::{Fault, FaultPlan, FaultyFs};
use ngs_query::{EngineConfig, ManualClock, QueryClass, QueryEngine, QueryKind, QueryOutcome, QueryRequest, RetryPolicy, ShardStore};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

fn dataset(records: usize) -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_records: records,
        n_chroms: 2,
        coordinate_sorted: true,
        seed: 0xC0FFEE,
        ..Default::default()
    })
}

/// Kill multi-rank preprocessing at a sweep of byte offsets; every
/// crashed repository must reopen with a clean manifest, and resume must
/// restore the reference byte set exactly.
#[test]
fn crash_matrix_reopens_clean_and_resumes_byte_identically() {
    let ds = dataset(600);
    let source = MemSource::new(ds.to_sam_bytes());
    let conv = SamxConverter::new(ConvertConfig::with_ranks(3));
    let dir = tempdir().unwrap();

    // Reference run through an instrumented (fault-free) filesystem to
    // learn the publication stream length and snapshot expected bytes.
    let ref_dir = dir.path().join("reference");
    let fs = FaultyFs::new(FaultPlan::none());
    let state = Arc::clone(fs.state());
    let repo = ShardRepo::create_with(&ref_dir, Arc::new(fs)).unwrap();
    conv.preprocess_source_repo(&source, &repo, "x", false).unwrap();
    let total = state.written();

    let reference = snapshot(&ref_dir);
    assert!(reference.contains_key("MANIFEST"));
    assert_eq!(reference.len(), 7, "MANIFEST + 3 × (bamx + baix)");

    // Crash points: an even sweep plus tail offsets (rank threads
    // publish concurrently, so only late crashes leave resumable shards).
    let mut offsets: Vec<u64> = (0..6).map(|p| total * p / 6).collect();
    offsets.push(total - total / 64);
    offsets.push(total - 1);

    let mut any_resumed = false;
    for (i, offset) in offsets.into_iter().enumerate() {
        let crash_dir = dir.path().join(format!("crash-{i}"));
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let run = ShardRepo::create_with(&crash_dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| conv.preprocess_source_repo(&source, &repo, "x", false));
        assert!(run.is_err(), "crash at byte {offset}/{total} must abort the run");

        // (1) Reopen: the manifest never references a torn artifact.
        let repo = ShardRepo::create(&crash_dir).unwrap();
        let report = repo.verify().unwrap();
        assert!(
            report.is_clean(),
            "crash at byte {offset}: damaged artifacts behind the manifest: {:?}",
            report.damaged
        );
        repo.clean_stray_temps().unwrap();

        // (2) Resume: byte-identical shard set, nothing extra on disk.
        let prep = conv.preprocess_source_repo(&source, &repo, "x", true).unwrap();
        any_resumed |= prep.shards.iter().any(|s| s.resumed);
        for (name, bytes) in &reference {
            let recovered = std::fs::read(crash_dir.join(name))
                .unwrap_or_else(|e| panic!("crash at {offset}: missing {name}: {e}"));
            assert_eq!(&recovered, bytes, "crash at byte {offset}: {name} diverged");
        }
        let mut names: Vec<String> = std::fs::read_dir(&crash_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, reference.keys().cloned().collect::<Vec<_>>());
    }
    assert!(any_resumed, "the tail crash points must exercise the resume path");
}

/// Every file in `dir`, by name.
fn snapshot(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (path.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Copies the files of `from` into a new directory `to`.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A crash inside the meta-update window: a rank-count change writes
/// `set_meta("ranks", ...)` and dies before rebuilding a single shard,
/// leaving a manifest whose meta matches the *next* run over shards
/// built under the old layout. Resume must detect the inconsistency
/// (meta matches but out-of-range shard entries survive), distrust the
/// whole stem, and rebuild — never serve the stale shard subset. The
/// window is first faked with `set_meta`, then hit by real power cuts
/// swept across the byte stream of a 4 → 3-rank rerun (prune, meta
/// rewrite and rebuild).
#[test]
fn crash_in_meta_update_window_rebuilds_instead_of_serving_stale_shards() {
    let ds = dataset(500);
    let src = MemSource::new(ds.to_sam_bytes());
    let dir = tempdir().unwrap();
    let wide_dir = dir.path().join("wide");
    let wide = SamxConverter::new(ConvertConfig::with_ranks(4));
    wide.preprocess_source(&src, &wide_dir, "x").unwrap();

    // Reference: what an uncrashed 3-rank run over a fresh directory
    // produces (deterministic partitioning → the recovery oracle).
    let ref_dir = dir.path().join("reference");
    let narrow = SamxConverter::new(ConvertConfig::with_ranks(3));
    narrow.preprocess_source(&src, &ref_dir, "x").unwrap();
    let reference = snapshot(&ref_dir);

    // Simulate: a 3-rank run starts, writes set_meta("ranks","3"), then
    // the process dies before any shard is rebuilt/recorded.
    let faked = dir.path().join("faked");
    copy_dir(&wide_dir, &faked);
    let repo = ShardRepo::open(&faked).unwrap();
    repo.set_meta("ranks", "3").unwrap();

    // Restart the 3-rank run with resume=true.
    let prep = narrow.preprocess_source_repo(&src, &repo, "x", true).unwrap();
    assert_eq!(prep.records(), 500, "resume must not serve stale 4-rank shards");
    assert!(prep.shards.iter().all(|s| !s.resumed), "no stale shard may be resumed");

    // The stale 4-rank shards are gone from manifest and disk: the
    // recovered set, MANIFEST included, is byte-identical to the
    // uncrashed reference.
    assert!(repo.verify().unwrap().is_clean());
    assert!(snapshot(&faked) == reference, "faked window: recovered set diverged");

    // Real power cuts: learn the rerun's stream length, then cut it at
    // swept byte offsets and recover each cut the same way.
    let probe = dir.path().join("probe");
    copy_dir(&wide_dir, &probe);
    let fs = FaultyFs::new(FaultPlan::none());
    let state = Arc::clone(fs.state());
    let repo = ShardRepo::open_with(&probe, Arc::new(fs)).unwrap();
    narrow.preprocess_source_repo(&src, &repo, "x", true).unwrap();
    let total = state.written();

    let mut offsets: Vec<u64> = (0..6).map(|p| 1 + total * p / 6).collect();
    offsets.push(total - 1);
    for (i, offset) in offsets.into_iter().enumerate() {
        let crash_dir = dir.path().join(format!("crash-{i}"));
        copy_dir(&wide_dir, &crash_dir);
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let run = ShardRepo::open_with(&crash_dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| narrow.preprocess_source_repo(&src, &repo, "x", true));
        assert!(run.is_err(), "crash at byte {offset}/{total} must abort the rerun");

        let repo = ShardRepo::create(&crash_dir).unwrap();
        let report = repo.verify().unwrap();
        assert!(report.is_clean(), "crash at byte {offset}: damaged: {:?}", report.damaged);
        repo.clean_stray_temps().unwrap();

        let prep = narrow.preprocess_source_repo(&src, &repo, "x", true).unwrap();
        assert_eq!(prep.records(), 500, "crash at byte {offset}: stale shards served");
        let recovered = snapshot(&crash_dir);
        assert_eq!(
            recovered.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>(),
            "crash at byte {offset}: file names diverged"
        );
        assert!(recovered == reference, "crash at byte {offset}: bytes diverged");
    }
}

/// The query engine across the whole damage lifecycle: correct answers
/// before the damage, self-healing through the repairer seam while the
/// shard is torn, and normal (cache-hit) service afterwards.
#[test]
fn engine_serves_correctly_before_during_and_after_repair() {
    let ds = dataset(800);
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();

    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard_dir = dir.path().join("shards");
    conv.preprocess(&bam_path, &shard_dir).unwrap();
    assert!(ShardRepo::is_managed(&shard_dir), "preprocess publishes through a manifest");

    let request = |out: std::path::PathBuf| QueryRequest {
        dataset: "input".into(),
        region: "chr1:1-50000".into(),
        kind: QueryKind::Convert { format: TargetFormat::Sam, out_dir: out },
        deadline: None,
        class: QueryClass::Interactive,
    };
    let run = |engine: &QueryEngine, out: std::path::PathBuf| {
        let outcome = engine.submit(request(out)).unwrap().wait().outcome;
        match outcome {
            Ok(QueryOutcome::Converted { output, .. }) => std::fs::read(output).unwrap(),
            other => panic!("query failed: {other:?}"),
        }
    };

    // BEFORE: a clean engine answers; this is the byte oracle.
    let clean_engine = QueryEngine::new(&shard_dir, EngineConfig::with_workers(1)).unwrap();
    let baseline = run(&clean_engine, dir.path().join("before"));
    drop(clean_engine);

    // Tear the shard the way a power cut mid-rewrite would.
    let bamx_path = shard_dir.join("input.bamx");
    let pristine = std::fs::read(&bamx_path).unwrap();
    std::fs::write(&bamx_path, &pristine[..pristine.len() / 3]).unwrap();

    // DURING: an engine whose store carries a repairer — re-deriving the
    // shard from the source BAM via resumable preprocessing — must heal
    // on first touch and serve the same bytes as the clean engine.
    let clock = Arc::new(ManualClock::new());
    let store = ShardStore::open_with(&shard_dir, 4, clock.clone(), RetryPolicy::default())
        .unwrap()
        .with_repairer(Box::new({
            let bam_path = bam_path.clone();
            let shard_dir = shard_dir.clone();
            move |_dataset: &str| {
                let repo = ShardRepo::create(&shard_dir)?;
                repo.clean_stray_temps()?;
                let conv = BamConverter::new(ConvertConfig::with_ranks(1));
                conv.preprocess_repo(&bam_path, &repo, true)?;
                Ok(())
            }
        }));
    let engine =
        QueryEngine::with_store(Arc::new(store), EngineConfig::with_workers(1), clock).unwrap();
    let healed = run(&engine, dir.path().join("during"));
    assert_eq!(healed, baseline, "healed engine must serve the clean bytes");

    // The repair really happened: counters say so, and the shard's bytes
    // are restored exactly.
    let stats = engine.stats();
    assert_eq!(stats.repairs, 1, "one structural failure → one repair attempt");
    assert_eq!(stats.repaired, 1, "the repair succeeded");
    assert_eq!(std::fs::read(&bamx_path).unwrap(), pristine);

    // AFTER: the same engine keeps serving (now from cache), and a fresh
    // engine over the repaired directory agrees without any repairer.
    let after = run(&engine, dir.path().join("after"));
    assert_eq!(after, baseline);
    assert_eq!(engine.stats().repairs, 1, "no further repairs needed");
    drop(engine);
    let fresh = QueryEngine::new(&shard_dir, EngineConfig::with_workers(1)).unwrap();
    assert_eq!(run(&fresh, dir.path().join("fresh")), baseline);
}

/// Kill the collate shuffle (DESIGN.md §10) mid-spill at a sweep of
/// byte offsets of its spill publication stream: every spill repository
/// must reopen with a clean manifest (no torn run behind an entry), and
/// a rerun over the surviving directory must produce byte-identical
/// output — deterministic run names republish through the manifest.
#[test]
fn collate_spill_crash_reopens_clean_and_rerun_is_byte_identical() {
    use ngs_collate::{CollateConfig, Collator, Workload};
    use ngs_formats::record::AlignmentRecord;
    use ngs_simgen::ReadProfile;

    let ds = Dataset::generate(&DatasetSpec {
        n_records: 400,
        n_chroms: 2,
        seed: 0xC0FFEE,
        profile: ReadProfile { duplicate_rate: 0.15, ..Default::default() },
        ..Default::default()
    });
    let header = ds.header();
    let dir = tempdir().unwrap();

    let config = |spill_dir: std::path::PathBuf,
                  fs: Option<Arc<dyn ngs_bamx::repo::RepoFs>>| CollateConfig {
        spill_budget: 4_000,
        spill_dir: Some(spill_dir),
        spill_fs: fs,
        ..Default::default()
    };
    let run = |config: CollateConfig| -> Result<Vec<AlignmentRecord>, _> {
        let mut out = Vec::new();
        Collator::new(config)
            .run_records(&header, ds.records.clone(), Workload::MarkDup, &mut |r| {
                out.push(r);
                Ok(())
            })
            .map(|_| out)
    };
    let verify_clean = |spill_dir: &std::path::Path, what: &str| {
        for phase in ["markdup", "restore"] {
            let phase_dir = spill_dir.join(phase);
            if !ShardRepo::is_managed(&phase_dir) {
                continue; // the kill landed before this phase published
            }
            let repo = ShardRepo::open(&phase_dir).unwrap();
            let report = repo.verify().unwrap();
            assert!(report.is_clean(), "{what}: damaged spill runs: {:?}", report.damaged);
            repo.clean_stray_temps().unwrap();
        }
    };

    // Instrumented fault-free reference: spill stream length + oracle.
    let fs = FaultyFs::new(FaultPlan::none());
    let state = Arc::clone(fs.state());
    let expected = run(config(dir.path().join("reference"), Some(Arc::new(fs)))).unwrap();
    let total = state.written();
    assert!(total > 0, "the tiny budget must force spilling");

    let mut offsets: Vec<u64> = (0..6).map(|p| 1 + total * p / 6).collect();
    offsets.push(total - 1);
    offsets.dedup();
    for (i, offset) in offsets.into_iter().enumerate() {
        let spill_dir = dir.path().join(format!("kill-{i}"));
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let killed = run(config(spill_dir.clone(), Some(Arc::new(FaultyFs::new(plan)))));
        assert!(killed.is_err(), "kill at byte {offset}/{total} must abort the run");
        verify_clean(&spill_dir, &format!("kill at byte {offset}"));

        let rerun = run(config(spill_dir.clone(), None)).unwrap();
        assert_eq!(rerun, expected, "kill at byte {offset}: rerun diverged");
        verify_clean(&spill_dir, &format!("rerun after byte {offset}"));
    }
}

/// Kill the collate *merge consumer* partway through the merged stream:
/// the merge is read-only over sealed runs, so the spill repositories —
/// `coord` for sorting, `markdup` and `restore` for duplicate marking —
/// must stay clean and a rerun over the same directory byte-identical.
#[test]
fn collate_merge_kill_leaves_repo_clean_and_rerun_is_byte_identical() {
    use ngs_collate::{CollateConfig, Collator, SortBy, Workload};
    use ngs_formats::record::AlignmentRecord;

    let ds = dataset(300);
    let header = ds.header();
    let dir = tempdir().unwrap();
    for workload in [Workload::Sort(SortBy::Coordinate), Workload::MarkDup] {
        let spill_dir = dir.path().join(workload.stem());
        let config = || CollateConfig {
            spill_budget: 4_000,
            spill_dir: Some(spill_dir.clone()),
            ..Default::default()
        };
        let phases: &[&str] = match workload {
            Workload::MarkDup => &["markdup", "restore"],
            _ => &[workload.stem()],
        };

        let mut expected: Vec<AlignmentRecord> = Vec::new();
        Collator::new(config())
            .run_records(&header, ds.records.clone(), workload, &mut |r| {
                expected.push(r);
                Ok(())
            })
            .unwrap();

        for keep in [0u64, 1, 150, 299] {
            let mut emitted = 0u64;
            let killed = Collator::new(config()).run_records(&header, ds.records.clone(), workload, &mut |_| {
                if emitted == keep {
                    return Err(ngs_formats::Error::InvalidRecord(
                        "injected merge-consumer kill".into(),
                    ));
                }
                emitted += 1;
                Ok(())
            });
            assert!(killed.is_err(), "{workload:?}: kill after {keep} records must abort the run");

            for phase in phases {
                let repo = ShardRepo::open(spill_dir.join(phase)).unwrap();
                assert!(
                    repo.verify().unwrap().is_clean(),
                    "{workload:?} {phase}: merge kill after {keep} records"
                );
            }

            let mut rerun: Vec<AlignmentRecord> = Vec::new();
            Collator::new(config())
                .run_records(&header, ds.records.clone(), workload, &mut |r| {
                    rerun.push(r);
                    Ok(())
                })
                .unwrap();
            assert_eq!(rerun, expected, "{workload:?}: kill after {keep} records: rerun diverged");
        }
    }
}

/// A crash mid-preprocessing of a *single-dataset* (BAM) repository:
/// the repaired repository must be byte-identical to an uncrashed one,
/// and `preprocess_repo` with resume must skip work when nothing is
/// damaged.
#[test]
fn bam_preprocess_crash_then_repair_is_byte_identical() {
    let ds = dataset(500);
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));

    // Reference (instrumented to learn the stream length).
    let ref_dir = dir.path().join("reference");
    let fs = FaultyFs::new(FaultPlan::none());
    let state = Arc::clone(fs.state());
    let repo = ShardRepo::create_with(&ref_dir, Arc::new(fs)).unwrap();
    conv.preprocess_repo(&bam_path, &repo, false).unwrap();
    let total = state.written();

    for frac in [3u64, 2, 1] {
        let crash_dir = dir.path().join(format!("crash-{frac}"));
        let offset = total - total / (frac * 2 + 1);
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let run = ShardRepo::create_with(&crash_dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| conv.preprocess_repo(&bam_path, &repo, false));
        assert!(run.is_err());

        let repo = ShardRepo::create(&crash_dir).unwrap();
        assert!(repo.verify().unwrap().is_clean());
        repo.clean_stray_temps().unwrap();
        conv.preprocess_repo(&bam_path, &repo, true).unwrap();

        for name in ["MANIFEST", "input.bamx", "input.baix"] {
            assert_eq!(
                std::fs::read(crash_dir.join(name)).unwrap(),
                std::fs::read(ref_dir.join(name)).unwrap(),
                "crash at byte {offset}: {name} diverged"
            );
        }

        // Resume over an intact repository is a no-op.
        let again = conv.preprocess_repo(&bam_path, &repo, true).unwrap();
        assert!(again.skipped, "verified shards must be skipped, not rebuilt");
    }
}
