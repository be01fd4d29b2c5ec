//! Cross-crate integration: the long-lived query engine must be a
//! drop-in for one-shot partial conversion — for the same region and
//! target format it produces byte-identical part files, because both
//! drive the same `convert_index_list` work unit.

use std::sync::Arc;

use ngs_bamx::Region;
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};
use ngs_query::{
    EngineConfig, ManualClock, QueryClass, QueryEngine, QueryError, QueryKind, QueryOutcome,
    QueryRequest,
};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

/// Engine output vs `BamConverter::convert_partial` at one rank, across
/// several regions and target formats.
#[test]
fn engine_matches_one_shot_partial_conversion_byte_for_byte() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 1_500,
        n_chroms: 2,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();

    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard_dir = dir.path().join("shards");
    let prep = conv.preprocess(&bam_path, &shard_dir).unwrap();

    let engine = QueryEngine::new(
        &shard_dir,
        EngineConfig { workers: 2, convert: ConvertConfig::with_ranks(1), ..Default::default() },
    )
    .unwrap();
    assert_eq!(engine.store().datasets().unwrap(), vec!["input".to_string()]);

    let header_probe = ngs_bamx::BamxFile::open(&prep.bamx_path).unwrap();
    let regions = ["chr1:1-2000", "chr1:5001-9000", "chr2:1-100000"];
    let formats = [TargetFormat::Bed, TargetFormat::Sam, TargetFormat::Json];

    for (i, (region_text, target)) in
        regions.iter().flat_map(|r| formats.iter().map(move |t| (*r, *t))).enumerate()
    {
        // One-shot path.
        let oneshot_dir = dir.path().join(format!("oneshot-{i}"));
        let region = Region::parse(region_text, header_probe.header()).unwrap();
        let oneshot =
            conv.convert_partial(&prep.bamx_path, &prep.baix_path, &region, target, &oneshot_dir)
                .unwrap();
        assert_eq!(oneshot.outputs.len(), 1, "one rank → one part file");

        // Engine path.
        let engine_dir = dir.path().join(format!("engine-{i}"));
        let ticket = engine
            .submit(QueryRequest {
                dataset: "input".into(),
                region: region_text.into(),
                kind: QueryKind::Convert { format: target, out_dir: engine_dir },
                deadline: None,
                class: QueryClass::Interactive,
            })
            .unwrap();
        let response = ticket.wait();
        let outcome = response.outcome.expect("engine request should succeed");
        let QueryOutcome::Converted { output, records_in, records_out, .. } = outcome else {
            panic!("expected a conversion outcome");
        };

        // Same part file name, same bytes.
        assert_eq!(
            output.file_name(),
            oneshot.outputs[0].file_name(),
            "{region_text} as {target:?}"
        );
        assert_eq!(
            std::fs::read(&output).unwrap(),
            std::fs::read(&oneshot.outputs[0]).unwrap(),
            "{region_text} as {target:?}"
        );
        assert_eq!(records_in, oneshot.records_in());
        assert_eq!(records_out, oneshot.records_out());
    }

    let stats = engine.drain();
    assert_eq!(stats.completed, (regions.len() * formats.len()) as u64);
    assert_eq!(stats.failed, 0);
    // One dataset, capacity-bounded cache: exactly one miss, rest hits.
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, stats.completed - 1);
}

/// Under injected *lossless* faults — transient open failures plus short
/// reads — the engine's retry path must still produce part files
/// byte-identical to one-shot partial conversion over pristine files:
/// fault recovery is not allowed to change a single output byte.
#[test]
fn engine_retries_transient_faults_to_byte_identical_output() {
    use std::collections::HashMap;
    use std::path::PathBuf;
    use std::sync::Mutex;

    use ngs_fault::{Fault, FaultPlan, FaultyFile};
    use ngs_query::{RetryPolicy, ShardStore, SourceOpener};

    let ds = Dataset::generate(&DatasetSpec {
        n_records: 900,
        n_chroms: 2,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard_dir = dir.path().join("shards");
    let prep = conv.preprocess(&bam_path, &shard_dir).unwrap();

    // Every shard file is served through a FaultyFile whose first read
    // fails transiently and whose deliveries are capped at 7 bytes. The
    // wrapper is shared across open attempts (one per path), so the
    // transient budget drains the way a real flaky mount would recover.
    let sources: Mutex<HashMap<PathBuf, std::sync::Arc<FaultyFile<Vec<u8>>>>> =
        Mutex::new(HashMap::new());
    let opener: Box<SourceOpener> = Box::new(move |path| {
        let mut map = sources.lock().unwrap();
        let source = map.entry(path.to_path_buf()).or_insert_with(|| {
            let bytes = std::fs::read(path).expect("shard fixture exists");
            let plan = FaultPlan::new(vec![
                Fault::TransientIo { failures: 1 },
                Fault::ShortRead { max: 7 },
            ]);
            assert!(plan.is_lossless());
            std::sync::Arc::new(FaultyFile::new(bytes, plan))
        });
        Ok(Box::new(std::sync::Arc::clone(source)))
    });
    let clock = Arc::new(ManualClock::new());
    let store = Arc::new(
        ShardStore::open_with(&shard_dir, 4, clock.clone(), RetryPolicy::default())
            .unwrap()
            .with_opener(opener),
    );
    let engine = QueryEngine::with_store(
        store,
        EngineConfig { workers: 1, convert: ConvertConfig::with_ranks(1), ..Default::default() },
        clock,
    )
    .unwrap();

    let header_probe = ngs_bamx::BamxFile::open(&prep.bamx_path).unwrap();
    for (i, region_text) in ["chr1:1-4000", "chr2:1-100000"].iter().enumerate() {
        let region = Region::parse(region_text, header_probe.header()).unwrap();
        let oneshot_dir = dir.path().join(format!("oneshot-{i}"));
        let oneshot = conv
            .convert_partial(
                &prep.bamx_path,
                &prep.baix_path,
                &region,
                TargetFormat::Sam,
                &oneshot_dir,
            )
            .unwrap();

        let engine_dir = dir.path().join(format!("engine-{i}"));
        let response = engine
            .submit(QueryRequest {
                dataset: "input".into(),
                region: (*region_text).into(),
                kind: QueryKind::Convert { format: TargetFormat::Sam, out_dir: engine_dir },
                deadline: None,
                class: QueryClass::Interactive,
            })
            .unwrap()
            .wait();
        let QueryOutcome::Converted { output, .. } =
            response.outcome.expect("retry must absorb the injected transient faults")
        else {
            panic!("expected a conversion outcome");
        };
        assert_eq!(
            std::fs::read(&output).unwrap(),
            std::fs::read(&oneshot.outputs[0]).unwrap(),
            "{region_text}: engine output under faults must match pristine one-shot bytes"
        );
    }

    let stats = engine.drain();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);
    // Attempt 1 hits the bamx wrapper's fault, attempt 2 the baix one's;
    // attempt 3 opens clean. The second request is a cache hit.
    assert_eq!(stats.transient_retries, 2);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.backoff_rejections, 0);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
}

/// The identity guarantee must survive the segmented-store rebuild: for
/// every worker count × segment count, and for every region × format
/// in a mixed request batch submitted all at once, the
/// part file is byte-identical to single-threaded one-shot partial
/// conversion (`convert_index_list` under `convert_partial`). Workers
/// race on the shared cache — including the cold single-flight decode —
/// and batching drains several queued requests per wakeup; none of that
/// may change a single output byte.
#[test]
fn engine_byte_identity_holds_across_workers_and_segments() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 1_000,
        n_chroms: 2,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard_dir = dir.path().join("shards");
    let prep = conv.preprocess(&bam_path, &shard_dir).unwrap();

    // Reference bytes: one-shot single-threaded partial conversion.
    let header_probe = ngs_bamx::BamxFile::open(&prep.bamx_path).unwrap();
    let regions = ["chr1:1-2500", "chr1:4001-8000", "chr2:1-100000"];
    let formats = [TargetFormat::Sam, TargetFormat::Bed];
    let mix: Vec<(&str, TargetFormat)> =
        regions.iter().flat_map(|r| formats.iter().map(move |t| (*r, *t))).collect();
    let reference: Vec<(std::ffi::OsString, Vec<u8>)> = mix
        .iter()
        .enumerate()
        .map(|(i, (region_text, target))| {
            let region = Region::parse(region_text, header_probe.header()).unwrap();
            let out = dir.path().join(format!("m-ref-{i}"));
            let oneshot = conv
                .convert_partial(&prep.bamx_path, &prep.baix_path, &region, *target, &out)
                .unwrap();
            let path = &oneshot.outputs[0];
            (path.file_name().unwrap().to_os_string(), std::fs::read(path).unwrap())
        })
        .collect();

    for workers in [1usize, 4, 8] {
        for segments in [1usize, 4] {
            let config = EngineConfig {
                workers,
                segments,
                convert: ConvertConfig::with_ranks(1),
                ..Default::default()
            };
            let engine = QueryEngine::new(&shard_dir, config).unwrap();
            assert_eq!(engine.store().segment_count(), segments);
            // Submit the whole mix at once so the workers genuinely
            // race (and the cold open genuinely coalesces).
            let tickets: Vec<_> = mix
                .iter()
                .enumerate()
                .map(|(i, (region_text, target))| {
                    let out_dir = dir.path().join(format!("m-w{workers}-s{segments}-{i}"));
                    engine
                        .submit(QueryRequest {
                            dataset: "input".into(),
                            region: (*region_text).into(),
                            kind: QueryKind::Convert { format: *target, out_dir },
                            deadline: None,
                            class: QueryClass::Interactive,
                        })
                        .unwrap()
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let label =
                    format!("workers={workers} segments={segments} request={:?}", mix[i]);
                let QueryOutcome::Converted { output, .. } = ticket
                    .wait()
                    .outcome
                    .unwrap_or_else(|e| panic!("{label}: failed: {e}"))
                else {
                    panic!("{label}: expected a conversion outcome");
                };
                assert_eq!(
                    output.file_name().unwrap(),
                    reference[i].0,
                    "{label}: part-file name"
                );
                assert_eq!(
                    std::fs::read(&output).unwrap(),
                    reference[i].1,
                    "{label}: bytes must match single-threaded one-shot"
                );
            }
            // One dataset: exactly one decode however many workers
            // raced for the cold shard.
            let counters = engine.store().counters();
            assert_eq!(counters.decodes, 1, "workers={workers} segments={segments}");
            assert_eq!(counters.hits + counters.misses, mix.len() as u64);
            let stats = engine.drain();
            assert_eq!(stats.completed, mix.len() as u64, "workers={workers}");
            assert_eq!(stats.failed, 0);
        }
    }
}

/// Coverage requests agree with a direct histogram over the same region,
/// and deadline bookkeeping stays deterministic under a manual clock.
#[test]
fn engine_coverage_and_deadlines_are_deterministic() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 400,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard_dir = dir.path().join("shards");
    conv.preprocess(&bam_path, &shard_dir).unwrap();

    let clock = Arc::new(ManualClock::new());
    let engine = QueryEngine::with_clock(
        &shard_dir,
        EngineConfig { workers: 1, ..Default::default() },
        clock.clone(),
    )
    .unwrap();

    let ticket = engine
        .submit(QueryRequest {
            dataset: "input".into(),
            region: "chr1".into(),
            kind: QueryKind::Coverage { bin_size: 100 },
            deadline: None,
            class: QueryClass::Interactive,
        })
        .unwrap();
    let response = ticket.wait();
    let QueryOutcome::Coverage { bins, bin_size, records } =
        response.outcome.expect("coverage should succeed")
    else {
        panic!("expected a coverage outcome");
    };
    assert_eq!(bin_size, 100);
    assert!(!bins.is_empty());
    assert!(records > 0);
    // Every mapped base lands in some bin: total coverage is positive.
    assert!(bins.iter().sum::<f64>() > 0.0);

    let stats = engine.drain();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.deadline_missed, 0);
}

/// A zero coverage bin size is refused at `submit` with a typed error,
/// so no library caller can panic a worker, and the engine keeps serving:
/// a valid request submitted after it still completes.
#[test]
fn engine_rejects_zero_coverage_bin_at_submit_and_keeps_serving() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 400,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let shard_dir = dir.path().join("shards");
    BamConverter::new(ConvertConfig::with_ranks(1)).preprocess(&bam_path, &shard_dir).unwrap();
    let engine = QueryEngine::new(&shard_dir, EngineConfig { workers: 1, ..Default::default() })
        .unwrap();
    let request = |bin_size| QueryRequest {
        dataset: "input".into(),
        region: "chr1".into(),
        kind: QueryKind::Coverage { bin_size },
        deadline: None,
        class: QueryClass::Interactive,
    };

    match engine.submit(request(0)) {
        Err(QueryError::Invalid(msg)) => assert!(msg.contains("bin size"), "{msg}"),
        Err(e) => panic!("expected Invalid, got {e}"),
        Ok(_) => panic!("a zero bin size was admitted"),
    }
    let outcome = engine.submit(request(50)).unwrap().wait().outcome;
    let Ok(QueryOutcome::Coverage { bin_size, records, .. }) = outcome else {
        panic!("expected a coverage outcome, got {outcome:?}");
    };
    assert_eq!(bin_size, 50);
    assert!(records > 0);
}
