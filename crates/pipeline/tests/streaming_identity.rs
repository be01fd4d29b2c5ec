//! Streaming-vs-batch equivalence and fault behaviour for `ngs-pipeline`.
//!
//! The contract under test: the convert graph's output is
//! **byte-identical** to the one-shot `BamConverter` paths for every
//! registered target format; structural corruption quarantines a shard
//! while the graph drains cleanly; transient faults are retried to
//! identical output.

use std::path::Path;
use std::sync::Arc;

use ngs_bamx::{Baix, BamxCompression, BamxFile, Region};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};
use ngs_fault::{FaultPlan, FaultyFile};
use ngs_formats::record::AlignmentRecord;
use ngs_pipeline::{ManualClock, Pipeline, PipelineConfig, ShardInput, StreamConverter};
use ngs_simgen::{Dataset, DatasetSpec};
use proptest::prelude::*;
use tempfile::tempdir;

fn config(workers: usize, batch_size: usize) -> PipelineConfig {
    PipelineConfig { workers, batch_size, channel_bound: 2, retry_attempts: 3 }
}

fn pipeline(workers: usize, batch_size: usize) -> Pipeline {
    Pipeline::new(config(workers, batch_size))
}

/// Generates a dataset, writes its BAMX + BAIX under `dir`, and returns
/// the two paths.
fn make_shard(dir: &Path, n_records: usize, seed: u64) -> (std::path::PathBuf, std::path::PathBuf) {
    let ds = Dataset::generate(&DatasetSpec {
        n_records,
        n_chroms: 2,
        coordinate_sorted: true,
        seed,
        ..Default::default()
    });
    let bamx = dir.join("input.bamx");
    let baix = dir.join("input.baix");
    ngs_bamx::write_bamx_file(&bamx, &ds.genome.header(), &ds.records, BamxCompression::Plain)
        .unwrap();
    Baix::build(&BamxFile::open(&bamx).unwrap()).unwrap().save(&baix).unwrap();
    (bamx, baix)
}

/// Whole file: byte-identical to one-rank
/// `BamConverter::convert_bamx` for every registered target format.
#[test]
fn streaming_full_file_matches_one_shot_for_every_format() {
    let dir = tempdir().unwrap();
    let (bamx, _) = make_shard(dir.path(), 800, 11);
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));

    for format in TargetFormat::ALL {
        let oneshot_dir = dir.path().join(format!("oneshot-{format:?}"));
        let report = conv.convert_bamx(&bamx, format, &oneshot_dir).unwrap();
        assert_eq!(report.outputs.len(), 1);

        let stream_dir = dir.path().join(format!("stream-{format:?}"));
        let run = pipeline(4, 64).convert_file(&bamx, format, &stream_dir).unwrap();

        assert_eq!(
            run.path.file_name(),
            report.outputs[0].file_name(),
            "{format:?}: same part naming"
        );
        assert_eq!(
            std::fs::read(&run.path).unwrap(),
            std::fs::read(&report.outputs[0]).unwrap(),
            "{format:?}: streaming must be byte-identical to one-shot"
        );
        assert_eq!(run.records_in, report.records_in());
        assert_eq!(run.records_out, report.records_out());
        assert!(run.quarantined.is_empty());
        assert_eq!(run.transient_retries, 0);
        assert!(!run.metrics.cancelled);
    }
}

/// The streaming source honors the durability manifest: in a
/// [`ShardRepo`](ngs_bamx::repo::ShardRepo)-managed directory a verified
/// shard streams byte-identically to the one-shot path, while a torn
/// shard is refused with a typed error before any batch is produced.
#[test]
fn streaming_source_honors_the_manifest() {
    use ngs_bamx::repo::ShardRepo;
    use ngs_formats::error::{DecodeErrorKind, Error};

    let dir = tempdir().unwrap();
    let scratch = tempdir().unwrap();
    let (bamx, baix) = make_shard(scratch.path(), 400, 23);
    let repo = ShardRepo::create(dir.path()).unwrap();
    repo.publish_bytes("input.bamx", &std::fs::read(&bamx).unwrap()).unwrap();
    repo.publish_bytes("input.baix", &std::fs::read(&baix).unwrap()).unwrap();
    let managed_bamx = dir.path().join("input.bamx");

    // Verified shard: streams exactly like the unmanaged one-shot path.
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let report = conv.convert_bamx(&bamx, TargetFormat::Sam, dir.path().join("oneshot")).unwrap();
    let run = pipeline(2, 64)
        .convert_file(&managed_bamx, TargetFormat::Sam, dir.path().join("stream"))
        .unwrap();
    assert_eq!(
        std::fs::read(&run.path).unwrap(),
        std::fs::read(&report.outputs[0]).unwrap()
    );

    // Torn shard (truncated behind the manifest's back): refused with a
    // typed Torn error before the graph starts.
    let bytes = std::fs::read(&managed_bamx).unwrap();
    std::fs::write(&managed_bamx, &bytes[..bytes.len() - 7]).unwrap();
    let err = pipeline(2, 64)
        .convert_file(&managed_bamx, TargetFormat::Sam, dir.path().join("torn"))
        .unwrap_err();
    match err {
        Error::Decode(d) => assert_eq!(d.kind, DecodeErrorKind::Torn, "{d}"),
        other => panic!("expected a typed Torn decode error, got: {other}"),
    }
}

/// Region subset: the located index list streamed as one shard is
/// byte-identical to one-rank `BamConverter::convert_partial` (same
/// BAIX lookup, same stem).
#[test]
fn streaming_region_matches_one_shot_partial_for_every_format() {
    let dir = tempdir().unwrap();
    let (bamx, baix) = make_shard(dir.path(), 900, 23);
    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let shard = Arc::new(BamxFile::open(&bamx).unwrap());
    let index = Baix::load(&baix).unwrap();
    let converter = StreamConverter::with_clock(config(3, 32), Arc::new(ManualClock::new()));

    for region_text in ["chr1:1-4000", "chr2:1-100000"] {
        let region = Region::parse(region_text, shard.header()).unwrap();
        let ref_id = region.resolve(shard.header()).unwrap();
        let indices = index.shard_indices(index.locate(ref_id, &region));
        let stem = format!("input.{}", region.to_string().replace([':', '-'], "_"));
        for format in TargetFormat::ALL {
            let oneshot_dir = dir.path().join(format!("oneshot-{region_text}-{format:?}"));
            let report =
                conv.convert_partial(&bamx, &baix, &region, format, &oneshot_dir).unwrap();

            let stream_dir = dir.path().join(format!("stream-{region_text}-{format:?}"));
            let input = ShardInput {
                name: stem.clone(),
                bamx: Arc::clone(&shard),
                indices: Some(indices.clone()),
            };
            let run =
                converter.convert(vec![input], format, &stream_dir, &stem, 0, true).unwrap();

            assert_eq!(run.path.file_name(), report.outputs[0].file_name());
            assert_eq!(
                std::fs::read(&run.path).unwrap(),
                std::fs::read(&report.outputs[0]).unwrap(),
                "{region_text} as {format:?}"
            );
            assert_eq!(run.records_in, report.records_in());
        }
    }
}

/// Opens a BGZF shard through a `FaultyFile` so open succeeds (block
/// headers are pristine) but record reads hit a corrupt payload — a
/// structural `DecodeError` mid-stream.
fn corrupt_bgzf_shard(dir: &Path, seed: u64) -> Arc<BamxFile> {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 300,
        n_chroms: 2,
        coordinate_sorted: true,
        seed,
        ..Default::default()
    });
    let path = dir.join("bad.bamx");
    ngs_bamx::write_bamx_file(&path, &ds.genome.header(), &ds.records, BamxCompression::Bgzf)
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the first block's deflate payload: the CRC check
    // in `decompress_block` turns this into a typed decode error.
    let target = bytes.len() / 2;
    bytes[target] ^= 0xFF;
    let source = FaultyFile::new(bytes, FaultPlan::new(vec![]));
    Arc::new(BamxFile::open_with(Box::new(source), "bad.bamx").unwrap())
}

fn good_shard(dir: &Path, name: &str, n: usize, seed: u64) -> Arc<BamxFile> {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: n,
        n_chroms: 2,
        coordinate_sorted: true,
        seed,
        ..Default::default()
    });
    let path = dir.join(name);
    ngs_bamx::write_bamx_file(&path, &ds.genome.header(), &ds.records, BamxCompression::Plain)
        .unwrap();
    Arc::new(BamxFile::open(&path).unwrap())
}

/// A structurally corrupt shard is quarantined: the run succeeds, reports
/// the quarantine, and still converts every healthy shard.
#[test]
fn corrupt_shard_is_quarantined_and_graph_drains() {
    let dir = tempdir().unwrap();
    let good = good_shard(dir.path(), "good.bamx", 400, 5);
    let bad = corrupt_bgzf_shard(dir.path(), 5);
    let good_records = good.len();

    let converter = StreamConverter::with_clock(config(2, 32), Arc::new(ManualClock::new()));
    let run = converter
        .convert(
            vec![
                ShardInput { name: "good".into(), bamx: good, indices: None },
                ShardInput { name: "bad".into(), bamx: bad, indices: None },
            ],
            TargetFormat::Sam,
            dir.path(),
            "mixed",
            0,
            true,
        )
        .unwrap();

    assert_eq!(run.quarantined.len(), 1, "exactly the corrupt shard");
    assert_eq!(run.quarantined[0].shard, "bad");
    assert_eq!(run.records_in, good_records, "good shard fully converted");
    assert!(!run.metrics.cancelled, "quarantine is not a cancellation");
    assert!(run.path.exists());
}

/// A `ReadAt` source that serves pristine bytes until `arm()` is called
/// (so `BamxFile::open` succeeds), then fails the next `remaining` read
/// calls with a transient I/O error — flaky-mount behaviour scoped to
/// the streaming phase.
struct FlakyShard {
    bytes: Vec<u8>,
    armed: std::sync::atomic::AtomicBool,
    remaining: std::sync::atomic::AtomicU32,
}

impl FlakyShard {
    fn new(bytes: Vec<u8>, failures: u32) -> Self {
        FlakyShard {
            bytes,
            armed: std::sync::atomic::AtomicBool::new(false),
            remaining: std::sync::atomic::AtomicU32::new(failures),
        }
    }

    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl ngs_bgzf::ReadAt for FlakyShard {
    fn len(&self) -> std::io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        use std::sync::atomic::Ordering;
        if self.armed.load(Ordering::SeqCst) {
            let took = self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if took {
                return Err(std::io::Error::other("injected flaky read"));
            }
        }
        let start = (offset as usize).min(self.bytes.len());
        let n = buf.len().min(self.bytes.len() - start);
        buf[..n].copy_from_slice(&self.bytes[start..start + n]);
        Ok(n)
    }
}

/// Transient I/O faults within the retry budget are absorbed inside the
/// source and the output stays byte-identical to a pristine run.
#[test]
fn transient_faults_are_retried_to_identical_output() {
    let dir = tempdir().unwrap();
    let (bamx_path, _) = make_shard(dir.path(), 500, 7);
    let clean_dir = dir.path().join("clean");
    let clean = pipeline(2, 64)
        .convert_file(&bamx_path, TargetFormat::Sam, &clean_dir)
        .unwrap();

    let bytes = std::fs::read(&bamx_path).unwrap();
    let flaky = Arc::new(FlakyShard::new(bytes, 2));
    let shard = Arc::new(
        BamxFile::open_with(Box::new(Arc::clone(&flaky)), "flaky.bamx").unwrap(),
    );
    flaky.arm();

    let converter = StreamConverter::with_clock(config(2, 64), Arc::new(ManualClock::new()));
    let run = converter
        .convert(
            vec![ShardInput { name: "flaky".into(), bamx: shard, indices: None }],
            TargetFormat::Sam,
            &dir.path().join("faulty"),
            "input",
            0,
            true,
        )
        .unwrap();

    assert!(run.transient_retries > 0, "the injected faults must be hit");
    assert!(run.quarantined.is_empty(), "transient ≠ structural");
    assert_eq!(
        std::fs::read(&run.path).unwrap(),
        std::fs::read(&clean.path).unwrap(),
        "retries must not change a single output byte"
    );
}

/// A transient fault burst beyond the retry budget fails the whole run
/// with a transient error (callers may retry the run), still draining
/// every thread.
#[test]
fn exhausted_transient_budget_fails_cleanly() {
    let dir = tempdir().unwrap();
    let (bamx_path, _) = make_shard(dir.path(), 300, 9);
    let bytes = std::fs::read(&bamx_path).unwrap();
    let flaky = Arc::new(FlakyShard::new(bytes, u32::MAX));
    let shard = Arc::new(
        BamxFile::open_with(Box::new(Arc::clone(&flaky)), "dead.bamx").unwrap(),
    );
    flaky.arm();

    let converter = StreamConverter::with_clock(config(2, 64), Arc::new(ManualClock::new()));
    let err = converter
        .convert(
            vec![ShardInput { name: "dead".into(), bamx: shard, indices: None }],
            TargetFormat::Bed,
            dir.path(),
            "dead",
            0,
            true,
        )
        .unwrap_err();
    assert!(err.is_transient(), "budget exhaustion keeps the transient class: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for any record count, batch size, and worker count, the
    /// streaming path is byte-identical to one-shot conversion for
    /// **every** registered target format.
    #[test]
    fn prop_streaming_matches_one_shot_all_formats(
        n_records in 1usize..400,
        batch_size in 1usize..200,
        workers in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let dir = tempdir().unwrap();
        let (bamx, _) = make_shard(dir.path(), n_records, seed);
        let conv = BamConverter::new(ConvertConfig::with_ranks(1));
        for format in TargetFormat::ALL {
            let oneshot_dir = dir.path().join(format!("o-{format:?}"));
            let report = conv.convert_bamx(&bamx, format, &oneshot_dir).unwrap();
            let stream_dir = dir.path().join(format!("s-{format:?}"));
            let run = pipeline(workers, batch_size)
                .convert_file(&bamx, format, &stream_dir)
                .unwrap();
            prop_assert_eq!(
                std::fs::read(&run.path).unwrap(),
                std::fs::read(&report.outputs[0]).unwrap(),
                "{:?} n={} batch={} workers={}", format, n_records, batch_size, workers
            );
        }
    }

    /// Property: a source stage fed arbitrary fault plans never panics —
    /// every outcome is `Ok` or a typed error, and the graph always
    /// drains (the call returns).
    #[test]
    fn prop_source_never_panics_under_fault_plans(seed in 0u64..600) {
        let dir = tempdir().unwrap();
        let ds = Dataset::generate(&DatasetSpec {
            n_records: 120,
            n_chroms: 2,
            coordinate_sorted: true,
            seed,
            ..Default::default()
        });
        let path = dir.path().join("f.bamx");
        let compression =
            if seed % 2 == 0 { BamxCompression::Plain } else { BamxCompression::Bgzf };
        ngs_bamx::write_bamx_file(&path, &ds.genome.header(), &ds.records, compression).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let plan = FaultPlan::random(seed, bytes.len() as u64);
        let Ok(shard) = BamxFile::open_with(
            Box::new(FaultyFile::new(bytes, plan)),
            "fault.bamx",
        ) else {
            // Rejecting at open is an equally valid typed outcome.
            return Ok(());
        };
        let shard = Arc::new(shard);

        let converter = StreamConverter::with_clock(config(2, 16), Arc::new(ManualClock::new()));
        let _ = converter.convert(
            vec![ShardInput { name: "fault".into(), bamx: shard, indices: None }],
            TargetFormat::Sam,
            dir.path(),
            "fault",
            0,
            true,
        );
    }
}

/// Zero-record shards and empty index lists stream to valid (prologue-
/// only) output, matching one-shot behaviour.
#[test]
fn empty_inputs_stream_to_prologue_only_output() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec { n_records: 0, ..Default::default() });
    let bamx = dir.path().join("empty.bamx");
    ngs_bamx::write_bamx_file(&bamx, &ds.genome.header(), &[], BamxCompression::Plain).unwrap();

    let conv = BamConverter::new(ConvertConfig::with_ranks(1));
    let report = conv.convert_bamx(&bamx, TargetFormat::Sam, dir.path().join("o")).unwrap();
    let run = pipeline(2, 64)
        .convert_file(&bamx, TargetFormat::Sam, dir.path().join("s"))
        .unwrap();
    assert_eq!(
        std::fs::read(&run.path).unwrap(),
        std::fs::read(&report.outputs[0]).unwrap()
    );
    assert_eq!(run.records_in, 0);
}

/// The keyed regroup stage (DESIGN.md §10), registered in the
/// equivalence suite: for any worker count and spill budget, the
/// ordered sink's merged `(key, arrival-seq)` stream equals an
/// in-memory stable sort of the same keyed items, and forced spills
/// publish through a clean crash-safe manifest.
#[test]
fn regroup_stage_matches_stable_sort_for_any_budget() {
    use ngs_bamx::repo::ShardRepo;
    use ngs_pipeline::{
        stage_fn, Batch, Graph, Keyed, RegroupConfig, RegroupSink, Regrouper, SpillCodec,
        SourceCtx, U64Codec,
    };

    let items: Vec<u64> =
        (0..2_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48).collect();
    let key_of = |v: u64| (v % 13).to_be_bytes().to_vec();
    let mut expected: Vec<(Vec<u8>, u64, u64)> = items
        .iter()
        .enumerate()
        .map(|(i, &v)| (key_of(v), i as u64, v))
        .collect();
    expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    for budget in [0u64, 512] {
        let dir = tempdir().unwrap();
        for workers in [1usize, 4] {
            let feed = items.clone();
            let graph = Graph::source(
                config(workers, 64),
                Arc::new(ManualClock::new()),
                "regroup-source",
                move |ctx: &mut SourceCtx<u64>| {
                    for chunk in feed.chunks(64) {
                        ctx.emit(chunk.to_vec())?;
                    }
                    Ok(())
                },
            )
            .stage("regroup-key", workers, move |_| {
                stage_fn(move |b: Batch<u64>| {
                    Ok(Batch {
                        seq: b.seq,
                        items: b
                            .items
                            .into_iter()
                            .map(|v| Keyed { key: key_of(v), item: v })
                            .collect(),
                    })
                })
            });
            let regrouper = Regrouper::new(
                RegroupConfig {
                    spill_budget: budget,
                    spill_dir: (budget > 0).then(|| dir.path().join(format!("w{workers}"))),
                    ..Default::default()
                },
                Arc::new(U64Codec) as Arc<dyn SpillCodec<u64>>,
            )
            .unwrap();
            let (mut merged, _) =
                graph.run("regroup", RegroupSink::new(regrouper)).unwrap();

            let mut got = Vec::with_capacity(items.len());
            while let Some((key, seq, item)) = merged.next_entry().unwrap() {
                got.push((key, seq, item));
            }
            assert_eq!(got, expected, "workers={workers} budget={budget}");
            if budget > 0 {
                assert!(merged.stats().spill_runs > 1, "tiny budget must force spilling");
                let spill = dir.path().join(format!("w{workers}"));
                assert!(ShardRepo::is_managed(&spill));
                assert!(ShardRepo::open(&spill).unwrap().verify().unwrap().is_clean());
            } else {
                assert_eq!(merged.stats().spill_runs, 0);
            }
        }
    }
}

/// Cost model sanity on real records: a record's gauge cost covers its
/// heap payload, so the working-set proxy cannot undercount.
#[test]
fn record_cost_covers_heap_payload() {
    use ngs_pipeline::Cost;
    let ds = Dataset::generate(&DatasetSpec { n_records: 10, ..Default::default() });
    for rec in &ds.records {
        let c = rec.cost_bytes();
        assert!(c as usize >= std::mem::size_of::<AlignmentRecord>() + rec.seq.len());
    }
}
