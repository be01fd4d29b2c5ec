//! Graceful-degradation acceptance suite (DESIGN.md §13): what the
//! engine does when offered strictly more than it can serve.
//!
//! * **Priority**: with one worker busy, a later interactive request is
//!   dequeued before an earlier batch request — proven by the order in
//!   which their shards hit the (instrumented) opener.
//! * **Shed-before-decode at 2×+ overload**: with capacity for one
//!   in-flight and one queued request, a burst of eight to a victim
//!   dataset produces typed `Overloaded`/`Shed` outcomes and **zero**
//!   decodes of the victim — overload work costs the store nothing.
//! * **Byte-identity under load**: every request the overloaded engine
//!   *accepts and completes* produces output byte-identical to the same
//!   request on an unloaded engine, even with lossless delivery faults
//!   on every shard read; the ledger drains exactly and no healthy shard
//!   is quarantined. Load control changes who gets served, never what
//!   they are served.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
use ngs_converter::TargetFormat;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_fault::{Fault, FaultPlan, FaultyFile};
use ngs_formats::sam;
use ngs_query::store::SourceOpener;
use ngs_query::{
    Clock, EngineConfig, ManualClock, QueryClass, QueryEngine, QueryError, QueryKind,
    QueryOutcome, QueryRequest, RetryPolicy, ShardStore, ShedReason, SystemClock,
};

fn write_shard(dir: &std::path::Path, name: &str, starts: &[i64]) {
    let header = SamHeader::from_references(vec![ReferenceSequence {
        name: b"chr1".to_vec(),
        length: 100_000,
    }]);
    let records: Vec<_> = starts
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let line = format!("{name}{i}\t0\tchr1\t{p}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII");
            sam::parse_record(line.as_bytes(), 1).unwrap()
        })
        .collect();
    let bamx_path = dir.join(format!("{name}.bamx"));
    write_bamx_file(&bamx_path, &header, &records, BamxCompression::Plain).unwrap();
    let baix = Baix::build(&BamxFile::open(&bamx_path).unwrap()).unwrap();
    baix.save(dir.join(format!("{name}.baix"))).unwrap();
}

#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

fn await_condition(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..10_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!("timed out waiting for: {what}");
}

fn coverage(dataset: &str, class: QueryClass, deadline: Option<Duration>) -> QueryRequest {
    QueryRequest {
        dataset: dataset.into(),
        region: "chr1:1-5000".into(),
        kind: QueryKind::Coverage { bin_size: 100 },
        deadline,
        class,
    }
}

/// With the single worker plugged, a batch request submitted *first*
/// must still be dequeued *after* an interactive request submitted
/// later — observed by which dataset's shard is opened first.
#[test]
fn interactive_dequeues_before_earlier_batch() {
    let dir = tempfile::tempdir().unwrap();
    for name in ["plug", "bat", "int"] {
        write_shard(dir.path(), name, &[100, 200]);
    }

    let clock = Arc::new(ManualClock::new());
    let gate = Arc::new(Gate::default());
    let order = Arc::new(Mutex::new(Vec::<String>::new()));
    let (g, ord) = (Arc::clone(&gate), Arc::clone(&order));
    let opener: Box<SourceOpener> = Box::new(move |path| {
        if path.extension().is_some_and(|e| e == "bamx") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            ord.lock().unwrap().push(stem.clone());
            if stem == "plug" {
                g.wait();
            }
        }
        Ok(Box::new(std::fs::File::open(path)?))
    });
    let store = ShardStore::open_with(dir.path(), 4, clock.clone(), RetryPolicy::default())
        .unwrap()
        .with_opener(opener);
    let engine = QueryEngine::with_store(
        Arc::new(store),
        EngineConfig { workers: 1, queue_capacity: 8, ..EngineConfig::default() },
        clock.clone(),
    )
    .unwrap();

    let plug = engine.submit(coverage("plug", QueryClass::Interactive, None)).unwrap();
    await_condition("worker parked in plug decode", || !order.lock().unwrap().is_empty());
    // Batch first, interactive second: strict priority must invert them.
    let bat = engine.submit(coverage("bat", QueryClass::Batch, None)).unwrap();
    let int = engine.submit(coverage("int", QueryClass::Interactive, None)).unwrap();
    gate.release();
    assert!(plug.wait().outcome.is_ok());
    assert!(bat.wait().outcome.is_ok());
    assert!(int.wait().outcome.is_ok());

    assert_eq!(
        *order.lock().unwrap(),
        vec!["plug".to_string(), "int".into(), "bat".into()],
        "interactive must be served before the earlier-submitted batch request"
    );
    let stats = engine.drain();
    assert_eq!(stats.class_completed, [2, 1]);
}

/// Eight requests against a capacity of two (one in flight, one
/// queued): six are `Overloaded` with the exact depth-derived hint, the
/// queued one expires into an in-queue shed — and the victim dataset is
/// never decoded. Offered 8, served 1, decode cost of the other 7: zero.
#[test]
fn overload_burst_sheds_without_touching_the_store() {
    let dir = tempfile::tempdir().unwrap();
    write_shard(dir.path(), "plug", &[100, 200]);
    write_shard(dir.path(), "victim", &[300, 400]);

    let clock = Arc::new(ManualClock::new());
    let gate = Arc::new(Gate::default());
    let opens = Arc::new(AtomicU32::new(0));
    let (g, op) = (Arc::clone(&gate), Arc::clone(&opens));
    let opener: Box<SourceOpener> = Box::new(move |path| {
        if path.extension().is_some_and(|e| e == "bamx") {
            op.fetch_add(1, Ordering::SeqCst);
            if path.file_stem().is_some_and(|s| s == "plug") {
                g.wait();
            }
        }
        Ok(Box::new(std::fs::File::open(path)?))
    });
    let store = ShardStore::open_with(dir.path(), 4, clock.clone(), RetryPolicy::default())
        .unwrap()
        .with_opener(opener);
    let engine = QueryEngine::with_store(
        Arc::new(store),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            shed_retry_unit: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        clock.clone(),
    )
    .unwrap();

    let plug = engine.submit(coverage("plug", QueryClass::Interactive, None)).unwrap();
    await_condition("worker parked in plug decode", || opens.load(Ordering::SeqCst) >= 1);

    // One victim fits the queue; its deadline will expire while it waits.
    let deadline = clock.now() + Duration::from_millis(5);
    let queued = engine.submit(coverage("victim", QueryClass::Interactive, Some(deadline))).unwrap();

    // The rest of the burst is rejected at admission, typed and hinted.
    for _ in 0..6 {
        match engine.submit(coverage("victim", QueryClass::Interactive, None)) {
            Err(e @ QueryError::Overloaded { retry_after }) => {
                // Queue depth 1 → unit × (1 + 1).
                assert_eq!(retry_after, Duration::from_millis(2));
                assert!(e.is_retryable());
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    clock.advance(Duration::from_millis(6));
    gate.release();
    assert!(plug.wait().outcome.is_ok());
    assert!(matches!(
        queued.wait().outcome,
        Err(QueryError::Shed { reason: ShedReason::ExpiredInQueue, .. })
    ));

    // Of eight offered requests, only the plug ever reached the store.
    assert_eq!(engine.store().counters().decodes, 1, "victim must never be decoded");
    assert_eq!(opens.load(Ordering::SeqCst), 1);
    let stats = engine.drain();
    assert_eq!(stats.rejected, 6);
    assert_eq!(stats.shed_expired_in_queue, 1);
    assert_eq!(stats.completed, 1);
}

/// Requests accepted by an overloaded engine produce exactly what the
/// same requests produce on an idle engine, while lossless delivery
/// faults (transient I/O errors and short reads) strike every shard
/// read. Every rejection is typed and hinted, the ledger drains exactly,
/// and the faults never quarantine a healthy shard.
#[test]
fn accepted_requests_are_byte_identical_to_unloaded_run() {
    let dir = tempfile::tempdir().unwrap();
    let names = ["d0", "d1", "d2"];
    for (i, name) in names.iter().enumerate() {
        let starts: Vec<i64> = (0..6).map(|k| 100 * (i as i64 + 1) + 37 * k).collect();
        write_shard(dir.path(), name, &starts);
    }
    let out_loaded = tempfile::tempdir().unwrap();
    let out_ref = tempfile::tempdir().unwrap();
    // The first request always finds room, so the burst serves one
    // coverage request.
    const COVERAGE: usize = 0;
    let request = |i: usize, root: &std::path::Path| QueryRequest {
        dataset: names[i % names.len()].into(),
        region: "chr1:1-100000".into(),
        kind: if i == COVERAGE {
            QueryKind::Coverage { bin_size: 100 }
        } else {
            QueryKind::Convert { format: TargetFormat::Bed, out_dir: root.join(i.to_string()) }
        },
        deadline: None,
        class: if i.is_multiple_of(3) { QueryClass::Batch } else { QueryClass::Interactive },
    };

    // Overloaded run: every decode is gated until the whole burst has
    // been submitted, so the tiny queues are guaranteed to overflow. The
    // shard bytes arrive through one fault wrapper per path, so the
    // transient budget drains across the store's retries like a
    // recovering mount.
    let faults = FaultPlan::new(vec![
        Fault::TransientIo { failures: 2 },
        Fault::ShortRead { max: 7 },
    ]);
    assert!(faults.is_lossless());
    let budget = faults.total_transient_failures();
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let sources: Mutex<HashMap<PathBuf, Arc<FaultyFile<Vec<u8>>>>> = Mutex::default();
    let opener: Box<SourceOpener> = Box::new(move |path| {
        if path.extension().is_some_and(|e| e == "bamx") {
            g.wait();
        }
        let mut sources = sources.lock().unwrap();
        if !sources.contains_key(path) {
            let bytes = std::fs::read(path)?;
            sources.insert(path.to_path_buf(), Arc::new(FaultyFile::new(bytes, faults.clone())));
        }
        Ok(Box::new(Arc::clone(&sources[path])))
    });
    // The .bamx and .baix wrappers each carry the whole budget; one get
    // has attempts enough to drain both.
    let retry = RetryPolicy { attempts: budget * 2 + 1, ..RetryPolicy::default() };
    let store = Arc::new(
        ShardStore::open_with(dir.path(), 4, Arc::clone(&clock), retry)
            .unwrap()
            .with_segments(4)
            .with_opener(opener),
    );
    let engine = QueryEngine::with_store(
        Arc::clone(&store),
        EngineConfig { workers: 2, queue_capacity: 2, ..EngineConfig::default() },
        Arc::clone(&clock),
    )
    .unwrap();

    const BURST: usize = 32;
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for i in 0..BURST {
        match engine.submit(request(i, out_loaded.path())) {
            Ok(ticket) => accepted.push((i, ticket)),
            Err(e) => rejected.push((i, e)),
        }
    }
    // Release before asserting: a failed assert must not leave the
    // workers parked on the gate.
    gate.release();
    assert!(!rejected.is_empty(), "the burst must actually overload the engine");
    for (i, e) in &rejected {
        assert!(
            matches!(e, QueryError::Overloaded { retry_after } if !retry_after.is_zero()),
            "request {i}: expected Overloaded with a retry hint, got {e:?}"
        );
    }
    assert!(
        accepted.iter().any(|(i, _)| *i == COVERAGE),
        "the coverage request must be among the accepted"
    );

    let admitted = accepted.len() as u64;
    let mut outcomes = Vec::new();
    for (i, ticket) in accepted {
        match ticket.wait().outcome {
            Ok(outcome) => outcomes.push((i, outcome)),
            Err(e) => panic!("accepted request {i} must complete under lossless faults: {e}"),
        }
    }
    let stats = engine.drain();
    assert_eq!(stats.submitted, admitted);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, rejected.len() as u64);
    assert!(store.counters().transient_retries > 0, "the delivery faults never struck");
    assert_eq!(store.counters().quarantined, 0, "lossless faults quarantined a healthy shard");

    // Idle reference run over the same shard dir, same request indices.
    let ref_engine = QueryEngine::new(
        dir.path(),
        EngineConfig { workers: 1, queue_capacity: BURST, ..EngineConfig::default() },
    )
    .unwrap();
    for (i, loaded) in outcomes {
        let ticket = ref_engine.submit(request(i, out_ref.path())).unwrap();
        match (loaded, ticket.wait().outcome.unwrap()) {
            (
                QueryOutcome::Converted { output: loaded, .. },
                QueryOutcome::Converted { output: reference, .. },
            ) => assert_eq!(
                std::fs::read(loaded).unwrap(),
                std::fs::read(reference).unwrap(),
                "request {i}: bytes diverged under load"
            ),
            (
                QueryOutcome::Coverage { bins, bin_size, records },
                QueryOutcome::Coverage { bins: want, bin_size: want_size, records: want_records },
            ) => {
                assert_eq!((bins, bin_size, records), (want, want_size, want_records), "coverage {i}")
            }
            _ => panic!("request {i} changed kind"),
        }
    }
    ref_engine.drain();
}
