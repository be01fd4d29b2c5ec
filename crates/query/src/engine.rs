//! The long-lived concurrent query engine: a bounded worker pool over a
//! [`ShardStore`], with class-aware admission control, deadline-aware
//! shedding, per-request deadlines, a metrics ledger, and graceful
//! drain.
//!
//! Architecture (DESIGN.md §13): `submit` places a job on one of the
//! bounded **per-class queues** (interactive, batch) guarded by a single
//! scheduler mutex + condvar. Admission never blocks: a full class queue
//! is a typed [`QueryError::Overloaded`] rejection carrying a
//! `retry_after` hint derived from queue depth; a request whose deadline
//! has already passed, or whose dataset has exhausted its per-shard
//! admission cap, is shed with a typed [`QueryError::Shed`] — both
//! before any decode work. Workers dequeue strict-priority with aging
//! (a batch job that has waited past `age_promote` jumps ahead so bulk
//! traffic cannot be starved forever), re-check deadlines at dequeue
//! (lazy expiry, still before decode), and either convert the located
//! records (same code path as partial conversion, so output bytes are
//! identical to a one-shot single-rank `BamConverter::convert_partial`)
//! or accumulate them into an `ngs_stats` coverage histogram.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use ngs_bamx::{BamxFile, ColumnKind, ColumnSet, Region};
use ngs_converter::bam_converter::convert_index_list;
use ngs_converter::ConvertConfig;
use ngs_formats::error::Result;
use ngs_obs::{span, Registry, Tracer};
use ngs_stats::CoverageHistogram;
use parking_lot::{Condvar, Mutex};

use crate::clock::{Clock, SystemClock};
use crate::metrics::{Completion, Ledger, QueryStats, RequestMetrics};
use crate::request::{
    QueryClass, QueryError, QueryKind, QueryOutcome, QueryRequest, QueryResponse, ShedReason,
};
use crate::store::ShardStore;

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Zero is allowed (nothing executes; useful for
    /// deterministic admission-control tests).
    pub workers: usize,
    /// Bound of each **per-class** request queue; `submit` rejects with
    /// [`QueryError::Overloaded`] when the request's class queue is
    /// full.
    pub queue_capacity: usize,
    /// Datasets the shard cache may hold open at once.
    pub cache_capacity: usize,
    /// Independently-locked cache segments in the shard store (minimum
    /// 1). One segment reproduces the classic single-lock LRU exactly;
    /// more let unrelated requests proceed without contending
    /// (DESIGN.md §11). Applies to stores the engine builds itself —
    /// a store injected via [`QueryEngine::with_store`] keeps its own
    /// segmentation.
    pub segments: usize,
    /// Requests a worker may claim per wakeup (minimum 1). After
    /// waking for one job, a worker claims up to `batch - 1` more that
    /// are already queued (same priority rules) and runs them
    /// back-to-back, amortizing scheduler traffic across small
    /// requests. Deadlines are still checked per request at its own
    /// start time.
    pub batch: usize,
    /// Per-shard in-admission cap: how many queued-or-running requests
    /// one dataset may hold at once. `0` disables the cap. With a cap,
    /// a hot key sheds ([`ShedReason::HotShard`]) instead of
    /// monopolizing every queue slot and worker (DESIGN.md §13).
    pub hot_shard_cap: usize,
    /// Aging threshold for the strict-priority dequeue: a queued
    /// request (any class) whose wait reaches this bound is promoted
    /// ahead of fresher higher-priority work, so batch traffic cannot
    /// be starved indefinitely by a steady interactive stream.
    pub age_promote: Duration,
    /// Unit of the `retry_after` hint on [`QueryError::Overloaded`] and
    /// [`QueryError::Shed`]: the hint is `shed_retry_unit × (class
    /// queue depth + 1)`, so back-off scales with how far behind the
    /// engine is.
    pub shed_retry_unit: Duration,
    /// Converter runtime settings for `Convert` requests. Each request
    /// converts on the one worker that picked it up (rank 0);
    /// parallelism comes from concurrent requests, so `ranks` is
    /// ignored.
    pub convert: ConvertConfig,
    /// Shared observability registry the ledger publishes into (so
    /// `ngsp stats` sees the same `query.*` counters the engine uses).
    /// `None` gives the ledger a private registry.
    pub obs: Option<Arc<Registry>>,
    /// When set, workers record a `query.execute` span per request
    /// (shard = dataset, outcome = ok/error/shed) into this tracer.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map(usize::from).unwrap_or(4),
            queue_capacity: 64,
            cache_capacity: 8,
            segments: 8,
            batch: 8,
            hot_shard_cap: 0,
            age_promote: Duration::from_millis(100),
            shed_retry_unit: Duration::from_micros(500),
            convert: ConvertConfig::with_ranks(1),
            obs: None,
            tracer: None,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` workers and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers, ..Default::default() }
    }
}

struct Job {
    request: QueryRequest,
    submitted_at: Duration,
    reply: Sender<QueryResponse>,
}

/// Handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<QueryResponse>,
}

impl Ticket {
    /// Blocks until the request finishes. If the engine drained before
    /// the request ran, the response carries
    /// [`QueryError::ShuttingDown`].
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().unwrap_or_else(|_| QueryResponse {
            outcome: Err(QueryError::ShuttingDown),
            metrics: RequestMetrics::default(),
        })
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<QueryResponse> {
        self.rx.try_recv().ok()
    }
}

/// Mutable scheduler state behind the one scheduler lock. A thread
/// holds this lock only for queue surgery — never across a decode.
struct SchedState {
    /// One bounded FIFO per traffic class, indexed by
    /// [`QueryClass::index`].
    queues: [VecDeque<Job>; QueryClass::COUNT],
    /// Queued-or-running requests per dataset (only maintained when the
    /// hot-shard cap is enabled).
    admitted: HashMap<String, usize>,
    /// `false` once drain begins: no new admissions, workers exit when
    /// the queues are empty.
    open: bool,
}

/// The class-aware admission scheduler (DESIGN.md §13): bounded
/// per-class queues, strict-priority + aging dequeue, shed-before-decode
/// deadline checks, and a per-shard admission cap.
struct Scheduler {
    state: Mutex<SchedState>,
    available: Condvar,
    /// Per-class queue depths mirrored outside the lock so `retry_after`
    /// hints can be derived without taking it.
    depths: [AtomicUsize; QueryClass::COUNT],
    per_class_capacity: usize,
    hot_shard_cap: usize,
    age_promote: Duration,
    shed_retry_unit: Duration,
}

impl Scheduler {
    fn new(config: &EngineConfig) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: std::array::from_fn(|_| VecDeque::new()),
                admitted: HashMap::new(),
                open: true,
            }),
            available: Condvar::new(),
            depths: std::array::from_fn(|_| AtomicUsize::new(0)),
            per_class_capacity: config.queue_capacity.max(1),
            hot_shard_cap: config.hot_shard_cap,
            age_promote: config.age_promote,
            shed_retry_unit: config.shed_retry_unit,
        }
    }

    /// The back-off hint for `class` right now: `shed_retry_unit ×
    /// (queue depth + 1)`.
    fn retry_after(&self, class: QueryClass) -> Duration {
        let depth = self.depths[class.index()].load(Ordering::Relaxed);
        self.shed_retry_unit * u32::try_from(depth.saturating_add(1)).unwrap_or(u32::MAX)
    }

    /// Non-blocking admission. Ordering of the checks is part of the
    /// contract: shutting-down, then expired-deadline shed, then
    /// hot-shard shed, then queue-full overload.
    fn admit(&self, job: Job, now: Duration, ledger: &Ledger) -> std::result::Result<(), QueryError> {
        let class = job.request.class;
        let idx = class.index();
        let mut st = self.state.lock();
        if !st.open {
            return Err(QueryError::ShuttingDown);
        }
        if let Some(deadline) = job.request.deadline {
            if now > deadline {
                drop(st);
                ledger.record_shed(class, ShedReason::Expired);
                return Err(QueryError::Shed {
                    reason: ShedReason::Expired,
                    retry_after: self.retry_after(class),
                });
            }
        }
        if self.hot_shard_cap > 0 {
            let in_admission = st.admitted.get(&job.request.dataset).copied().unwrap_or(0);
            if in_admission >= self.hot_shard_cap {
                drop(st);
                ledger.record_shed(class, ShedReason::HotShard);
                return Err(QueryError::Shed {
                    reason: ShedReason::HotShard,
                    retry_after: self.retry_after(class),
                });
            }
        }
        if st.queues[idx].len() >= self.per_class_capacity {
            drop(st);
            ledger.record_rejected(class);
            return Err(QueryError::Overloaded { retry_after: self.retry_after(class) });
        }
        if self.hot_shard_cap > 0 {
            *st.admitted.entry(job.request.dataset.clone()).or_insert(0) += 1;
        }
        st.queues[idx].push_back(job);
        let depth = st.queues[idx].len();
        drop(st);
        self.depths[idx].store(depth, Ordering::Relaxed);
        ledger.record_submitted(class);
        ledger.set_queue_depth(class, depth as u64);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue under the already-held lock: strict priority with aging.
    /// Any class front whose wait has reached `age_promote` is urgent;
    /// the earliest-submitted urgent front wins (ties go to the higher
    /// priority class, because it is scanned first). With no urgent
    /// front, the highest-priority non-empty queue serves. Returns the
    /// job and whether picking it was an aging *promotion* (a
    /// lower-priority job jumping ahead of queued higher-priority
    /// work).
    fn pick(&self, st: &mut SchedState, now: Duration, ledger: &Ledger) -> Option<Job> {
        let strict = QueryClass::ALL.iter().position(|c| !st.queues[c.index()].is_empty())?;
        let mut chosen = strict;
        let mut best_submitted = None;
        for class in QueryClass::ALL {
            let idx = class.index();
            if let Some(front) = st.queues[idx].front() {
                if now.saturating_sub(front.submitted_at) >= self.age_promote
                    && best_submitted.is_none_or(|b| front.submitted_at < b)
                {
                    best_submitted = Some(front.submitted_at);
                    chosen = idx;
                }
            }
        }
        // `chosen` is non-empty by construction (strict or aged front).
        let job = st.queues[chosen].pop_front()?;
        let depth = st.queues[chosen].len();
        self.depths[chosen].store(depth, Ordering::Relaxed);
        if chosen != strict {
            ledger.record_aged_promotion();
        }
        ledger.set_queue_depth(job.request.class, depth as u64);
        Some(job)
    }

    /// Releases one admission slot for `dataset` after its job ran (or
    /// was shed at dequeue). Only called when the hot-shard cap is on.
    fn release(&self, dataset: &str) {
        let mut st = self.state.lock();
        if let Some(n) = st.admitted.get_mut(dataset) {
            *n -= 1;
            if *n == 0 {
                st.admitted.remove(dataset);
            }
        }
    }

    /// Begins drain: stop admission and wake every worker so they can
    /// finish the queues and exit.
    fn close(&self) {
        self.state.lock().open = false;
        self.available.notify_all();
    }
}

/// The query engine. Dropping it drains gracefully: queued requests
/// finish, then the workers exit.
pub struct QueryEngine {
    store: Arc<ShardStore>,
    ledger: Arc<Ledger>,
    clock: Arc<dyn Clock>,
    sched: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Starts an engine over `shard_dir` with the system clock.
    pub fn new(shard_dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Self> {
        Self::with_clock(shard_dir, config, Arc::new(SystemClock::new()))
    }

    /// Starts an engine with an injected clock (deterministic tests).
    /// The clock is shared with the [`ShardStore`], so transient-failure
    /// backoff deadlines live on the same axis as request deadlines.
    pub fn with_clock(
        shard_dir: impl AsRef<std::path::Path>,
        config: EngineConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let mut store = ShardStore::open_with(
            shard_dir,
            config.cache_capacity,
            Arc::clone(&clock),
            crate::store::RetryPolicy::default(),
        )?
        .with_segments(config.segments.max(1));
        if let Some(registry) = &config.obs {
            store = store.with_obs(registry);
        }
        Self::with_store(Arc::new(store), config, clock)
    }

    /// Starts an engine over a pre-built store — the seam through which
    /// tests inject fault-wrapped shard sources (via
    /// [`ShardStore::with_opener`]; `tests/query_engine.rs` and
    /// `crates/query/tests/overload.rs`).
    pub fn with_store(
        store: Arc<ShardStore>,
        config: EngineConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let ledger = Arc::new(match &config.obs {
            Some(registry) => Ledger::with_registry(Arc::clone(registry)),
            None => Ledger::default(),
        });
        let sched = Arc::new(Scheduler::new(&config));
        let batch = config.batch.max(1);
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let sched = Arc::clone(&sched);
            let store = Arc::clone(&store);
            let ledger = Arc::clone(&ledger);
            let clock = Arc::clone(&clock);
            let convert = config.convert.clone();
            let tracer = config.tracer.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ngs-query-{i}"))
                    .spawn(move || {
                        worker_loop(sched, store, ledger, clock, convert, tracer, batch)
                    })?,
            );
        }
        Ok(QueryEngine { store, ledger, clock, sched, workers })
    }

    /// The underlying shard store (for cache counters or discovery).
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// The engine's clock (deadlines are absolute on its axis).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Submits a request without blocking. A full class queue returns
    /// [`QueryError::Overloaded`]; an expired deadline or exhausted
    /// hot-shard cap returns [`QueryError::Shed`] (both carry a
    /// `retry_after` hint); a draining engine returns
    /// [`QueryError::ShuttingDown`]. Shed and overloaded requests never
    /// reach the store — the shed-before-decode invariant. A coverage
    /// request with a zero bin size is [`QueryError::Invalid`] and is
    /// never admitted.
    pub fn submit(&self, request: QueryRequest) -> std::result::Result<Ticket, QueryError> {
        if let QueryKind::Coverage { bin_size: 0 } = request.kind {
            return Err(QueryError::Invalid("coverage bin size must be positive".into()));
        }
        let now = self.clock.now();
        let (reply, rx) = bounded(1);
        let job = Job { submitted_at: now, request, reply };
        self.sched.admit(job, now, &self.ledger)?;
        Ok(Ticket { rx })
    }

    /// Aggregated statistics so far, including the store's shard-health
    /// counters (retries, quarantines, backoff rejections).
    pub fn stats(&self) -> QueryStats {
        let mut stats = self.ledger.snapshot();
        let counters = self.store.counters();
        stats.transient_retries = counters.transient_retries;
        stats.quarantined = counters.quarantined;
        stats.backoff_rejections = counters.backoff_rejections;
        stats.repairs = counters.repairs;
        stats.repaired = counters.repaired;
        stats
    }

    /// Graceful drain: stops admission, lets the workers finish every
    /// queued request, joins them, and returns the final statistics.
    pub fn drain(mut self) -> QueryStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        self.sched.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    sched: Arc<Scheduler>,
    store: Arc<ShardStore>,
    ledger: Arc<Ledger>,
    clock: Arc<dyn Clock>,
    convert: ConvertConfig,
    tracer: Option<Arc<Tracer>>,
    batch: usize,
) {
    // One condvar wakeup, then an opportunistic claim of whatever else
    // is already queued (up to `batch` total, same priority rules):
    // small requests amortize their scheduler traffic instead of paying
    // it per request. Each job's deadline is judged at its own start
    // time, not the wakeup time.
    let mut claimed = Vec::with_capacity(batch);
    loop {
        {
            let mut st = sched.state.lock();
            loop {
                if let Some(job) = sched.pick(&mut st, clock.now(), &ledger) {
                    claimed.push(job);
                    break;
                }
                if !st.open {
                    return;
                }
                sched.available.wait(&mut st);
            }
            while claimed.len() < batch {
                match sched.pick(&mut st, clock.now(), &ledger) {
                    Some(job) => claimed.push(job),
                    None => break,
                }
            }
        }
        ledger.record_batch(claimed.len() as u64);
        for job in claimed.drain(..) {
            let slot = (sched.hot_shard_cap > 0).then(|| job.request.dataset.clone());
            run_job(job, &sched, &store, &ledger, &clock, &convert, tracer.as_ref());
            if let Some(dataset) = slot {
                sched.release(&dataset);
            }
        }
    }
}

fn run_job(
    job: Job,
    sched: &Scheduler,
    store: &Arc<ShardStore>,
    ledger: &Arc<Ledger>,
    clock: &Arc<dyn Clock>,
    convert: &ConvertConfig,
    tracer: Option<&Arc<Tracer>>,
) {
    let Job { request, submitted_at, reply } = job;
    let class = request.class;
    let started_at = clock.now();
    let queue_wait = started_at.saturating_sub(submitted_at);
    let mut metrics = RequestMetrics {
        submitted_at,
        started_at,
        finished_at: started_at,
        queue_wait,
        ..Default::default()
    };
    let mut span = span!(tracer, "query.execute", &request.dataset);
    if let Some(deadline) = request.deadline {
        // Lazy expiry: the deadline passed while the request was
        // queued. Shed it here, before any store or decode work — a
        // request dequeued exactly at its deadline tick still runs.
        if started_at > deadline {
            ledger.record_finished(&metrics, Completion::DeadlineMissed, class, false);
            ledger.record_shed(class, ShedReason::ExpiredInQueue);
            if let Some(s) = span.as_mut() {
                s.set_outcome("shed");
            }
            let _ = reply.send(QueryResponse {
                outcome: Err(QueryError::Shed {
                    reason: ShedReason::ExpiredInQueue,
                    retry_after: sched.retry_after(class),
                }),
                metrics,
            });
            return;
        }
    }
    let executed = execute(store, &request, convert);
    metrics.finished_at = clock.now();
    metrics.service_time = metrics.finished_at.saturating_sub(started_at);
    if executed.is_err() {
        if let Some(s) = span.as_mut() {
            s.set_outcome("error");
        }
    }
    drop(span);
    let outcome = match executed {
        Ok((outcome, cache_hit)) => {
            metrics.cache_hit = cache_hit;
            metrics.bytes_out = match &outcome {
                QueryOutcome::Converted { bytes_out, .. } => *bytes_out,
                QueryOutcome::Coverage { bins, .. } => {
                    (bins.len() * std::mem::size_of::<f64>()) as u64
                }
            };
            // Goodput = completed *within deadline*; deadline-free
            // requests always count.
            let in_deadline = request.deadline.is_none_or(|d| metrics.finished_at <= d);
            ledger.record_finished(&metrics, Completion::Completed, class, in_deadline);
            Ok(outcome)
        }
        Err(e) => {
            ledger.record_finished(&metrics, Completion::Failed, class, false);
            Err(QueryError::Failed(e.to_string()))
        }
    };
    let _ = reply.send(QueryResponse { outcome, metrics });
}

/// Resolves and runs one request against the store. Returns the outcome
/// and whether the dataset lookup was a cache hit.
fn execute(
    store: &ShardStore,
    request: &QueryRequest,
    convert: &ConvertConfig,
) -> Result<(QueryOutcome, bool)> {
    let (shard, cache_hit) = store.get(&request.dataset)?;
    let region = Region::parse(&request.region, shard.bamx.header())?;
    let ref_id = region.resolve(shard.bamx.header())?;
    let indices = shard.baix.shard_indices(shard.baix.locate(ref_id, &region));
    let outcome = match &request.kind {
        QueryKind::Convert { format, out_dir } => {
            std::fs::create_dir_all(out_dir)?;
            // Same stem formula as `BamConverter::convert_partial`, so a
            // request's part file is byte-identical (name and content)
            // to the single-rank one-shot path (`tests/query_engine.rs`
            // enforces it).
            let stem = format!(
                "{}.{}",
                request.dataset,
                region.to_string().replace([':', '-'], "_")
            );
            let (stats, path) = convert_index_list(
                &shard.bamx,
                &indices,
                *format,
                out_dir,
                &stem,
                0,
                true,
                convert,
            )?;
            QueryOutcome::Converted {
                output: path,
                records_in: stats.records_in,
                records_out: stats.records_out,
                bytes_out: stats.bytes_out,
            }
        }
        QueryKind::Coverage { bin_size } => {
            let (hist, records) = coverage(&shard.bamx, &indices, *bin_size)?;
            QueryOutcome::Coverage { bins: hist.bins, bin_size: *bin_size, records }
        }
    };
    Ok((outcome, cache_hit))
}

/// The coverage histogram of the records at `indices` (sorted) of
/// `shard`, in `bin_size` bins, and how many records it read: what a
/// coverage request answers. Each run of consecutive indices is one
/// range visit, as conversion does, reading only FLAG, coordinates and
/// CIGAR — a v2 shard inflates nothing else — and no record is built.
pub fn coverage(
    shard: &BamxFile,
    indices: &[u64],
    bin_size: u32,
) -> Result<(CoverageHistogram, u64)> {
    let mut hist = CoverageHistogram::new(shard.header(), bin_size);
    let mut records = 0u64;
    let columns = ColumnSet::of(&[ColumnKind::Cigar]);
    let mut i = 0usize;
    while i < indices.len() {
        let run_start = indices[i];
        let mut j = i + 1;
        while j < indices.len() && indices[j] == indices[j - 1] + 1 {
            j += 1;
        }
        let run_end = indices[j - 1] + 1;
        shard.for_each_fields(run_start, run_end, columns, |view| {
            records += 1;
            hist.add_fields(&view);
            Ok(())
        })?;
        i = j;
    }
    Ok((hist, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::testutil::write_shard;
    use ngs_converter::TargetFormat;

    fn convert_request(dataset: &str, region: &str, out_dir: &std::path::Path) -> QueryRequest {
        QueryRequest {
            dataset: dataset.into(),
            region: region.into(),
            kind: QueryKind::Convert {
                format: TargetFormat::Bed,
                out_dir: out_dir.to_path_buf(),
            },
            deadline: None,
            class: QueryClass::Interactive,
        }
    }

    #[test]
    fn convert_and_coverage_requests_execute() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 300, 500, 700, 900]);
        let engine =
            QueryEngine::new(dir.path(), EngineConfig::with_workers(2)).unwrap();

        let out = dir.path().join("out");
        let t1 = engine.submit(convert_request("d", "chr1:1-600", &out)).unwrap();
        let t2 = engine
            .submit(QueryRequest {
                dataset: "d".into(),
                region: "chr1".into(),
                kind: QueryKind::Coverage { bin_size: 25 },
                deadline: None,
                class: QueryClass::Batch,
            })
            .unwrap();

        match t1.wait().outcome.unwrap() {
            QueryOutcome::Converted { records_in, output, .. } => {
                // Starts (0-based) inside [0,600): 99, 299, 499.
                assert_eq!(records_in, 3);
                assert!(output.is_file());
            }
            other => panic!("expected Converted, got {other:?}"),
        }
        match t2.wait().outcome.unwrap() {
            QueryOutcome::Coverage { records, bins, .. } => {
                assert_eq!(records, 5);
                assert!(bins.iter().sum::<f64>() > 0.0);
            }
            other => panic!("expected Coverage, got {other:?}"),
        }
        let stats = engine.drain();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, 2);
        // One request per class, both completed within (absent)
        // deadlines — goodput counts both.
        assert_eq!(stats.class_submitted, [1, 1]);
        assert_eq!(stats.class_completed, [1, 1]);
        assert_eq!(stats.goodput_completed, 2);
    }

    #[test]
    fn queue_full_is_typed_rejection() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100]);
        // No workers: the queue can only fill, deterministically.
        let config = EngineConfig {
            workers: 0,
            queue_capacity: 2,
            shed_retry_unit: Duration::from_millis(1),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::new(dir.path(), config).unwrap();
        let out = dir.path().join("out");
        let _t1 = engine.submit(convert_request("d", "chr1", &out)).unwrap();
        let _t2 = engine.submit(convert_request("d", "chr1", &out)).unwrap();
        let err = engine.submit(convert_request("d", "chr1", &out)).unwrap_err();
        // Depth 2 at rejection time → retry_after = unit × 3.
        assert_eq!(err, QueryError::Overloaded { retry_after: Duration::from_millis(3) });
        assert_eq!(err.retry_after(), Some(Duration::from_millis(3)));
        assert_eq!(engine.stats().rejected, 1);
        // Queues are per class: the batch queue still has room.
        let mut batch_req = convert_request("d", "chr1", &out);
        batch_req.class = QueryClass::Batch;
        let _t3 = engine.submit(batch_req).unwrap();
        // Tickets of never-run requests resolve to ShuttingDown on drain.
        let t = _t1;
        drop(engine);
        assert_eq!(t.wait().outcome.unwrap_err(), QueryError::ShuttingDown);
    }

    #[test]
    fn expired_deadline_is_shed_at_admission() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100]);
        let clock = Arc::new(ManualClock::new());
        clock.set(Duration::from_secs(10));
        let engine = QueryEngine::with_clock(
            dir.path(),
            EngineConfig::with_workers(1),
            clock.clone(),
        )
        .unwrap();
        let mut req = convert_request("d", "chr1", &dir.path().join("out"));
        req.deadline = Some(Duration::from_secs(5)); // already past
        let err = engine.submit(req).unwrap_err();
        match err {
            QueryError::Shed { reason, retry_after } => {
                assert_eq!(reason, ShedReason::Expired);
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // The store was never touched: shed-before-decode.
        assert_eq!(engine.store().counters().decodes, 0);
        let stats = engine.drain();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.shed_expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn hot_shard_cap_sheds_the_monopolist_only() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "hot", &[100]);
        write_shard(dir.path(), "cold", &[200]);
        let config = EngineConfig {
            workers: 0, // deterministic: nothing dequeues
            queue_capacity: 16,
            hot_shard_cap: 2,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::new(dir.path(), config).unwrap();
        let out = dir.path().join("out");
        let _h1 = engine.submit(convert_request("hot", "chr1", &out)).unwrap();
        let _h2 = engine.submit(convert_request("hot", "chr1", &out)).unwrap();
        let err = engine.submit(convert_request("hot", "chr1", &out)).unwrap_err();
        assert!(
            matches!(err, QueryError::Shed { reason: ShedReason::HotShard, .. }),
            "expected hot-shard shed, got {err:?}"
        );
        // Other datasets are unaffected by the hot key's cap.
        let _c = engine.submit(convert_request("cold", "chr1", &out)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.shed_hot_shard, 1);
        assert_eq!(stats.submitted, 3);
    }

    #[test]
    fn future_deadline_executes_and_clock_is_injected() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200]);
        let clock = Arc::new(ManualClock::new());
        clock.set(Duration::from_secs(3));
        let engine = QueryEngine::with_clock(
            dir.path(),
            EngineConfig::with_workers(1),
            clock.clone(),
        )
        .unwrap();
        let mut req = convert_request("d", "chr1", &dir.path().join("out"));
        req.deadline = Some(Duration::from_secs(30));
        let resp = engine.submit(req).unwrap().wait();
        assert!(resp.outcome.is_ok());
        // The manual clock never advanced, so timing fields are exact.
        assert_eq!(resp.metrics.submitted_at, Duration::from_secs(3));
        assert_eq!(resp.metrics.queue_wait, Duration::ZERO);
        assert_eq!(resp.metrics.service_time, Duration::ZERO);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100]);
        let engine = QueryEngine::new(dir.path(), EngineConfig::with_workers(1)).unwrap();
        let out = dir.path().join("out");
        // Unknown dataset.
        let r1 = engine.submit(convert_request("nope", "chr1", &out)).unwrap().wait();
        assert!(matches!(r1.outcome, Err(QueryError::Failed(_))));
        // Bad region on a known dataset.
        let r2 = engine.submit(convert_request("d", "chrZ:1-2", &out)).unwrap().wait();
        assert!(matches!(r2.outcome, Err(QueryError::Failed(_))));
        // The engine still works afterwards.
        let r3 = engine.submit(convert_request("d", "chr1", &out)).unwrap().wait();
        assert!(r3.outcome.is_ok());
        let stats = engine.drain();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn corrupt_shard_quarantines_and_surfaces_in_stats() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "good", &[100, 200]);
        std::fs::write(dir.path().join("bad.bamx"), b"BAMJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
            .unwrap();
        std::fs::write(dir.path().join("bad.baix"), b"JUNK").unwrap();
        let engine = QueryEngine::new(dir.path(), EngineConfig::with_workers(1)).unwrap();
        let out = dir.path().join("out");
        // First request decodes the corrupt shard and quarantines it.
        let r1 = engine.submit(convert_request("bad", "chr1", &out)).unwrap().wait();
        assert!(matches!(r1.outcome, Err(QueryError::Failed(_))));
        // Second fails fast from quarantine, reported the same way.
        let r2 = engine.submit(convert_request("bad", "chr1", &out)).unwrap().wait();
        match r2.outcome {
            Err(QueryError::Failed(msg)) => assert!(msg.contains("quarantined"), "got: {msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(engine.store().is_quarantined("bad"));
        // Healthy datasets still serve.
        let r3 = engine.submit(convert_request("good", "chr1", &out)).unwrap().wait();
        assert!(r3.outcome.is_ok());
        let stats = engine.drain();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.transient_retries, 0);
        assert_eq!(stats.backoff_rejections, 0);
    }

    #[test]
    fn engine_with_store_recovers_from_transient_faults() {
        use crate::store::{RetryPolicy, ShardStore, SourceOpener};
        use std::sync::atomic::{AtomicU32, Ordering};

        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200, 300]);
        let clock = Arc::new(ManualClock::new());
        // First two opens fail transiently; in-call retry absorbs both.
        let remaining = AtomicU32::new(2);
        let opener: Box<SourceOpener> = Box::new(move |path| {
            if remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(std::io::Error::other("flaky mount"));
            }
            Ok(Box::new(std::fs::File::open(path)?))
        });
        let store = Arc::new(
            ShardStore::open_with(dir.path(), 2, clock.clone(), RetryPolicy::default())
                .unwrap()
                .with_opener(opener),
        );
        let engine =
            QueryEngine::with_store(store, EngineConfig::with_workers(1), clock).unwrap();
        let resp = engine
            .submit(convert_request("d", "chr1", &dir.path().join("out")))
            .unwrap()
            .wait();
        assert!(resp.outcome.is_ok(), "retry must absorb transient faults: {resp:?}");
        let stats = engine.drain();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.transient_retries, 2);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn obs_registry_and_tracer_observe_requests() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200]);
        let clock = Arc::new(ManualClock::new());
        let registry = Arc::new(ngs_obs::Registry::new());
        let tracer = ngs_obs::Tracer::new(16, clock.clone());
        let config = EngineConfig {
            workers: 1,
            obs: Some(Arc::clone(&registry)),
            tracer: Some(Arc::clone(&tracer)),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_clock(dir.path(), config, clock).unwrap();
        let out = dir.path().join("out");
        assert!(engine.submit(convert_request("d", "chr1", &out)).unwrap().wait().outcome.is_ok());
        assert!(engine
            .submit(convert_request("nope", "chr1", &out))
            .unwrap()
            .wait()
            .outcome
            .is_err());
        drop(engine);
        // The shared registry saw both the ledger and the store.
        let snap = registry.snapshot();
        assert_eq!(snap.counters["query.submitted"], 2);
        assert_eq!(snap.counters["query.completed"], 1);
        assert_eq!(snap.counters["query.failed"], 1);
        assert_eq!(snap.counters["query.class.interactive.submitted"], 2);
        assert_eq!(snap.counters["query.goodput_completed"], 1);
        assert_eq!(snap.counters["store.cache_misses"], 1);
        assert_eq!(snap.histograms["query.latency_ns"].count, 2);
        // Under the manual clock the snapshot renders byte-identically.
        assert_eq!(snap.render_json(), registry.snapshot().render_json());
        // The tracer recorded one span per executed request, in order.
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, "query.execute");
        assert_eq!(events[0].shard, "d");
        assert_eq!(events[0].outcome, "ok");
        assert_eq!(events[1].shard, "nope");
        assert_eq!(events[1].outcome, "error");
    }

    #[test]
    fn drain_finishes_queued_work() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200, 300, 400]);
        let engine = QueryEngine::new(dir.path(), EngineConfig::with_workers(2)).unwrap();
        let out = dir.path().join("out");
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                engine
                    .submit(convert_request("d", "chr1", &out.join(i.to_string())))
                    .unwrap()
            })
            .collect();
        let stats = engine.drain();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        for t in tickets {
            assert!(t.wait().outcome.is_ok());
        }
        // Same dataset every time: exactly one miss, the rest hits.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 7);
    }

    /// Direct scheduler-level pin of the dequeue contract: strict
    /// priority flips submission order, and an aged batch front jumps
    /// ahead of fresher interactive work (counted as a promotion).
    #[test]
    fn scheduler_dequeues_strict_priority_with_aging() {
        fn job(class: QueryClass, name: &str, submitted_at: Duration) -> Job {
            // The receiver is dropped: replies to these jobs go nowhere,
            // which is fine — only dequeue order is under test.
            let (reply, _rx) = bounded(1);
            Job {
                request: QueryRequest {
                    dataset: name.into(),
                    region: "chr1".into(),
                    kind: QueryKind::Coverage { bin_size: 25 },
                    deadline: None,
                    class,
                },
                submitted_at,
                reply,
            }
        }
        let config = EngineConfig {
            queue_capacity: 16,
            age_promote: Duration::from_millis(100),
            ..EngineConfig::default()
        };
        let sched = Scheduler::new(&config);
        let ledger = Ledger::default();

        // Batch submitted first, interactive second: strict priority
        // serves interactive first while nothing has aged.
        sched.admit(job(QueryClass::Batch, "b0", Duration::ZERO), Duration::ZERO, &ledger).unwrap();
        sched
            .admit(
                job(QueryClass::Interactive, "i0", Duration::from_millis(10)),
                Duration::from_millis(10),
                &ledger,
            )
            .unwrap();
        {
            let mut st = sched.state.lock();
            let first = sched.pick(&mut st, Duration::from_millis(10), &ledger).unwrap();
            assert_eq!(first.request.dataset, "i0");
            let second = sched.pick(&mut st, Duration::from_millis(10), &ledger).unwrap();
            assert_eq!(second.request.dataset, "b0");
            assert!(sched.pick(&mut st, Duration::from_millis(10), &ledger).is_none());
        }
        assert_eq!(ledger.snapshot().aged_promotions, 0);

        // Now an old batch job vs a fresh interactive one: once the
        // batch front's wait reaches `age_promote`, it is promoted.
        sched.admit(job(QueryClass::Batch, "b1", Duration::ZERO), Duration::ZERO, &ledger).unwrap();
        sched
            .admit(
                job(QueryClass::Interactive, "i1", Duration::from_millis(120)),
                Duration::from_millis(120),
                &ledger,
            )
            .unwrap();
        {
            let mut st = sched.state.lock();
            let first = sched.pick(&mut st, Duration::from_millis(120), &ledger).unwrap();
            assert_eq!(first.request.dataset, "b1", "aged batch job must be promoted");
            let second = sched.pick(&mut st, Duration::from_millis(120), &ledger).unwrap();
            assert_eq!(second.request.dataset, "i1");
        }
        assert_eq!(ledger.snapshot().aged_promotions, 1);
    }
}
