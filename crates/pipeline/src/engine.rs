//! The staged streaming dataflow engine.
//!
//! A graph is a chain of typed stages connected by **bounded** crossbeam
//! channels carrying record [`Batch`]es:
//!
//! ```text
//! source ──▶ [stage × workers] ──▶ … ──▶ sink (caller thread)
//! ```
//!
//! * **Backpressure** — every channel is bounded by
//!   [`PipelineConfig::channel_bound`]; a producer facing a full channel
//!   blocks (the time shows up as `send_wait` in that stage's metrics),
//!   so the peak working set is proportional to
//!   `channel_bound × batch cost`, not to the input size.
//! * **Shared worker pool** — a stage may run several workers; they
//!   share one MPMC input channel, so a slow batch never idles the rest
//!   of the pool.
//! * **Ordering** — the source stamps batches with a dense sequence
//!   number; the sink reorders by it (bounded by the in-flight window),
//!   which is what lets parallel converters produce output
//!   byte-identical to the sequential path.
//! * **Cancellation** — cooperative via [`CancelToken`]: stages poll the
//!   token between batches, the runner drains queues so no producer
//!   stays blocked, and every thread is joined before `run` returns —
//!   the graph always drains cleanly, on success, failure, or cancel.
//! * **Failure semantics** — the first stage error wins: it is recorded,
//!   the token is cancelled, and `run` returns the error after the
//!   drain. Sources own fault policy (retry transient reads, quarantine
//!   structurally corrupt shards) — see `convert::StreamConverter`.
//! * **Metrics** — per-stage throughput, queue depth, and stall time on
//!   the injected [`Clock`]; under a `ManualClock` every duration is
//!   exactly zero, keeping tests deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use ngs_formats::error::{Error, Result};

use crate::cancel::CancelToken;
use crate::clock::Clock;
use crate::metrics::{timed, MemoryGauge, PipelineMetrics, StageRecorder};

/// How often blocked stages re-check the cancellation token.
const POLL: Duration = Duration::from_millis(20);

/// Sentinel message distinguishing "the graph was cancelled under me"
/// from real stage failures (the former is never recorded as the run's
/// error).
const CANCEL_MSG: &str = "pipeline cancelled";

fn cancel_error() -> Error {
    Error::Io(std::io::Error::other(CANCEL_MSG))
}

fn is_cancel_error(e: &Error) -> bool {
    matches!(e, Error::Io(io) if io.to_string() == CANCEL_MSG)
}

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Workers for parallel transform stages (sources and sinks are
    /// single-threaded by construction).
    pub workers: usize,
    /// Records per batch flowing between stages.
    pub batch_size: usize,
    /// Bound of every inter-stage channel, in batches — the backpressure
    /// window.
    pub channel_bound: usize,
    /// In-source retry budget for transient I/O faults.
    pub retry_attempts: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: std::thread::available_parallelism().map(usize::from).unwrap_or(4),
            batch_size: 1024,
            channel_bound: 4,
            retry_attempts: 3,
        }
    }
}

impl PipelineConfig {
    /// A config with `workers` transform workers and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig { workers, ..Default::default() }
    }
}

/// Approximate resident size of a payload item, for the
/// [`MemoryGauge`] working-set proxy.
pub trait Cost {
    /// Approximate bytes this item keeps resident while buffered.
    fn cost_bytes(&self) -> u64;

    /// Cost of a slice of items (overridable for cheap bulk cases).
    fn slice_cost(items: &[Self]) -> u64
    where
        Self: Sized,
    {
        items.iter().map(Cost::cost_bytes).sum()
    }
}

impl Cost for u8 {
    fn cost_bytes(&self) -> u64 {
        1
    }

    fn slice_cost(items: &[Self]) -> u64 {
        items.len() as u64
    }
}

impl Cost for u64 {
    fn cost_bytes(&self) -> u64 {
        8
    }
}

impl Cost for f64 {
    fn cost_bytes(&self) -> u64 {
        8
    }
}

impl Cost for ngs_formats::record::AlignmentRecord {
    fn cost_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.heap_size()) as u64
    }
}

/// A numbered batch of items flowing through a graph. Sequence numbers
/// are dense (0, 1, 2, …) in source-emission order; 1:1 stages preserve
/// them so the sink can restore global order.
#[derive(Debug, Clone)]
pub struct Batch<T> {
    /// Dense source-assigned sequence number.
    pub seq: u64,
    /// Payload items.
    pub items: Vec<T>,
}

impl<T: Cost> Batch<T> {
    /// Gauge cost of the payload.
    pub fn cost(&self) -> u64 {
        T::slice_cost(&self.items)
    }
}

/// A transform stage: consumes input batches, pushes output batches per
/// call. One instance exists per worker, so implementations may keep
/// worker-local state (e.g. reusable buffers).
///
/// Stages must be 1:1 — exactly one output batch per input batch,
/// carrying the input's `seq` — so the sink can restore global order.
pub trait Stage<I: Send, O: Send>: Send {
    /// Processes one batch, pushing outputs onto `out`.
    fn process(&mut self, batch: Batch<I>, out: &mut Vec<Batch<O>>) -> Result<()>;
}

/// Adapts a 1:1 closure into a boxed [`Stage`].
pub fn stage_fn<I, O, F>(f: F) -> Box<dyn Stage<I, O>>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(Batch<I>) -> Result<Batch<O>> + Send + 'static,
{
    struct FnStage<F>(F);
    impl<I: Send, O: Send, F: FnMut(Batch<I>) -> Result<Batch<O>> + Send> Stage<I, O>
        for FnStage<F>
    {
        fn process(&mut self, batch: Batch<I>, out: &mut Vec<Batch<O>>) -> Result<()> {
            out.push((self.0)(batch)?);
            Ok(())
        }
    }
    Box::new(FnStage(f))
}

/// The terminal stage, driven on the caller's thread by [`Graph::run`].
pub trait Sink<T: Send> {
    /// What the sink yields once the graph has drained.
    type Output;

    /// Absorbs one batch, in global order.
    fn absorb(&mut self, batch: Batch<T>) -> Result<()>;

    /// Finalizes (flush + close) and yields the output.
    fn finish(self) -> Result<Self::Output>;
}

/// Handles shared by every thread of one graph.
struct Core {
    config: PipelineConfig,
    clock: Arc<dyn Clock>,
    cancel: CancelToken,
    gauge: Arc<MemoryGauge>,
    fail: Arc<Mutex<Option<Error>>>,
    handles: Vec<JoinHandle<()>>,
    stages: Vec<(String, usize, Arc<StageRecorder>)>,
}

impl Core {
    /// Records the run's first real failure and cancels the graph.
    fn fail(fail: &Mutex<Option<Error>>, cancel: &CancelToken, e: Error) {
        if !is_cancel_error(&e) {
            if let Ok(mut slot) = fail.lock() {
                slot.get_or_insert(e);
            }
        }
        cancel.cancel();
    }
}

/// The source side of a graph under construction: chain transform stages
/// with [`Graph::stage`], then terminate with [`Graph::run`].
pub struct Graph<T: Cost + Send + 'static> {
    core: Core,
    rx: Receiver<Batch<T>>,
}

/// What the source closure writes into; assigns sequence numbers and
/// applies backpressure.
pub struct SourceCtx<T: Cost + Send> {
    tx: Sender<Batch<T>>,
    next_seq: u64,
    cancel: CancelToken,
    rec: Arc<StageRecorder>,
    gauge: Arc<MemoryGauge>,
    clock: Arc<dyn Clock>,
    retry_budget: u32,
}

impl<T: Cost + Send> SourceCtx<T> {
    /// Emits one batch downstream, blocking while the channel is full
    /// (the block is the backpressure and is metered as `send_wait`).
    /// Returns an error once the graph has been cancelled — sources
    /// should propagate it with `?` to wind down promptly.
    pub fn emit(&mut self, items: Vec<T>) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        if self.cancel.is_cancelled() {
            return Err(cancel_error());
        }
        let batch = Batch { seq: self.next_seq, items };
        self.next_seq += 1;
        let cost = batch.cost();
        self.rec.batches_out.fetch_add(1, Ordering::Relaxed);
        self.rec.items_out.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
        self.gauge.charge(cost);
        let t0 = self.clock.now();
        let sent = self.tx.send(batch).is_ok();
        StageRecorder::add_nanos(
            &self.rec.send_wait_nanos,
            self.clock.now().saturating_sub(t0),
        );
        if sent {
            Ok(())
        } else {
            self.gauge.release(cost);
            Err(cancel_error())
        }
    }

    /// True once the graph has been cancelled; long scans should check
    /// this between reads.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Number of transient-retry attempts the graph budget allows
    /// ([`PipelineConfig::retry_attempts`], threaded through at build
    /// time so sources need no config handle).
    pub fn retry_attempts(&self) -> u32 {
        self.retry_budget
    }
}

/// The run-facing half of `SourceCtx` construction.
struct SourceSeed<T: Cost + Send> {
    tx: Sender<Batch<T>>,
    cancel: CancelToken,
    rec: Arc<StageRecorder>,
    gauge: Arc<MemoryGauge>,
    clock: Arc<dyn Clock>,
    retry_budget: u32,
}

impl<T: Cost + Send + 'static> Graph<T> {
    /// Starts a graph: spawns the source thread, which fills the first
    /// bounded channel through its [`SourceCtx`].
    pub fn source<F>(
        config: PipelineConfig,
        clock: Arc<dyn Clock>,
        name: &str,
        source: F,
    ) -> Graph<T>
    where
        F: FnOnce(&mut SourceCtx<T>) -> Result<()> + Send + 'static,
    {
        let cancel = CancelToken::new();
        let gauge = Arc::new(MemoryGauge::new());
        let fail = Arc::new(Mutex::new(None));
        let (tx, rx) = bounded(config.channel_bound.max(1));
        let rec = Arc::new(StageRecorder::default());
        let mut core = Core {
            config,
            clock: Arc::clone(&clock),
            cancel: cancel.clone(),
            gauge: Arc::clone(&gauge),
            fail: Arc::clone(&fail),
            handles: Vec::new(),
            stages: vec![(name.to_string(), 1, Arc::clone(&rec))],
        };
        let seed = SourceSeed {
            tx,
            cancel: cancel.clone(),
            rec,
            gauge,
            clock,
            retry_budget: core.config.retry_attempts,
        };
        let spawned = std::thread::Builder::new()
            .name(format!("ngs-pipe-{name}"))
            .spawn(move || {
                let mut ctx = SourceCtx {
                    tx: seed.tx,
                    next_seq: 0,
                    cancel: seed.cancel.clone(),
                    rec: seed.rec,
                    gauge: seed.gauge,
                    clock: seed.clock,
                    retry_budget: seed.retry_budget,
                };
                if let Err(e) = source(&mut ctx) {
                    Core::fail(&fail, &seed.cancel, e);
                }
                // Dropping ctx closes the channel: downstream drains.
            });
        match spawned {
            Ok(h) => core.handles.push(h),
            Err(e) => Core::fail(&core.fail, &core.cancel, Error::Io(e)),
        }
        Graph { core, rx }
    }

    /// Appends a transform stage with `workers` parallel workers sharing
    /// one bounded input channel. `factory` builds one [`Stage`]
    /// instance per worker (worker-local state).
    pub fn stage<O, F>(mut self, name: &str, workers: usize, mut factory: F) -> Graph<O>
    where
        O: Cost + Send + 'static,
        F: FnMut(usize) -> Box<dyn Stage<T, O>>,
    {
        let workers = workers.max(1);
        let (tx, rx_next) = bounded(self.core.config.channel_bound.max(1));
        let rec = Arc::new(StageRecorder::default());
        self.core.stages.push((name.to_string(), workers, Arc::clone(&rec)));
        for w in 0..workers {
            let stage = factory(w);
            let rx = self.rx.clone();
            let tx = tx.clone();
            let rec = Arc::clone(&rec);
            let cancel = self.core.cancel.clone();
            let gauge = Arc::clone(&self.core.gauge);
            let clock = Arc::clone(&self.core.clock);
            let fail = Arc::clone(&self.core.fail);
            let spawned = std::thread::Builder::new()
                .name(format!("ngs-pipe-{name}-{w}"))
                .spawn(move || {
                    stage_worker(stage, rx, tx, rec, cancel, gauge, clock, fail)
                });
            match spawned {
                Ok(h) => self.core.handles.push(h),
                Err(e) => Core::fail(&self.core.fail, &self.core.cancel, Error::Io(e)),
            }
        }
        Graph { core: self.core, rx: rx_next }
    }

    /// The graph's cancellation token (for external graceful stops).
    pub fn cancel_token(&self) -> CancelToken {
        self.core.cancel.clone()
    }

    /// Drives `sink` on the calling thread until the graph drains, then
    /// joins every stage thread and returns the sink's output plus the
    /// run metrics. The sink sees batches in global order: they are
    /// reordered by sequence number (which needs 1:1 upstream stages).
    ///
    /// Always drains cleanly: on a stage/sink error or a cancel, queued
    /// batches are received and discarded so no producer stays blocked,
    /// all threads are joined, and the first recorded error (if any) is
    /// returned.
    pub fn run<S>(self, name: &str, mut sink: S) -> Result<(S::Output, PipelineMetrics)>
    where
        S: Sink<T>,
    {
        let Core { clock, cancel, gauge, fail, handles, mut stages, .. } = self.core;
        let t_start = clock.now();
        let rec = Arc::new(StageRecorder::default());
        stages.push((name.to_string(), 1, Arc::clone(&rec)));

        let mut pending: BTreeMap<u64, Batch<T>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let absorb = |sink: &mut S, batch: Batch<T>| -> Result<()> {
            let cost = batch.cost();
            let r = timed(&clock, &rec.busy_nanos, || sink.absorb(batch));
            gauge.release(cost);
            r
        };

        loop {
            if cancel.is_cancelled() {
                break;
            }
            rec.observe_depth(self.rx.len());
            let t0 = clock.now();
            let recv = self.rx.recv_timeout(POLL);
            StageRecorder::add_nanos(&rec.recv_wait_nanos, clock.now().saturating_sub(t0));
            match recv {
                Ok(batch) => {
                    rec.batches_in.fetch_add(1, Ordering::Relaxed);
                    rec.items_in.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
                    pending.insert(batch.seq, batch);
                    let mut result = Ok(());
                    while let Some(b) = pending.remove(&next_seq) {
                        next_seq += 1;
                        result = absorb(&mut sink, b);
                        if result.is_err() {
                            break;
                        }
                    }
                    if let Err(e) = result {
                        Core::fail(&fail, &cancel, e);
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Flush any reordered remainder (no-op unless upstream violated
        // the 1:1 contract or the run was cut short).
        if !cancel.is_cancelled() {
            for (_, b) in std::mem::take(&mut pending) {
                if let Err(e) = absorb(&mut sink, b) {
                    Core::fail(&fail, &cancel, e);
                    break;
                }
            }
        }

        // Drain-and-discard so no upstream producer stays blocked on a
        // full channel; producers observe the cancel within POLL.
        if cancel.is_cancelled() {
            for (_, b) in std::mem::take(&mut pending) {
                gauge.release(b.cost());
            }
            loop {
                match self.rx.recv_timeout(POLL) {
                    Ok(b) => gauge.release(b.cost()),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }

        for h in handles {
            if h.join().is_err() {
                Core::fail(
                    &fail,
                    &cancel,
                    Error::Io(std::io::Error::other("pipeline stage panicked")),
                );
            }
        }

        let cancelled = cancel.is_cancelled();
        let first_error = fail.lock().ok().and_then(|mut s| s.take());
        if let Some(e) = first_error {
            return Err(e);
        }
        let output = sink.finish()?;
        let metrics = PipelineMetrics {
            stages: stages.iter().map(|(n, w, r)| r.snapshot(n, *w)).collect(),
            peak_buffered_bytes: gauge.peak(),
            elapsed: clock.now().saturating_sub(t_start),
            cancelled,
        };
        Ok((output, metrics))
    }
}

/// One transform worker: shared-receiver loop with cancellation polling,
/// gauge accounting, and metered waits.
#[allow(clippy::too_many_arguments)]
fn stage_worker<I: Cost + Send, O: Cost + Send>(
    mut stage: Box<dyn Stage<I, O>>,
    rx: Receiver<Batch<I>>,
    tx: Sender<Batch<O>>,
    rec: Arc<StageRecorder>,
    cancel: CancelToken,
    gauge: Arc<MemoryGauge>,
    clock: Arc<dyn Clock>,
    fail: Arc<Mutex<Option<Error>>>,
) {
    let mut out_buf: Vec<Batch<O>> = Vec::new();
    let send_out = |batch: Batch<O>| -> bool {
        rec.batches_out.fetch_add(1, Ordering::Relaxed);
        rec.items_out.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
        let cost = batch.cost();
        gauge.charge(cost);
        let t0 = clock.now();
        let ok = tx.send(batch).is_ok();
        StageRecorder::add_nanos(&rec.send_wait_nanos, clock.now().saturating_sub(t0));
        if !ok {
            gauge.release(cost);
        }
        ok
    };
    loop {
        if cancel.is_cancelled() {
            return;
        }
        rec.observe_depth(rx.len());
        let t0 = clock.now();
        let recv = rx.recv_timeout(POLL);
        StageRecorder::add_nanos(&rec.recv_wait_nanos, clock.now().saturating_sub(t0));
        match recv {
            Ok(batch) => {
                rec.batches_in.fetch_add(1, Ordering::Relaxed);
                rec.items_in.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
                let in_cost = batch.cost();
                out_buf.clear();
                let r = timed(&clock, &rec.busy_nanos, || stage.process(batch, &mut out_buf));
                gauge.release(in_cost);
                match r {
                    Ok(()) => {
                        for b in out_buf.drain(..) {
                            if !send_out(b) {
                                return;
                            }
                        }
                    }
                    Err(e) => {
                        Core::fail(&fail, &cancel, e);
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn clock() -> Arc<dyn Clock> {
        Arc::new(ManualClock::new())
    }

    fn config(workers: usize) -> PipelineConfig {
        PipelineConfig { workers, batch_size: 8, channel_bound: 2, retry_attempts: 3 }
    }

    /// Collects items in arrival order.
    struct Collect {
        got: Vec<u64>,
    }

    impl Sink<u64> for Collect {
        type Output = Vec<u64>;

        fn absorb(&mut self, batch: Batch<u64>) -> Result<()> {
            self.got.extend(batch.items);
            Ok(())
        }

        fn finish(self) -> Result<Vec<u64>> {
            Ok(self.got)
        }
    }

    fn number_source(n: u64, batch: usize) -> impl FnOnce(&mut SourceCtx<u64>) -> Result<()> {
        move |ctx| {
            let mut next = 0;
            while next < n {
                let hi = (next + batch as u64).min(n);
                ctx.emit((next..hi).collect())?;
                next = hi;
            }
            Ok(())
        }
    }

    #[test]
    fn ordered_run_preserves_global_order() {
        let (out, metrics) = Graph::source(config(4), clock(), "numbers", number_source(1000, 16))
            .stage("double", 4, |_| stage_fn(|b: Batch<u64>| {
                Ok(Batch { seq: b.seq, items: b.items.iter().map(|x| x * 2).collect() })
            }))
            .run("collect", Collect { got: Vec::new() })
            .unwrap();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        assert!(!metrics.cancelled);
        assert_eq!(metrics.stages.len(), 3);
        assert_eq!(metrics.stages[0].items_out, 1000);
        assert_eq!(metrics.stages[1].items_in, 1000);
        assert_eq!(metrics.stages[2].items_in, 1000);
        // ManualClock: every duration is exactly zero — deterministic.
        for s in &metrics.stages {
            assert_eq!(s.busy, Duration::ZERO);
            assert_eq!(s.recv_wait, Duration::ZERO);
            assert_eq!(s.send_wait, Duration::ZERO);
        }
        assert_eq!(metrics.elapsed, Duration::ZERO);
    }

    #[test]
    fn peak_working_set_is_bounded_by_window_not_input() {
        // 64k items of 8 bytes each = 512 KiB total; the in-flight
        // window is ≤ (2 channels × bound 2 + workers + reorder) batches
        // of 64 items → far below the input size.
        let n: u64 = 65_536;
        let (_, metrics) = Graph::source(config(2), clock(), "numbers", number_source(n, 64))
            .stage("id", 2, |_| stage_fn(|b: Batch<u64>| Ok(b)))
            .run("collect", Collect { got: Vec::new() })
            .unwrap();
        let total = n * 8;
        assert!(metrics.peak_buffered_bytes > 0);
        assert!(
            metrics.peak_buffered_bytes < total / 4,
            "peak {} should be far below total {}",
            metrics.peak_buffered_bytes,
            total
        );
    }

    #[test]
    fn stage_error_cancels_and_drains() {
        let err = Graph::source(config(2), clock(), "numbers", number_source(10_000, 8))
            .stage("explode", 2, |_| {
                stage_fn(|b: Batch<u64>| {
                    if b.seq == 5 {
                        Err(Error::InvalidRecord("boom".into()))
                    } else {
                        Ok(b)
                    }
                })
            })
            .run("collect", Collect { got: Vec::new() })
            .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn sink_error_cancels_and_drains() {
        struct FailingSink {
            n: u64,
        }
        impl Sink<u64> for FailingSink {
            type Output = ();
            fn absorb(&mut self, _batch: Batch<u64>) -> Result<()> {
                self.n += 1;
                if self.n == 3 {
                    Err(Error::InvalidRecord("sink full".into()))
                } else {
                    Ok(())
                }
            }
            fn finish(self) -> Result<()> {
                Ok(())
            }
        }
        let err = Graph::source(config(1), clock(), "numbers", number_source(100_000, 8))
            .stage("id", 1, |_| stage_fn(|b: Batch<u64>| Ok(b)))
            .run("failing", FailingSink { n: 0 })
            .unwrap_err();
        assert!(err.to_string().contains("sink full"), "{err}");
    }

    #[test]
    fn external_cancel_stops_early_and_reports() {
        // The source emits forever; cancelling from outside must wind
        // the graph down and report `cancelled` without an error.
        let graph = Graph::source(config(1), clock(), "infinite", |ctx| {
            let mut i = 0u64;
            loop {
                ctx.emit(vec![i])?;
                i += 1;
            }
        });
        let token = graph.cancel_token();
        struct CancelAfter {
            token: CancelToken,
            seen: u64,
        }
        impl Sink<u64> for CancelAfter {
            type Output = u64;
            fn absorb(&mut self, batch: Batch<u64>) -> Result<()> {
                self.seen += batch.items.len() as u64;
                if self.seen >= 10 {
                    self.token.cancel();
                }
                Ok(())
            }
            fn finish(self) -> Result<u64> {
                Ok(self.seen)
            }
        }
        let (seen, metrics) = graph
            .run("cancel-after", CancelAfter { token, seen: 0 })
            .unwrap();
        assert!(seen >= 10);
        assert!(metrics.cancelled);
    }

    #[test]
    fn queue_depth_respects_channel_bound() {
        let (_, metrics) = Graph::source(config(2), clock(), "numbers", number_source(5000, 4))
            .stage("id", 2, |_| stage_fn(|b: Batch<u64>| Ok(b)))
            .run("collect", Collect { got: Vec::new() })
            .unwrap();
        for s in &metrics.stages {
            assert!(s.max_queue_depth <= 2, "{}: depth {}", s.name, s.max_queue_depth);
        }
    }
}
