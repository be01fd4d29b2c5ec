//! The shard store: dataset discovery plus a capacity-bounded,
//! *segmented* LRU cache of open BAMX handles and decoded BAIX indexes,
//! with single-flight coalescing of cold opens.
//!
//! Opening a BAMX shard walks its (possibly BGZF-compressed) block
//! structure and loading a BAIX deserializes the whole index, so a
//! long-lived engine amortizes both across requests. `BamxFile` reads
//! are positional (`read_at` on `&self`), which is what makes sharing
//! one cached handle across worker threads sound.
//!
//! # Concurrency (DESIGN.md §11)
//!
//! The store used to serialize every lookup — hits included — on one
//! `Mutex<StoreState>`, which made the serving tier contention-bound
//! (`BENCH_query.json` showed *negative* worker scaling). The rebuilt
//! store removes that sequential bottleneck in three moves:
//!
//! * **Segmentation** — cache, health, and in-flight state are
//!   partitioned into N independently-locked segments by a
//!   deterministic FNV-1a hash of the dataset name
//!   ([`ShardStore::segment_index`]). Requests for datasets in
//!   different segments never touch the same lock. The capacity bound
//!   is a *global* cost budget (`occupancy` atomic); eviction picks the
//!   LRU victim of the *inserting* segment, so no lookup ever holds two
//!   segment locks (a segment down to its last entry tolerates a
//!   bounded overage rather than reach into a sibling).
//! * **Single-flight** — a cold open publishes an in-flight entry in
//!   its segment before releasing the lock; concurrent misses on the
//!   same dataset park on that entry and receive the *shared* decode
//!   result (`Arc` clones — zero copies, zero duplicate decodes).
//!   Failures broadcast a typed copy preserving `is_transient`, and the
//!   entry is removed *before* waiters wake, so a failed decode never
//!   poisons the key: the next lookup starts a fresh attempt (or hits
//!   the health gate the leader recorded).
//! * **Lock order** — at most one segment lock is held at any time, and
//!   never across a decode, repair, or filesystem probe; the in-flight
//!   slot lock is only taken with no segment lock held. Decodes and
//!   repairs for *different* datasets now run concurrently.
//!
//! # Failure handling
//!
//! A failed open is classified by [`Error::is_transient`]:
//!
//! * **Transient** (I/O errors — a flaky disk or network mount): retried
//!   up to [`RetryPolicy::attempts`] times within the same `get`, then
//!   the dataset enters *backoff* — further lookups are refused without
//!   touching the disk until a deadline on the injected [`Clock`]
//!   passes. The backoff doubles per failed round, capped at
//!   [`RetryPolicy::max_backoff`], and clears on the first success.
//! * **Structural** ([`DecodeError`](ngs_formats::error::DecodeError)
//!   and friends — corrupt bytes): the dataset is *quarantined*
//!   permanently. Re-reading corrupt bytes can never succeed, so the
//!   store refuses the dataset immediately instead of hot-retrying the
//!   open on every request (the failure mode this design replaces).
//!
//! Both states are visible in [`CacheCounters`] and, through the
//! engine, in [`QueryStats`](crate::QueryStats). The store never
//! sleeps: in-call retries are immediate and backoff is enforced as a
//! deadline comparison, so tests drive everything with a
//! [`ManualClock`](crate::ManualClock).

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{Baix, BamxFile};
use ngs_bgzf::ReadAt;
use ngs_formats::error::{Error, Result};
use ngs_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::clock::{Clock, SystemClock};

/// Opens a shard file as a positional read source. The indirection is
/// what lets tests (`tests/query_engine.rs`, `tests/overload.rs`)
/// substitute fault-injecting sources (`ngs_fault::FaultyFile`) for
/// plain files.
pub type SourceOpener = dyn Fn(&Path) -> std::io::Result<Box<dyn ReadAt>> + Send + Sync;

/// Re-derives a damaged dataset from its source of truth (typically a
/// resumable `preprocess_repo` run over the original BAM/SAM). Invoked
/// by the store at most once per structural failure before the dataset
/// is quarantined; returning `Ok` means the artifacts on disk were
/// rebuilt and the store should re-verify and reopen them.
pub type Repairer = dyn Fn(&str) -> Result<()> + Send + Sync;

/// How the store handles transient open failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Open attempts per `get` call (minimum 1). Retries are immediate —
    /// transient faults of the "try again" kind, not "wait it out".
    pub attempts: u32,
    /// Backoff after the first round of exhausted attempts.
    pub base_backoff: Duration,
    /// Backoff ceiling; doubling stops here.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff after `failures` consecutive exhausted rounds:
    /// `base * 2^(failures-1)`, capped at `max_backoff`.
    fn backoff_after(&self, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff)
    }
}

/// Per-dataset health, tracked across `get` calls.
enum ShardHealth {
    /// Transient failures so far; opens are refused until `retry_at`.
    Backoff { consecutive_failures: u32, retry_at: Duration },
    /// Structural decode failure: permanently refused.
    Quarantined { reason: String },
}

/// An open dataset: the shared BAMX handle plus its decoded BAIX index.
/// Cloning is two `Arc` bumps — responses built from a cached shard are
/// zero-copy views of the decoded block, never re-decodes.
#[derive(Clone)]
pub struct CachedShard {
    /// Open BAMX shard (thread-safe positional reads).
    pub bamx: Arc<BamxFile>,
    /// Decoded BAIX index for the shard.
    pub baix: Arc<Baix>,
}

impl std::fmt::Debug for CachedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedShard")
            .field("records", &self.bamx.len())
            .field("indexed", &self.baix.len())
            .finish()
    }
}

/// Snapshot of the store's cache and health counters (cross-segment
/// totals; per-segment views come from [`ShardStore::segment_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache — including lookups that parked on
    /// an in-flight decode and received the shared result.
    pub hits: u64,
    /// Lookups that had to open and index a dataset (decode leaders).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Immediate in-call retries after transient open failures.
    pub transient_retries: u64,
    /// Datasets permanently quarantined after structural decode errors.
    pub quarantined: u64,
    /// Lookups refused because the dataset was in transient backoff.
    pub backoff_rejections: u64,
    /// Self-heal attempts: structural failures handed to the wired
    /// [`Repairer`] instead of quarantining outright.
    pub repairs: u64,
    /// Self-heal attempts that ended with the dataset verified, reopened
    /// and served.
    pub repaired: u64,
    /// Cold decode operations actually performed (shard + index opens,
    /// including per-`get` retry attempts). With single-flight
    /// coalescing this stays at one per cold dataset no matter how many
    /// requests raced for it.
    pub decodes: u64,
    /// Lookups that parked on another request's in-flight decode instead
    /// of starting their own (single-flight coalescing).
    pub coalesced: u64,
}

impl CacheCounters {
    /// `hits / (hits + misses)`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-segment cache counters ([`ShardStore::segment_counters`]). The
/// segment-wise sums of these equal the global [`CacheCounters`] fields
/// of the same name — the concurrency suite asserts exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCounters {
    /// Lookups this segment served from cache (including coalesced
    /// waiters on this segment's in-flight decodes).
    pub hits: u64,
    /// Cold opens admitted into this segment.
    pub misses: u64,
    /// Entries this segment evicted for the global budget.
    pub evictions: u64,
}

/// The outcome an in-flight decode broadcasts to its waiters. `Error`
/// is not `Clone`, so the shared copy lives behind an `Arc` and each
/// waiter reconstructs an owned error preserving classification.
type SharedOutcome = std::result::Result<CachedShard, Arc<Error>>;

/// One in-flight cold open: waiters park on `done` until the leader
/// publishes the shared outcome in `slot`. The entry is removed from
/// its segment's map *before* the outcome is published, so the key is
/// never poisoned — a request arriving after a failure starts fresh.
#[derive(Default)]
struct InFlight {
    slot: Mutex<Option<SharedOutcome>>,
    done: Condvar,
}

impl InFlight {
    /// Parks until the leader publishes, then returns a shared copy.
    fn wait(&self) -> SharedOutcome {
        let mut slot = self.slot.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return match outcome {
                    Ok(shard) => Ok(shard.clone()),
                    Err(e) => Err(Arc::clone(e)),
                };
            }
            self.done.wait(&mut slot);
        }
    }

    /// Publishes the outcome and wakes every waiter.
    fn complete(&self, outcome: SharedOutcome) {
        *self.slot.lock() = Some(outcome);
        self.done.notify_all();
    }
}

/// Mutable state of one segment. Everything here is keyed by dataset
/// name, and a name only ever maps to one segment, so the maps of
/// different segments are disjoint by construction.
#[derive(Default)]
struct SegmentState {
    /// name → (shard, last-use stamp). Eviction removes the smallest
    /// stamp — O(n), fine for the single-digit capacities used here.
    cache: HashMap<String, (CachedShard, u64)>,
    /// name → health for datasets whose last open failed. Disjoint from
    /// `cache` (a successful open clears the entry) and bounded by the
    /// number of distinct failing datasets, so it needs no eviction.
    health: HashMap<String, ShardHealth>,
    /// Datasets with a repair in flight or already spent: one structural
    /// failure gets one repair attempt; a second structural failure
    /// quarantines (no repair loops). Cleared on successful admit.
    repair_spent: HashSet<String>,
    /// name → in-flight cold open other requests coalesce onto.
    inflight: HashMap<String, Arc<InFlight>>,
    /// Per-segment LRU clock (monotonic within the segment).
    tick: u64,
}

/// One independently-locked cache segment. The counters sit outside the
/// mutex so coalesced waiters can account a hit without re-locking.
#[derive(Default)]
struct Segment {
    state: Mutex<SegmentState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// What a lookup found under the segment lock: an in-flight entry to
/// park on, or leadership of a fresh cold open.
enum Role {
    Waiter(Arc<InFlight>),
    Leader(Arc<InFlight>),
}

/// Discovers and caches the BAMX+BAIX datasets of one directory.
///
/// When the directory is manifest-managed (a `MANIFEST` written by
/// [`ShardRepo`] is present), only manifest-verified shards are
/// admitted: every cold open first checks length + CRC32 + layout
/// fingerprint against the manifest, and discovery lists manifest
/// entries rather than raw directory contents. Directories without a
/// manifest behave as before. A wired [`Repairer`]
/// ([`ShardStore::with_repairer`]) turns structural failures into one
/// self-heal attempt before quarantine.
///
/// Cache state is per-segment (see the module docs); the default is a
/// single segment — exactly the old single-lock LRU semantics — and
/// [`ShardStore::with_segments`] shards it for concurrent serving.
pub struct ShardStore {
    dir: PathBuf,
    capacity: usize,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    opener: Box<SourceOpener>,
    repo: Option<ShardRepo>,
    repairer: Option<Box<Repairer>>,
    segments: Vec<Segment>,
    /// Datasets currently cached across all segments (the global cost
    /// budget `capacity` bounds this, with per-segment victim selection).
    occupancy: AtomicUsize,
    // Counter handles — private by default, or registered in a shared
    // `ngs-obs` registry via `with_obs` (no ad-hoc counter structs).
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    transient_retries: Arc<Counter>,
    quarantined: Arc<Counter>,
    backoff_rejections: Arc<Counter>,
    repairs: Arc<Counter>,
    repaired: Arc<Counter>,
    decodes: Arc<Counter>,
    coalesced: Arc<Counter>,
    seg_contended: Arc<Counter>,
    lock_wait: Arc<Histogram>,
}

impl ShardStore {
    /// Opens a store over `dir` with the system clock and default
    /// [`RetryPolicy`], holding at most `capacity` datasets open at once
    /// (minimum 1).
    pub fn open(dir: impl AsRef<Path>, capacity: usize) -> Result<Self> {
        Self::open_with(dir, capacity, Arc::new(SystemClock::new()), RetryPolicy::default())
    }

    /// Opens a store with an injected clock and retry policy. Backoff
    /// deadlines live on the clock's axis, so a
    /// [`ManualClock`](crate::ManualClock) makes retry behaviour fully
    /// deterministic. Starts with one segment; see
    /// [`ShardStore::with_segments`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        capacity: usize,
        clock: Arc<dyn Clock>,
        policy: RetryPolicy,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(Error::InvalidRecord(format!(
                "shard directory {} does not exist",
                dir.display()
            )));
        }
        let repo = if ShardRepo::is_managed(&dir) { Some(ShardRepo::open(&dir)?) } else { None };
        Ok(ShardStore {
            dir,
            capacity: capacity.max(1),
            policy,
            clock,
            opener: Box::new(|path: &Path| -> std::io::Result<Box<dyn ReadAt>> {
                Ok(Box::new(std::fs::File::open(path)?))
            }),
            repo,
            repairer: None,
            segments: vec![Segment::default()],
            occupancy: AtomicUsize::new(0),
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            transient_retries: Arc::default(),
            quarantined: Arc::default(),
            backoff_rejections: Arc::default(),
            repairs: Arc::default(),
            repaired: Arc::default(),
            decodes: Arc::default(),
            coalesced: Arc::default(),
            seg_contended: Arc::default(),
            lock_wait: Arc::default(),
        })
    }

    /// Shards the cache into `n` independently-locked segments (minimum
    /// 1). Call at construction time, before any lookups — existing
    /// cache state is discarded, not rehashed. One segment reproduces
    /// the old single-lock LRU exactly; the query engine defaults to
    /// several so unrelated requests never contend.
    pub fn with_segments(mut self, n: usize) -> Self {
        self.segments = (0..n.max(1)).map(|_| Segment::default()).collect();
        self.occupancy = AtomicUsize::new(0);
        self
    }

    /// Publishes the store's counters into a shared `ngs-obs` registry
    /// under `store.*` names (so `ngsp stats` sees cache and shard-health
    /// activity). Call at construction time, before any lookups — the
    /// handles are replaced, not mirrored.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.hits = registry.counter("store.cache_hits");
        self.misses = registry.counter("store.cache_misses");
        self.evictions = registry.counter("store.evictions");
        self.transient_retries = registry.counter("store.transient_retries");
        self.quarantined = registry.counter("store.quarantined");
        self.backoff_rejections = registry.counter("store.backoff_rejections");
        self.repairs = registry.counter("store.repairs");
        self.repaired = registry.counter("store.repaired");
        self.decodes = registry.counter("store.decodes");
        self.coalesced = registry.counter("store.singleflight.coalesced");
        self.seg_contended = registry.counter("store.segment.contended");
        self.lock_wait = registry.histogram("store.segment.lock_wait_ns");
        self
    }

    /// Replaces how shard files are opened — the fault-injection seam.
    /// The engine and overload tests wrap real files in
    /// `ngs_fault::FaultyFile` here.
    pub fn with_opener(mut self, opener: Box<SourceOpener>) -> Self {
        self.opener = opener;
        self
    }

    /// Wires a repair callback — the self-healing seam. On a structural
    /// failure (corrupt bytes, torn artifact, manifest mismatch) the
    /// store invokes it once with the dataset name instead of
    /// quarantining; if it returns `Ok` and the reopened shard verifies,
    /// the request is served. A failed repair (or a second structural
    /// failure) quarantines as before, and transient repair errors feed
    /// the normal backoff machinery.
    pub fn with_repairer(mut self, repairer: Box<Repairer>) -> Self {
        self.repairer = Some(repairer);
        self
    }

    /// Whether the directory is manifest-managed (shards must verify
    /// against a [`ShardRepo`] manifest before being served).
    pub fn is_managed(&self) -> bool {
        self.repo.is_some()
    }

    /// The directory being served.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache capacity bound (global cost budget across segments).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently-locked cache segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment a dataset name maps to: FNV-1a over the name bytes,
    /// mod the segment count. Deterministic across runs and processes —
    /// the concurrency suite models per-segment behaviour with it.
    pub fn segment_index(&self, name: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.segments.len() as u64) as usize
    }

    /// Cache counters of one segment (panics on an out-of-range index).
    /// Summed over all segments these equal the hit/miss/eviction fields
    /// of [`ShardStore::counters`].
    pub fn segment_counters(&self, idx: usize) -> SegmentCounters {
        let seg = &self.segments[idx];
        SegmentCounters {
            hits: seg.hits.load(Ordering::Relaxed),
            misses: seg.misses.load(Ordering::Relaxed),
            evictions: seg.evictions.load(Ordering::Relaxed),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Dataset names served, sorted. In a manifest-managed directory
    /// these are the *published* pairs — every `NAME.bamx` manifest
    /// entry with a sibling `NAME.baix` entry; files on disk that never
    /// completed publication are invisible. Otherwise, every `NAME.bamx`
    /// file with a sibling `NAME.baix` file.
    pub fn datasets(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        if let Some(repo) = &self.repo {
            let manifest = repo.manifest()?;
            for name in manifest.entries.keys() {
                if let Some(stem) = name.strip_suffix(".bamx") {
                    if manifest.entries.contains_key(&format!("{stem}.baix")) {
                        names.push(stem.to_string());
                    }
                }
            }
        } else {
            for entry in std::fs::read_dir(&self.dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "bamx")
                    && path.with_extension("baix").is_file()
                {
                    if let Some(stem) = path.file_stem() {
                        names.push(stem.to_string_lossy().into_owned());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Locks one segment, counting contention: an uncontended lookup is
    /// a single `try_lock`; a contended one bumps
    /// `store.segment.contended` and records the wait on the injected
    /// clock in `store.segment.lock_wait_ns`.
    fn lock_segment(&self, idx: usize) -> MutexGuard<'_, SegmentState> {
        if let Some(guard) = self.segments[idx].state.try_lock() {
            return guard;
        }
        self.seg_contended.inc();
        let waited_from = self.clock.now();
        let guard = self.segments[idx].state.lock();
        self.lock_wait
            .record_duration(self.clock.now().saturating_sub(waited_from));
        guard
    }

    /// Fetches a dataset, opening it on a miss. Returns the shard and
    /// whether the lookup was served from shared state (cache hit or a
    /// coalesced in-flight decode). Transient open failures retry per
    /// the [`RetryPolicy`]; structural decode failures quarantine the
    /// dataset (see the module docs). Concurrent misses on the same
    /// dataset coalesce into exactly one decode.
    pub fn get(&self, name: &str) -> Result<(CachedShard, bool)> {
        if name.contains(['/', '\\']) || name.is_empty() {
            return Err(Error::InvalidRecord(format!("bad dataset name {name:?}")));
        }
        let idx = self.segment_index(name);
        let role = {
            let mut state = self.lock_segment(idx);
            state.tick += 1;
            let tick = state.tick;
            if let Some((shard, stamp)) = state.cache.get_mut(name) {
                *stamp = tick;
                self.hits.inc();
                self.segments[idx].hits.fetch_add(1, Ordering::Relaxed);
                return Ok((shard.clone(), true));
            }
            // Health gates, cheapest first: quarantine is permanent,
            // backoff holds until its deadline on the injected clock.
            match state.health.get(name) {
                Some(ShardHealth::Quarantined { reason }) => {
                    return Err(Error::InvalidRecord(format!(
                        "dataset {name:?} is quarantined after a decode failure: {reason}"
                    )));
                }
                Some(ShardHealth::Backoff { consecutive_failures, retry_at }) => {
                    let now = self.clock.now();
                    if now < *retry_at {
                        self.backoff_rejections.inc();
                        return Err(Error::InvalidRecord(format!(
                            "dataset {name:?} is backing off after {consecutive_failures} \
                             transient failure(s); retry at {retry_at:?} (now {now:?})"
                        )));
                    }
                }
                None => {}
            }
            match state.inflight.get(name) {
                Some(entry) => Role::Waiter(Arc::clone(entry)),
                None => {
                    let entry = Arc::new(InFlight::default());
                    state.inflight.insert(name.to_string(), Arc::clone(&entry));
                    Role::Leader(entry)
                }
            }
        };
        match role {
            Role::Waiter(entry) => {
                // Someone else is already decoding this dataset: park on
                // the in-flight entry and share its result — no second
                // decode, no copy.
                self.coalesced.inc();
                match entry.wait() {
                    Ok(shard) => {
                        // In serialized order this lookup would have
                        // found the cache populated, so it counts as a
                        // hit — keeping hits + misses == lookups.
                        self.hits.inc();
                        self.segments[idx].hits.fetch_add(1, Ordering::Relaxed);
                        Ok((shard, true))
                    }
                    Err(shared) => Err(copy_for_waiter(&shared)),
                }
            }
            Role::Leader(entry) => {
                let outcome = self.lead_open(idx, name);
                // Remove the in-flight entry *before* publishing the
                // outcome: requests arriving after a failure must start
                // a fresh attempt, not inherit a stale error.
                self.lock_segment(idx).inflight.remove(name);
                match outcome {
                    Ok(shard) => {
                        entry.complete(Ok(shard.clone()));
                        Ok((shard, false))
                    }
                    Err(e) => {
                        entry.complete(Err(Arc::new(copy_for_waiter(&e))));
                        Err(e)
                    }
                }
            }
        }
    }

    /// The leader's cold-open path: runs with **no segment lock held**
    /// (filesystem probes, decodes, and repairs must not block sibling
    /// lookups), re-acquiring the lock briefly for each state update.
    /// Only one leader per dataset exists at a time (the in-flight
    /// entry), so the brief lock windows cannot interleave with another
    /// writer of this dataset's health state.
    fn lead_open(&self, idx: usize, name: &str) -> Result<CachedShard> {
        // An unknown dataset is a client error, not a shard failure: it
        // must never create health state (a typo'd name is not a
        // quarantine candidate). A manifest-listed dataset whose file is
        // missing is *known* (and repairable), not unknown.
        let bamx_path = self.dir.join(format!("{name}.bamx"));
        let listed = self.repo.as_ref().is_some_and(|repo| {
            repo.manifest().is_ok_and(|m| m.entries.contains_key(&format!("{name}.bamx")))
        });
        if !bamx_path.is_file() && !listed {
            return Err(Error::InvalidRecord(format!(
                "unknown dataset {name:?} in {}",
                self.dir.display()
            )));
        }
        let attempts = self.policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.transient_retries.inc();
            }
            match self.open_verified(name, &bamx_path) {
                Ok(shard) => {
                    self.admit(idx, name, &shard);
                    return Ok(shard);
                }
                Err(e) if e.is_transient() => last_err = Some(e),
                Err(e) => {
                    // Structural: corrupt bytes cannot heal on their own.
                    // One self-heal attempt through the wired repairer;
                    // otherwise quarantine so later lookups fail fast
                    // instead of re-decoding.
                    match self.attempt_repair(idx, name, &bamx_path, e) {
                        Ok(shard) => {
                            self.admit(idx, name, &shard);
                            return Ok(shard);
                        }
                        Err(e) if e.is_transient() => {
                            // The repair touched a flaky disk: leave the
                            // dataset repairable and fall through to the
                            // normal backoff bookkeeping.
                            last_err = Some(e);
                            self.lock_segment(idx).repair_spent.remove(name);
                            break;
                        }
                        Err(e) => {
                            self.lock_segment(idx).health.insert(
                                name.to_string(),
                                ShardHealth::Quarantined { reason: e.to_string() },
                            );
                            self.quarantined.inc();
                            return Err(e);
                        }
                    }
                }
            }
        }
        // All attempts failed transiently: enter (or escalate) backoff.
        let mut state = self.lock_segment(idx);
        let failures = match state.health.get(name) {
            Some(ShardHealth::Backoff { consecutive_failures, .. }) => consecutive_failures + 1,
            _ => 1,
        };
        let retry_at = self.clock.now() + self.policy.backoff_after(failures);
        state
            .health
            .insert(name.to_string(), ShardHealth::Backoff { consecutive_failures: failures, retry_at });
        drop(state);
        Err(last_err.unwrap_or_else(|| {
            Error::InvalidRecord(format!("dataset {name:?} failed to open"))
        }))
    }

    /// Inserts a freshly opened shard, clearing failure bookkeeping and
    /// enforcing the global budget with per-segment victim selection.
    fn admit(&self, idx: usize, name: &str, shard: &CachedShard) {
        let seg = &self.segments[idx];
        let mut state = self.lock_segment(idx);
        state.health.remove(name);
        state.repair_spent.remove(name);
        self.misses.inc();
        seg.misses.fetch_add(1, Ordering::Relaxed);
        state.tick += 1;
        let tick = state.tick;
        if state.cache.insert(name.to_string(), (shard.clone(), tick)).is_none() {
            self.occupancy.fetch_add(1, Ordering::Relaxed);
        }
        // Evict this segment's LRU while the *global* budget is
        // exceeded. The freshest stamp belongs to the entry just
        // inserted, so the victim is never the new entry; a segment down
        // to one entry stops (bounded overage beats holding two segment
        // locks).
        while self.occupancy.load(Ordering::Relaxed) > self.capacity && state.cache.len() > 1 {
            if let Some(victim) = state
                .cache
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                state.cache.remove(&victim);
                self.occupancy.fetch_sub(1, Ordering::Relaxed);
                self.evictions.inc();
                seg.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
    }

    /// One open attempt. In a manifest-managed directory the admission
    /// gate runs first: both artifacts must verify (length, CRC32,
    /// layout fingerprint) against the manifest before any decode.
    fn open_verified(&self, name: &str, bamx_path: &Path) -> Result<CachedShard> {
        self.decodes.inc();
        if let Some(repo) = &self.repo {
            repo.verify_artifact(&format!("{name}.bamx"))?;
            repo.verify_artifact(&format!("{name}.baix"))?;
        }
        self.open_shard(bamx_path)
    }

    /// One self-heal attempt after the structural failure `cause`.
    /// Without a repairer — or when this dataset's one attempt is
    /// already spent — the cause passes straight through (the caller
    /// quarantines). The repairer runs with **no segment lock held**:
    /// the in-flight entry already guarantees at most one rebuild per
    /// dataset, and repairs of different datasets may proceed in
    /// parallel.
    fn attempt_repair(
        &self,
        idx: usize,
        name: &str,
        bamx_path: &Path,
        cause: Error,
    ) -> Result<CachedShard> {
        let Some(repairer) = &self.repairer else { return Err(cause) };
        if !self.lock_segment(idx).repair_spent.insert(name.to_string()) {
            return Err(cause);
        }
        self.repairs.inc();
        repairer(name)?;
        let shard = self.open_verified(name, bamx_path)?;
        self.repaired.inc();
        Ok(shard)
    }

    /// One open attempt: both the shard and its index, through the
    /// injected opener.
    fn open_shard(&self, bamx_path: &Path) -> Result<CachedShard> {
        let context = bamx_path.display().to_string();
        let source = (self.opener)(bamx_path)?;
        let bamx = Arc::new(BamxFile::open_with(source, &context)?);
        let baix_path = bamx_path.with_extension("baix");
        let baix_source = (self.opener)(&baix_path)?;
        let baix = Arc::new(Baix::load_with(&*baix_source, &baix_path.display().to_string())?);
        Ok(CachedShard { bamx, baix })
    }

    /// Whether `name` is permanently quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        let idx = self.segment_index(name);
        matches!(
            self.lock_segment(idx).health.get(name),
            Some(ShardHealth::Quarantined { .. })
        )
    }

    /// Names currently quarantined, sorted (walks every segment).
    pub fn quarantined_datasets(&self) -> Vec<String> {
        let mut names = Vec::new();
        for idx in 0..self.segments.len() {
            let state = self.lock_segment(idx);
            names.extend(
                state
                    .health
                    .iter()
                    .filter(|(_, h)| matches!(h, ShardHealth::Quarantined { .. }))
                    .map(|(k, _)| k.clone()),
            );
        }
        names.sort();
        names
    }

    /// Number of datasets currently open across all segments.
    pub fn cached(&self) -> usize {
        self.occupancy.load(Ordering::Relaxed)
    }

    /// Current cache and health counters (cross-segment totals — the
    /// only sanctioned way to read totals; never sum segment state under
    /// multiple locks).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            transient_retries: self.transient_retries.get(),
            quarantined: self.quarantined.get(),
            backoff_rejections: self.backoff_rejections.get(),
            repairs: self.repairs.get(),
            repaired: self.repaired.get(),
            decodes: self.decodes.get(),
            coalesced: self.coalesced.get(),
        }
    }
}

/// Rebuilds an owned copy of `e` for broadcasting to single-flight
/// waiters. [`Error`] is not `Clone` (it wraps `std::io::Error`), so
/// the copy reconstructs the variant — preserving the
/// [`Error::is_transient`] classification exactly, which is what the
/// retry/quarantine decisions of every consumer key on.
fn copy_for_waiter(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Decode(d) => {
            Error::decode(d.kind, d.offset, d.context.clone(), d.detail.clone())
        }
        e if e.is_transient() => Error::Io(std::io::Error::other(e.to_string())),
        e => Error::InvalidRecord(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use crate::clock::ManualClock;
    use crate::testutil::write_shard;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn discovery_lists_paired_shards_only() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "b", &[100, 200]);
        write_shard(dir.path(), "a", &[300]);
        // An orphan .bamx without .baix is not a dataset.
        std::fs::write(dir.path().join("orphan.bamx"), b"junk").unwrap();
        let store = ShardStore::open(dir.path(), 4).unwrap();
        assert_eq!(store.datasets().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn hit_and_miss_counters() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200, 300]);
        let store = ShardStore::open(dir.path(), 2).unwrap();
        let (_, hit) = store.get("d").unwrap();
        assert!(!hit);
        let (shard, hit) = store.get("d").unwrap();
        assert!(hit);
        assert_eq!(shard.bamx.len(), 3);
        assert_eq!(shard.baix.len(), 3);
        assert_eq!(
            store.counters(),
            CacheCounters { hits: 1, misses: 1, decodes: 1, ..CacheCounters::default() }
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let dir = tempfile::tempdir().unwrap();
        for name in ["a", "b", "c"] {
            write_shard(dir.path(), name, &[100]);
        }
        let store = ShardStore::open(dir.path(), 2).unwrap();
        store.get("a").unwrap();
        store.get("b").unwrap();
        store.get("a").unwrap(); // refresh a; b is now LRU
        store.get("c").unwrap(); // evicts b
        assert_eq!(store.cached(), 2);
        let (_, hit) = store.get("a").unwrap();
        assert!(hit, "refreshed entry must survive eviction");
        let (_, hit) = store.get("b").unwrap();
        assert!(!hit, "LRU entry must have been evicted");
        assert_eq!(store.counters().evictions, 2); // c's insert + b's re-insert
    }

    #[test]
    fn segment_counters_sum_to_global_totals() {
        let dir = tempfile::tempdir().unwrap();
        for name in ["a", "b", "c", "d"] {
            write_shard(dir.path(), name, &[100]);
        }
        let store = ShardStore::open(dir.path(), 2).unwrap().with_segments(4);
        assert_eq!(store.segment_count(), 4);
        for name in ["a", "b", "c", "d", "a", "b", "c", "d"] {
            let _ = store.get(name).unwrap();
        }
        let totals = store.counters();
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for idx in 0..store.segment_count() {
            let seg = store.segment_counters(idx);
            hits += seg.hits;
            misses += seg.misses;
            evictions += seg.evictions;
        }
        assert_eq!(hits, totals.hits);
        assert_eq!(misses, totals.misses);
        assert_eq!(evictions, totals.evictions);
        assert_eq!(hits + misses, 8, "every lookup is a hit or a miss");
        assert!(store.cached() <= 2 + 3, "budget 2, overage bounded by segments - 1");
    }

    #[test]
    fn segment_index_is_deterministic_and_in_range() {
        let dir = tempfile::tempdir().unwrap();
        let store = ShardStore::open(dir.path(), 2).unwrap().with_segments(4);
        for name in ["a", "b", "chr1-shard", "input"] {
            let idx = store.segment_index(name);
            assert!(idx < 4);
            assert_eq!(idx, store.segment_index(name), "stable per name");
        }
        // FNV-1a reference value: "a" hashes to 0xaf63dc4c8601ec8c.
        let one = ShardStore::open(dir.path(), 2).unwrap();
        assert_eq!(one.segment_index("anything"), 0, "single segment maps everything to 0");
    }

    #[test]
    fn errors_are_typed() {
        let dir = tempfile::tempdir().unwrap();
        assert!(ShardStore::open(dir.path().join("missing"), 1).is_err());
        let store = ShardStore::open(dir.path(), 1).unwrap();
        assert!(store.get("nope").is_err());
        assert!(store.get("../escape").is_err());
        assert!(store.get("").is_err());
    }

    /// An opener whose first `failures` calls fail with a retryable I/O
    /// error, counting every invocation.
    fn flaky_opener(failures: u32, calls: Arc<AtomicU32>) -> Box<SourceOpener> {
        let remaining = AtomicU32::new(failures);
        Box::new(move |path: &Path| -> std::io::Result<Box<dyn ReadAt>> {
            calls.fetch_add(1, Ordering::Relaxed);
            if remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(std::io::Error::other("injected transient open failure"));
            }
            Ok(Box::new(std::fs::File::open(path)?))
        })
    }

    #[test]
    fn transient_failures_retry_within_one_get() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200]);
        let calls = Arc::new(AtomicU32::new(0));
        let store = ShardStore::open_with(
            dir.path(),
            2,
            Arc::new(ManualClock::new()),
            RetryPolicy { attempts: 3, ..RetryPolicy::default() },
        )
        .unwrap()
        .with_opener(flaky_opener(2, calls.clone()));
        // Two transient failures, then success — all inside one get.
        let (shard, hit) = store.get("d").unwrap();
        assert!(!hit);
        assert_eq!(shard.bamx.len(), 2);
        let c = store.counters();
        assert_eq!(c.transient_retries, 2);
        assert_eq!(c.misses, 1);
        assert_eq!(c.decodes, 3, "each retry round is one decode attempt");
        assert_eq!(c.backoff_rejections, 0);
        assert_eq!(c.quarantined, 0);
        // 2 failed bamx opens + 1 good bamx + 1 good baix.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn exhausted_transient_attempts_back_off_with_doubling_cap() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100]);
        let clock = Arc::new(ManualClock::new());
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
        };
        let store = ShardStore::open_with(dir.path(), 2, clock.clone(), policy)
            .unwrap()
            .with_opener(flaky_opener(u32::MAX, calls.clone()));

        // Round 1: open fails, backoff = 10ms.
        let err = store.get("d").unwrap_err();
        assert!(err.is_transient(), "opener failure must surface as transient: {err}");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Inside the window: refused without touching the opener.
        assert!(store.get("d").is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(store.counters().backoff_rejections, 1);

        // Deadline passes: the opener is consulted again (round 2 → 20ms).
        clock.advance(Duration::from_millis(10));
        assert!(store.get("d").is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        clock.advance(Duration::from_millis(10)); // only 10 of 20ms elapsed
        assert!(store.get("d").is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(store.counters().backoff_rejections, 2);

        // Rounds 3 and 4: 40ms cap reached and held.
        clock.advance(Duration::from_millis(10));
        assert!(store.get("d").is_err()); // round 3 → 40ms
        clock.advance(Duration::from_millis(40));
        assert!(store.get("d").is_err()); // round 4 → still 40ms (cap)
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        clock.advance(Duration::from_millis(39));
        assert!(store.get("d").is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 4, "39 of 40ms: still backing off");
        assert_eq!(store.counters().quarantined, 0);
    }

    #[test]
    fn backoff_clears_on_recovery() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100, 200, 300]);
        let clock = Arc::new(ManualClock::new());
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        };
        let store = ShardStore::open_with(dir.path(), 2, clock.clone(), policy)
            .unwrap()
            .with_opener(flaky_opener(1, calls.clone()));
        assert!(store.get("d").is_err());
        clock.advance(Duration::from_millis(10));
        let (_, hit) = store.get("d").unwrap();
        assert!(!hit);
        // Cached now; and the health entry is gone, so a (hypothetical)
        // future miss starts from a clean slate.
        let (_, hit) = store.get("d").unwrap();
        assert!(hit);
        assert_eq!(store.counters().backoff_rejections, 0);
    }

    #[test]
    fn structural_decode_failure_quarantines_permanently() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "good", &[100, 200, 300, 400, 500, 600]);
        let good = std::fs::read(dir.path().join("good.bamx")).unwrap();
        let mut flipped = good.clone();
        flipped[12] ^= 0x7F; // inside the prologue
        // Corrupt shards: valid pairing on disk, damaged bytes inside —
        // garbage, a real shard cut at half its length, and a real shard
        // with a prologue byte flipped.
        let damaged: [(&str, &[u8]); 3] = [
            ("junk", b"BAMJUNKJUNKJUNKJUNKJUNKJUNKJUNK"),
            ("truncated", &good[..good.len() / 2]),
            ("flipped", &flipped),
        ];
        for (name, bytes) in damaged {
            std::fs::write(dir.path().join(format!("{name}.bamx")), bytes).unwrap();
            std::fs::copy(dir.path().join("good.baix"), dir.path().join(format!("{name}.baix")))
                .unwrap();
        }
        let calls = Arc::new(AtomicU32::new(0));
        let store = ShardStore::open_with(
            dir.path(),
            2,
            Arc::new(ManualClock::new()),
            RetryPolicy::default(),
        )
        .unwrap()
        .with_opener(flaky_opener(0, calls.clone()));

        for (i, (name, _)) in damaged.iter().enumerate() {
            let err = store.get(name).unwrap_err();
            assert!(!err.is_transient(), "{name}: damage must be structural: {err}");
            assert!(store.is_quarantined(name), "{name}");
            assert_eq!(store.counters().quarantined, i as u64 + 1);
            let opens_after_quarantine = calls.load(Ordering::Relaxed);

            // Quarantine is permanent and fail-fast: the opener is never
            // consulted again, no matter how much time passes.
            let err = store.get(name).unwrap_err();
            assert!(err.to_string().contains("quarantined"), "{name}: got {err}");
            assert_eq!(calls.load(Ordering::Relaxed), opens_after_quarantine);
            assert_eq!(store.counters().quarantined, i as u64 + 1, "counted once, not per lookup");
        }
        assert_eq!(store.quarantined_datasets(), vec!["flipped", "junk", "truncated"]);

        // Healthy datasets are unaffected.
        assert!(store.get("good").is_ok());
        assert_eq!(store.counters().transient_retries, 0);
    }

    /// Builds a manifest-managed shard directory: fixture files from
    /// `write_shard` published through a [`ShardRepo`]. Returns the
    /// published bytes of `NAME.bamx` and `NAME.baix`.
    fn write_managed_shard(dir: &Path, name: &str, starts: &[i64]) -> (Vec<u8>, Vec<u8>) {
        let scratch = tempfile::tempdir().unwrap();
        write_shard(scratch.path(), name, starts);
        let bamx = std::fs::read(scratch.path().join(format!("{name}.bamx"))).unwrap();
        let baix = std::fs::read(scratch.path().join(format!("{name}.baix"))).unwrap();
        let repo = ShardRepo::create(dir).unwrap();
        repo.publish_bytes(&format!("{name}.bamx"), &bamx).unwrap();
        repo.publish_bytes(&format!("{name}.baix"), &baix).unwrap();
        (bamx, baix)
    }

    #[test]
    fn managed_store_serves_verified_and_hides_unpublished() {
        let dir = tempfile::tempdir().unwrap();
        write_managed_shard(dir.path(), "pub", &[100, 200]);
        // A pair dropped into the directory without publication is
        // invisible: it never completed the temp→fsync→rename protocol.
        write_shard(dir.path(), "sneaky", &[300]);
        let store = ShardStore::open(dir.path(), 4).unwrap();
        assert!(store.is_managed());
        assert_eq!(store.datasets().unwrap(), vec!["pub"]);
        let (shard, _) = store.get("pub").unwrap();
        assert_eq!(shard.bamx.len(), 2);
    }

    #[test]
    fn managed_store_refuses_corrupt_shard_without_repairer() {
        let dir = tempfile::tempdir().unwrap();
        let (bamx, _) = write_managed_shard(dir.path(), "d", &[100, 200]);
        // Scribble the published BAMX behind the manifest's back.
        let mut bad = bamx.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(dir.path().join("d.bamx"), &bad).unwrap();

        let store = ShardStore::open(dir.path(), 4).unwrap();
        let err = store.get("d").unwrap_err();
        assert!(!err.is_transient(), "manifest mismatch must be structural: {err}");
        assert!(err.to_string().contains("CRC32"), "got: {err}");
        assert!(store.is_quarantined("d"));
        assert_eq!(store.counters().quarantined, 1);
    }

    #[test]
    fn repairer_heals_corrupt_shard_instead_of_quarantining() {
        let dir = tempfile::tempdir().unwrap();
        let (bamx, _) = write_managed_shard(dir.path(), "d", &[100, 200, 300]);
        let mut bad = bamx.clone();
        bad[bamx.len() / 2] ^= 0xFF;
        std::fs::write(dir.path().join("d.bamx"), &bad).unwrap();

        let repair_calls = Arc::new(AtomicU32::new(0));
        let (repo_dir, good, calls) =
            (dir.path().to_path_buf(), bamx.clone(), repair_calls.clone());
        let store = ShardStore::open(dir.path(), 4).unwrap().with_repairer(Box::new(
            move |name: &str| {
                calls.fetch_add(1, Ordering::Relaxed);
                let repo = ShardRepo::open(&repo_dir)?;
                repo.publish_bytes(&format!("{name}.bamx"), &good)?;
                Ok(())
            },
        ));
        let (shard, hit) = store.get("d").unwrap();
        assert!(!hit);
        assert_eq!(shard.bamx.len(), 3);
        assert!(!store.is_quarantined("d"));
        assert_eq!(repair_calls.load(Ordering::Relaxed), 1);
        let c = store.counters();
        assert_eq!((c.repairs, c.repaired, c.quarantined), (1, 1, 0));
        // Served from cache afterwards; the repairer is not consulted.
        let (_, hit) = store.get("d").unwrap();
        assert!(hit);
        assert_eq!(repair_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_repair_quarantines_and_is_not_retried() {
        let dir = tempfile::tempdir().unwrap();
        let (bamx, _) = write_managed_shard(dir.path(), "d", &[100]);
        let mut bad = bamx.clone();
        bad[bamx.len() / 2] ^= 0xFF;
        std::fs::write(dir.path().join("d.bamx"), &bad).unwrap();

        let repair_calls = Arc::new(AtomicU32::new(0));
        let calls = repair_calls.clone();
        // A repairer that "succeeds" without fixing anything: the reopen
        // still fails structurally, so the dataset quarantines.
        let store = ShardStore::open(dir.path(), 4)
            .unwrap()
            .with_repairer(Box::new(move |_name: &str| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }));
        assert!(store.get("d").is_err());
        assert!(store.is_quarantined("d"));
        assert!(store.get("d").is_err());
        assert_eq!(repair_calls.load(Ordering::Relaxed), 1, "quarantine is fail-fast");
        let c = store.counters();
        assert_eq!((c.repairs, c.repaired, c.quarantined), (1, 0, 1));
    }

    #[test]
    fn transient_repair_failure_feeds_backoff_not_quarantine() {
        // Regression: fsync/rename failures during repair surface as
        // `Error::Io` — transient — so the store backs off and retries
        // instead of permanently quarantining a healthy shard.
        let dir = tempfile::tempdir().unwrap();
        let (bamx, _) = write_managed_shard(dir.path(), "d", &[100, 200]);
        let mut bad = bamx.clone();
        bad[bamx.len() / 2] ^= 0xFF;
        std::fs::write(dir.path().join("d.bamx"), &bad).unwrap();

        let clock = Arc::new(ManualClock::new());
        let repair_calls = Arc::new(AtomicU32::new(0));
        let (repo_dir, good, calls) =
            (dir.path().to_path_buf(), bamx.clone(), repair_calls.clone());
        let policy = RetryPolicy {
            attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        };
        let store = ShardStore::open_with(dir.path(), 4, clock.clone(), policy)
            .unwrap()
            .with_repairer(Box::new(move |name: &str| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    // First attempt: the disk hiccups mid-repair, exactly
                    // like an fsync/rename failure inside ShardRepo.
                    return Err(Error::Io(std::io::Error::other("injected fsync failure")));
                }
                let repo = ShardRepo::open(&repo_dir)?;
                repo.publish_bytes(&format!("{name}.bamx"), &good)?;
                Ok(())
            }));

        let err = store.get("d").unwrap_err();
        assert!(err.is_transient(), "fsync failure must stay transient: {err}");
        assert!(!store.is_quarantined("d"), "transient repair error must not quarantine");
        // Backoff gates the next lookup, then the retry heals the shard.
        assert!(store.get("d").is_err());
        assert_eq!(store.counters().backoff_rejections, 1);
        clock.advance(Duration::from_millis(10));
        let (shard, _) = store.get("d").unwrap();
        assert_eq!(shard.bamx.len(), 2);
        assert_eq!(repair_calls.load(Ordering::Relaxed), 2);
        let c = store.counters();
        assert_eq!((c.repairs, c.repaired, c.quarantined), (2, 1, 0));
    }

    #[test]
    fn manifest_listed_but_missing_file_is_repairable_not_unknown() {
        let dir = tempfile::tempdir().unwrap();
        let (bamx, _) = write_managed_shard(dir.path(), "d", &[100]);
        std::fs::remove_file(dir.path().join("d.bamx")).unwrap();

        let (repo_dir, good) = (dir.path().to_path_buf(), bamx.clone());
        let store = ShardStore::open(dir.path(), 4).unwrap().with_repairer(Box::new(
            move |name: &str| {
                let repo = ShardRepo::open(&repo_dir)?;
                repo.publish_bytes(&format!("{name}.bamx"), &good)?;
                Ok(())
            },
        ));
        let (shard, _) = store.get("d").unwrap();
        assert_eq!(shard.bamx.len(), 1);
        assert_eq!(store.counters().repaired, 1);
    }

    #[test]
    fn unknown_dataset_never_creates_health_state() {
        let dir = tempfile::tempdir().unwrap();
        write_shard(dir.path(), "d", &[100]);
        let calls = Arc::new(AtomicU32::new(0));
        let store = ShardStore::open_with(
            dir.path(),
            2,
            Arc::new(ManualClock::new()),
            RetryPolicy::default(),
        )
        .unwrap()
        .with_opener(flaky_opener(0, calls.clone()));
        for _ in 0..3 {
            assert!(store.get("missing").is_err());
        }
        assert!(!store.is_quarantined("missing"));
        let c = store.counters();
        assert_eq!(c.quarantined, 0);
        assert_eq!(c.backoff_rejections, 0);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no open is ever attempted");
    }

    #[test]
    fn waiter_error_copies_preserve_classification() {
        let transient = Error::Io(std::io::Error::other("flaky"));
        assert!(copy_for_waiter(&transient).is_transient());
        let structural = Error::decode(
            ngs_formats::error::DecodeErrorKind::Corrupt,
            7,
            "shard",
            "bad bytes",
        );
        let copy = copy_for_waiter(&structural);
        assert!(!copy.is_transient());
        assert!(copy.to_string().contains("bad bytes"));
    }
}
