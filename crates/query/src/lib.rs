//! # ngs-query
//!
//! A long-lived concurrent region-query engine over preprocessed
//! BAMX/BAIX shards — the serving-side complement to the paper's batch
//! partial conversion (Section III-B). Where `BamConverter::convert_partial`
//! pays shard-open and index-load costs on every call, this engine keeps
//! datasets open in a capacity-bounded LRU [`ShardStore`] and answers a
//! stream of region requests from a bounded worker pool:
//!
//! * **Class-aware admission control** — bounded *per-class* queues
//!   (interactive, batch) with strict-priority + aging dequeue; a full
//!   class queue rejects with the typed [`QueryError::Overloaded`]
//!   (carrying a `retry_after` hint) instead of blocking the caller,
//!   and a per-shard admission cap sheds hot-key monopolists
//!   (DESIGN.md §13).
//! * **Deadline-aware shedding** — each request may carry an absolute
//!   deadline on the engine's injected [`Clock`]; expired requests are
//!   shed with [`QueryError::Shed`] at admission or at dequeue, always
//!   *before* any decode work. Injecting a [`ManualClock`] makes
//!   deadline tests deterministic.
//! * **Overload tooling** — a deterministic open-loop load-plan
//!   generator ([`load`]) and a client-side retry budget ([`retry`])
//!   bound measurement and retry amplification under sustained
//!   overload.
//! * **Concurrent hot path** — the store's cache is sharded into
//!   independently-locked segments, concurrent misses on one dataset
//!   coalesce into a single decode (single-flight), responses are
//!   zero-copy `Arc` clones of the cached block, and workers batch
//!   queued requests per wakeup (DESIGN.md §11).
//! * **Two request kinds** — region→format conversion (byte-identical
//!   to single-rank `convert_partial`, sharing its code path) and
//!   region coverage histograms feeding `ngs-stats`.
//! * **Metrics** — every finished request lands in a ledger (queue
//!   wait, service time, cache hit, bytes out) aggregated into a
//!   [`QueryStats`] snapshot.
//! * **Fault tolerance** — transient shard-open failures retry with a
//!   capped, clock-driven backoff ([`RetryPolicy`]); structurally
//!   corrupt shards are quarantined so they fail fast instead of being
//!   hot-retried on every request. Both surface in [`QueryStats`], and
//!   the store's opener seam ([`ShardStore::with_opener`]) lets tests
//!   (`tests/query_engine.rs`, `tests/overload.rs`) inject `ngs-fault`
//!   wrappers.
//! * **Graceful drain** — [`QueryEngine::drain`] stops admission,
//!   finishes all queued work, joins the workers, and returns the final
//!   statistics.
//!
//! Entry points: [`QueryEngine`] directly, `Framework::query_engine()`
//! in `ngs-core`, or the `ngsp query` batch subcommand.

pub mod clock;
pub mod engine;
pub mod load;
pub mod metrics;
pub mod request;
pub mod retry;
pub mod store;

#[cfg(test)]
pub(crate) mod testutil;

pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{EngineConfig, QueryEngine, Ticket};
pub use load::{generate as generate_load, Arrival, LoadProfile, TrafficKind};
pub use metrics::{QueryStats, RequestMetrics};
pub use request::{
    QueryClass, QueryError, QueryKind, QueryOutcome, QueryRequest, QueryResponse, ShedReason,
};
pub use retry::{RetryBudget, RetryBudgetConfig};
pub use store::{
    CacheCounters, CachedShard, Repairer, RetryPolicy, SegmentCounters, ShardStore, SourceOpener,
};
