//! Request and response types of the query engine.

use std::path::PathBuf;
use std::time::Duration;

use ngs_converter::TargetFormat;

use crate::metrics::RequestMetrics;

/// Traffic class of a request — which admission queue it joins and with
/// what dequeue priority (DESIGN.md §13). Classes are strict-priority
/// with aging: `Interactive` is always dequeued before `Batch` unless a
/// batch job has waited past the engine's aging threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum QueryClass {
    /// Latency-sensitive foreground traffic (region queries a user is
    /// waiting on). Highest priority.
    #[default]
    Interactive,
    /// Throughput-oriented background traffic (bulk converts, analyze
    /// sweeps). Dequeued only when no interactive work is runnable,
    /// except via aging.
    Batch,
}

impl QueryClass {
    /// Number of traffic classes (sizes the per-class queue arrays).
    pub const COUNT: usize = 2;

    /// All classes in priority order (highest first).
    pub const ALL: [QueryClass; QueryClass::COUNT] = [QueryClass::Interactive, QueryClass::Batch];

    /// Dense index for per-class arrays; doubles as dequeue priority
    /// (lower = served first).
    pub fn index(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Batch => 1,
        }
    }

    /// Stable lowercase name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Batch => "batch",
        }
    }
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a request asks the engine to do with the located records.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Convert the region's records into `format`, writing the part
    /// file into `out_dir` (same naming and byte layout as a one-shot
    /// single-rank `BamConverter::convert_partial`).
    Convert {
        /// Target format of the conversion.
        format: TargetFormat,
        /// Directory receiving the output part file.
        out_dir: PathBuf,
    },
    /// Accumulate the region's records into a genome-wide coverage
    /// histogram (`ngs_stats::CoverageHistogram`) with `bin_size`-bp
    /// bins.
    Coverage {
        /// Histogram bin size in bp (the paper uses 25).
        bin_size: u32,
    },
}

/// One unit of work submitted to the engine.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Dataset name (the `NAME` of `NAME.bamx`/`NAME.baix` in the shard
    /// directory).
    pub dataset: String,
    /// Region text, e.g. `chr1:1,000-2,000` (anything `Region::parse`
    /// accepts; resolved against the dataset's header).
    pub region: String,
    /// The operation to perform.
    pub kind: QueryKind,
    /// Optional absolute deadline on the engine clock's axis. A request
    /// already past its deadline is shed at admission; one whose
    /// deadline passes while queued is shed at dequeue, before any
    /// decode work ([`QueryError::Shed`]). A request dequeued *exactly*
    /// at its deadline tick still executes (deadline-inclusive).
    pub deadline: Option<Duration>,
    /// Traffic class: which bounded queue the request joins and its
    /// dequeue priority.
    pub class: QueryClass,
}

/// Successful result of a request.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// Result of a [`QueryKind::Convert`] request.
    Converted {
        /// The part file written.
        output: PathBuf,
        /// Records read from the shard.
        records_in: u64,
        /// Target objects emitted.
        records_out: u64,
        /// Output bytes written.
        bytes_out: u64,
    },
    /// Result of a [`QueryKind::Coverage`] request.
    Coverage {
        /// Genome-wide coverage bins (ready for `ngs_stats` denoising
        /// or FDR).
        bins: Vec<f64>,
        /// Bin size used.
        bin_size: u32,
        /// Records accumulated.
        records: u64,
    },
}

/// Why a request was shed by load control (DESIGN.md §13). Shedding is
/// always *before* decode work — a shed request never touches the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline had already passed at admission time.
    Expired,
    /// The deadline passed while the request waited in its class queue
    /// (lazy expiry, detected at dequeue).
    ExpiredInQueue,
    /// The per-shard in-admission cap was reached: this dataset already
    /// holds its maximum share of queue slots (hot-key fairness).
    HotShard,
}

impl ShedReason {
    /// Stable lowercase name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Expired => "expired",
            ShedReason::ExpiredInQueue => "expired_in_queue",
            ShedReason::HotShard => "hot_shard",
        }
    }
}

/// Typed failure modes of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The class's admission queue was full; the request was rejected
    /// without blocking and without queueing. Retryable by the client
    /// after `retry_after` (derived from current queue depth) — never a
    /// reason to quarantine anything.
    Overloaded {
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
    /// The request was shed by load control before any decode work:
    /// expired deadline (at admission or in queue) or hot-shard
    /// fairness. Retryable by the client — distinct from `Overloaded`
    /// (the queue may have had room) and from `Failed` (nothing is
    /// wrong with the request or the shard).
    Shed {
        /// Why the request was shed.
        reason: ShedReason,
        /// Suggested client back-off before resubmitting (for expired
        /// deadlines: resubmit with a fresh deadline).
        retry_after: Duration,
    },
    /// The engine is draining (or has drained); no new work is accepted
    /// and pending replies may be dropped.
    ShuttingDown,
    /// Execution failed (unknown dataset, bad region, I/O, ...).
    Failed(String),
    /// The request itself is out of domain (a zero coverage bin size);
    /// rejected at submit, before admission, so it never reaches a
    /// worker.
    Invalid(String),
}

impl QueryError {
    /// The machine-readable back-off hint, when this error carries one
    /// (`Overloaded` and `Shed` do; failures do not).
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            QueryError::Overloaded { retry_after } | QueryError::Shed { retry_after, .. } => {
                Some(*retry_after)
            }
            _ => None,
        }
    }

    /// Whether a client may retry this request as-is (possibly with a
    /// fresh deadline). Load-control outcomes are retryable;
    /// `Failed` and `Invalid` are not (the request or shard is the
    /// problem) and
    /// `ShuttingDown` needs a different server, not a retry here.
    pub fn is_retryable(&self) -> bool {
        matches!(self, QueryError::Overloaded { .. } | QueryError::Shed { .. })
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Overloaded { retry_after } => {
                write!(f, "query queue full (overloaded); retry after {retry_after:?}")
            }
            QueryError::Shed { reason, retry_after } => {
                write!(f, "query shed ({}); retry after {retry_after:?}", reason.name())
            }
            QueryError::ShuttingDown => write!(f, "query engine shutting down"),
            QueryError::Failed(msg) => write!(f, "query failed: {msg}"),
            QueryError::Invalid(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Everything the engine says about one finished request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result, or why there is none.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// Per-request timing and cache measurements.
    pub metrics: RequestMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_variant() {
        let over = QueryError::Overloaded { retry_after: Duration::from_millis(2) };
        assert!(over.to_string().contains("full"));
        assert!(QueryError::ShuttingDown.to_string().contains("shutting down"));
        let shed = QueryError::Shed {
            reason: ShedReason::ExpiredInQueue,
            retry_after: Duration::from_millis(1),
        };
        assert!(shed.to_string().contains("expired_in_queue"));
        assert!(QueryError::Failed("boom".into()).to_string().contains("boom"));
        assert!(QueryError::Invalid("bin".into()).to_string().contains("invalid query: bin"));
    }

    #[test]
    fn retry_hints_and_classification() {
        let over = QueryError::Overloaded { retry_after: Duration::from_millis(2) };
        assert_eq!(over.retry_after(), Some(Duration::from_millis(2)));
        assert!(over.is_retryable());
        let shed =
            QueryError::Shed { reason: ShedReason::HotShard, retry_after: Duration::from_micros(7) };
        assert_eq!(shed.retry_after(), Some(Duration::from_micros(7)));
        assert!(shed.is_retryable());
        assert_eq!(QueryError::ShuttingDown.retry_after(), None);
        assert!(!QueryError::ShuttingDown.is_retryable());
        assert!(!QueryError::Failed("x".into()).is_retryable());
        assert!(!QueryError::Invalid("x".into()).is_retryable());
    }

    #[test]
    fn classes_are_priority_ordered() {
        assert_eq!(QueryClass::Interactive.index(), 0);
        assert_eq!(QueryClass::Batch.index(), 1);
        assert_eq!(QueryClass::ALL.len(), QueryClass::COUNT);
        assert_eq!(QueryClass::Interactive.to_string(), "interactive");
        assert_eq!(QueryClass::default(), QueryClass::Interactive);
    }
}
