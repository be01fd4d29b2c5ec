//! # ngs-obs
//!
//! The unified observability layer (DESIGN.md §9): one lock-free metrics
//! registry plus a bounded span tracer, shared by every hot subsystem —
//! the query engine, the streaming pipeline, the shard store, the shard
//! repository, and the BGZF codec all publish here instead of keeping
//! ad-hoc counter structs.
//!
//! * [`registry`] — named [`Counter`]s, [`Gauge`]s (sticky `fetch_max`
//!   peaks), and log2-bucket [`Histogram`]s with p50/p95/p99 estimates;
//!   snapshots are name-ordered and byte-deterministic, and merge
//!   associatively/commutatively.
//! * [`trace`] — a fixed-capacity ring of span events (`span!`-style
//!   guards recording stage, shard, duration, outcome) on the injected
//!   [`Clock`]; surfaced by `ngsp ... --trace FILE`.
//! * [`clock`] — the canonical `Clock` / `ManualClock` / `SystemClock`;
//!   `ngs-pipeline` (under `ngs-collate`) and `ngs-query` re-export
//!   these, so there is exactly one time axis in the workspace.
//! * [`global`] — the process-wide registry the `ngsp stats` command
//!   reports; [`set_enabled`] lets benchmarks compare instrumented
//!   against uninstrumented runs without rebuilding.
//! * [`helper`] — helper threads counted in the global
//!   [`UNJOINED_HELPERS`] gauge from spawn until joined.
//!
//! Determinism contract: with a `ManualClock` and a fixed update
//! sequence, [`Registry::snapshot`] (and its text/JSON renderings) and
//! [`Tracer::render_jsonl`] are byte-identical across runs.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod clock;
pub mod helper;
pub mod hist;
pub mod registry;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use clock::{Clock, ManualClock, SystemClock};
pub use helper::{Helper, UNJOINED_HELPERS};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, GaugeSnapshot, Registry, RegistrySnapshot};
pub use trace::{Span, TraceEvent, Tracer};

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide registry. Subsystems without an injected registry
/// (the BGZF codec, CLI-driven runs) publish here; `ngsp stats` renders
/// it. Tests that assert exact values should use their own [`Registry`]
/// instead — the global one aggregates the whole process.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether global-registry publication is enabled (it is by default).
/// Hot paths check this before touching their handles, so `repro obs`
/// can measure instrumented vs uninstrumented runs in one process.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global-registry publication on or off (see [`enabled`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_gated() {
        global().counter("test.lib.counter").add(2);
        assert_eq!(global().counter("test.lib.counter").get(), 2);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
