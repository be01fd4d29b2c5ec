//! Injected time sources for the query engine.
//!
//! The engine never reads wall time directly: every timestamp (queue
//! wait, service time, deadlines) goes through the [`Clock`] trait, so
//! production uses a monotonic [`SystemClock`] while tests drive a
//! [`ManualClock`] by hand — keeping deadline behaviour fully
//! deterministic, as CLAUDE.md requires of all tests.
//!
//! The trait's canonical home is [`ngs_obs::clock`]; this module
//! re-exports it so the query engine shares one time axis with every
//! other instrumented subsystem.

pub use ngs_obs::clock::{Clock, ManualClock, SystemClock};
