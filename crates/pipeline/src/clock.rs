//! Injected time sources shared by the long-lived subsystems.
//!
//! The canonical [`Clock`] / [`ManualClock`] / [`SystemClock`] live in
//! `ngs_obs::clock` (the observability crate sits below every
//! instrumented subsystem); this module re-exports them so
//! `ngs_pipeline::clock` paths, like `ngs_query::clock`, stay on the one
//! shared time axis. Don't fork a second one.

pub use ngs_obs::clock::{Clock, ManualClock, SystemClock};
