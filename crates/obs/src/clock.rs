//! Injected time sources shared by every long-lived subsystem.
//!
//! No instrumented subsystem ever reads wall time directly: every
//! timestamp (stage busy time, stall time, queue waits, deadlines, span
//! durations) goes through the [`Clock`] trait, so production uses a
//! monotonic [`SystemClock`] while tests drive a [`ManualClock`] by hand
//! — keeping all timing-dependent behaviour fully deterministic, as
//! CLAUDE.md requires of all tests. This module is the canonical home of
//! the trait; `ngs-pipeline` (the engine `ngs-collate` runs on) and
//! `ngs-query` re-export it so all crates share one time axis.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source. Time is a [`Duration`] since the clock's
/// epoch (creation for [`SystemClock`], zero for [`ManualClock`]);
/// deadlines are absolute instants on the same axis.
pub trait Clock: Send + Sync {
    /// Current time since the clock's epoch.
    fn now(&self) -> Duration;
}

/// Real monotonic clock backed by [`Instant`]; the epoch is the moment
/// the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Hand-advanced clock for deterministic tests: time moves only when
/// [`ManualClock::advance`] or [`ManualClock::set`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at its epoch (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `by`.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Jumps to an absolute time since the epoch.
    pub fn set(&self, to: Duration) {
        self.nanos.store(to.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(500));
        c.set(Duration::from_secs(2));
        assert_eq!(c.now(), Duration::from_secs(2));
    }
}
