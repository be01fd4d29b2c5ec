//! Rank spawning: run one closure per rank on its own OS thread and
//! collect results in rank order, like `mpirun` for a single binary.

use std::time::{Duration, Instant};

use crate::comm::Communicator;

/// Runs `f(comm)` on `n` ranks (threads) and returns results in rank
/// order. Panics in any rank propagate after every rank is joined.
pub fn run_ranks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Communicator) -> R + Sync,
{
    let comms = Communicator::create_world(n);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| scope.spawn(|| f(comm)))
            .collect();
        for (slot, handle) in results.iter_mut().zip(handles) {
            match handle.join() {
                Ok(v) => *slot = Some(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.into_iter().map(|r| r.expect("every rank joined")).collect()
}

/// Timing of one [`time_ranks`] run.
#[derive(Debug, Clone, Default)]
pub struct RankTimes {
    /// Wall time from spawning the first rank to joining the last.
    pub wall: Duration,
    /// Each rank's on-CPU time, in rank order: what the rank's work
    /// would take on a core of its own. Time blocked in `recv`,
    /// `barrier` or I/O, and time spent waiting for a core, is not in
    /// it (wall time stands in on hosts without a thread CPU clock).
    pub busy: Vec<Duration>,
}

impl RankTimes {
    /// The simulated-cluster makespan: the largest per-rank busy time.
    pub fn makespan(&self) -> Duration {
        self.busy.iter().max().copied().unwrap_or_default()
    }
}

/// [`run_ranks`], also returning the run's [`RankTimes`].
pub fn time_ranks<R, F>(n: usize, f: F) -> (Vec<R>, RankTimes)
where
    R: Send,
    F: Fn(&Communicator) -> R + Sync,
{
    let start = Instant::now();
    let timed = run_ranks(n, |comm| {
        let busy_start = thread_cpu_time();
        let result = f(comm);
        (result, thread_cpu_time().saturating_sub(busy_start))
    });
    let wall = start.elapsed();
    let (results, busy) = timed.into_iter().unzip();
    (results, RankTimes { wall, busy })
}

/// Wall time since the calling thread first asked: the stand-in for a
/// thread CPU clock, faithful only with a core per rank.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Duration {
    thread_local!(static ORIGIN: Instant = Instant::now());
    ORIGIN.with(Instant::elapsed)
}

/// CPU time the calling thread has consumed. `/proc/thread-self/schedstat`
/// is no substitute: a thread reading its own lags by up to a scheduler
/// tick.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Duration {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always readable on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLACK: Duration = Duration::from_millis(1);

    fn spin(d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn results_in_rank_order() {
        let results = run_ranks(16, |c| c.rank() * 10);
        assert_eq!(results, (0..16).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ranks_reports_duration() {
        let (results, times) = time_ranks(4, |c| {
            std::thread::sleep(Duration::from_millis(10));
            c.rank()
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
        assert_eq!(times.busy.len(), 4);
        assert!(times.wall >= Duration::from_millis(10));
        // No upper bound: wall-clock assertions are flaky on loaded CI
        // hosts; concurrency is covered by the communicator tests.
    }

    #[test]
    fn spinning_counts_and_sleeping_does_not() {
        // A spin can lose its core to other work on a loaded host, so
        // it gets a few tries to show its CPU time; the sleep never may.
        let spun = (0..5)
            .map(|_| time_ranks(1, |_| spin(Duration::from_millis(20))).1.makespan())
            .find(|&busy| busy >= Duration::from_millis(15));
        assert!(spun.is_some(), "a 20 ms spin never read 15 ms busy");
        let (_, slept) = time_ranks(1, |_| std::thread::sleep(Duration::from_millis(20)));
        assert!(slept.makespan() < Duration::from_millis(5), "{slept:?}");
    }

    #[test]
    fn busy_never_exceeds_wall() {
        let (_, times) = time_ranks(4, |c| spin(Duration::from_millis(5 * (c.rank() as u64 + 1))));
        for (rank, &busy) in times.busy.iter().enumerate() {
            assert!(busy <= times.wall + SLACK, "rank {rank}: {busy:?} > {:?}", times.wall);
        }
    }

    #[test]
    fn blocked_recv_is_not_busy() {
        let (_, times) = time_ranks(2, |c| {
            if c.rank() == 0 {
                spin(Duration::from_millis(20));
                c.send_u64(1, 7, 1);
            } else {
                c.recv_u64(0, 7);
            }
        });
        assert!(times.busy[1] < Duration::from_millis(5), "{times:?}");
    }

    #[test]
    #[should_panic(expected = "rank failure")]
    fn panics_propagate() {
        run_ranks(3, |c| {
            if c.rank() == 1 {
                panic!("rank failure");
            }
        });
    }
}
