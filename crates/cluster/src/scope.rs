//! Rank spawning: run one closure per rank on its own OS thread and
//! collect results in rank order, like `mpirun` for a single binary.

use std::time::{Duration, Instant};

use ngs_formats::error::Result;

use crate::comm::Communicator;
use crate::mailbox::PeerLeft;

/// Runs `f(comm)` on `n` ranks (threads) and returns results in rank
/// order. Each rank's [`Communicator`] drops when its closure returns or
/// unwinds, so a rank that fails ends the world for its peers instead of
/// leaving them blocked: their receives from it fail. A panic in any
/// rank propagates after every rank is joined; rank closures should pass
/// transport errors up with `?`, so the panic re-raised is the one that
/// caused the failure, not a peer's panic on its follow-on error.
pub fn run_ranks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Communicator) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = Communicator::create_world(n)
            .into_iter()
            .map(|comm| scope.spawn(move || f(&comm)))
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
    })
}

/// The results of one rank world, or the error that ended it: the
/// first error in rank order that is not a receive from a peer that
/// left, since those only follow a failure elsewhere. If every error is
/// of that kind, the first of them.
pub fn first_cause<T>(results: Vec<Result<T>>) -> Result<Vec<T>> {
    let mut follow_on = None;
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(value) => out.push(value),
            Err(e) if !PeerLeft::is(&e) => return Err(e),
            Err(e) => {
                follow_on.get_or_insert(e);
            }
        }
    }
    follow_on.map_or(Ok(out), Err)
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
    use crate::Transport;

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
                c.send_u64(1, 7, 1).unwrap();
            } else {
                c.recv_u64(0, 7).unwrap();
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

    #[test]
    #[should_panic(expected = "boom")]
    fn the_failing_ranks_panic_is_reraised_not_a_peers() {
        let _: Vec<Result<u64>> = run_ranks(3, |c| {
            if c.rank() == 2 {
                panic!("boom");
            }
            // Rank 2 never contributes; its departure fails this wait.
            c.all_reduce_sum_u64(1, 1)
        });
    }

    #[test]
    fn first_cause_skips_follow_on_departures() {
        let cause = ngs_formats::error::Error::InvalidRecord("cause".into());
        let err = first_cause(vec![Ok(1), Err(PeerLeft::error(2)), Err(cause)]).unwrap_err();
        assert_eq!(err.to_string(), "invalid record: cause");
        let err = first_cause::<u8>(vec![Err(PeerLeft::error(1)), Err(PeerLeft::error(0))]);
        let err = err.unwrap_err();
        assert_eq!(err.to_string(), "I/O error: rank 1 disconnected");
        assert_eq!(first_cause(vec![Ok(1), Ok(2)]).unwrap(), vec![1, 2]);
    }
}
