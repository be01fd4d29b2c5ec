//! Minimal in-tree `criterion` shim.
//!
//! The build environment cannot fetch crates.io (see DESIGN.md §4), so
//! this crate keeps the workspace's `[[bench]]` targets compiling and
//! running with the criterion API subset they use: `criterion_group!`/
//! `criterion_main!`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, and `Bencher::iter`/`iter_custom`.
//! Timing is a plain median of samples (wall clock, or the routine's own
//! figure under `iter_custom`) printed to stdout — no statistics engine,
//! plots, or HTML reports.

use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value (best-effort).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level bench context, one per `criterion_group!`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            _parent: std::marker::PhantomData,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples: Vec::new(),
        };
        f(&mut b);
        b.report("", id);
        self
    }
}

/// Identifies one benchmark within a group (`name/param`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new<P: std::fmt::Display>(name: &str, parameter: P) -> Self {
        BenchmarkId { id: format!("{name}/{parameter}") }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// A named collection of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up time before sampling starts.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = self.bencher();
        f(&mut b);
        b.report(&self.name, &id.id);
        self
    }

    /// Benchmarks `f` against a borrowed input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = self.bencher();
        f(&mut b, input);
        b.report(&self.name, &id.id);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn bencher(&self) -> Bencher {
        Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples: Vec::new(),
        }
    }
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, collecting `sample_size` samples (or as many as
    /// fit in the measurement-time budget, minimum one).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run untimed until the warm-up budget is spent.
        let warm_deadline = Instant::now() + self.warm_up_time;
        loop {
            black_box(routine());
            if Instant::now() >= warm_deadline {
                break;
            }
        }
        let budget = Instant::now() + self.measurement_time;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if Instant::now() >= budget {
                break;
            }
        }
    }

    /// Like [`Bencher::iter`], but `routine(iters)` runs the work
    /// `iters` times and returns the time to record for them.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        let warm_deadline = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_deadline {
            black_box(routine(1));
        }
        let budget = Instant::now() + self.measurement_time;
        self.samples.clear();
        for _ in 0..self.sample_size {
            self.samples.push(routine(1));
            if Instant::now() >= budget {
                break;
            }
        }
    }

    fn report(&self, group: &str, id: &str) {
        let label =
            if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
        if self.samples.is_empty() {
            println!("{label:<40} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        println!(
            "{label:<40} median {median:>12.3?}  min {min:>12.3?}  max {max:>12.3?}  ({} samples)",
            sorted.len()
        );
    }
}

/// Declares a bench group function compatible with criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench -- <filter>` passes args; this shim runs
            // everything regardless (filtering is not supported).
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) -> &mut Criterion {
        c.sample_size = 3;
        c.measurement_time = Duration::from_millis(10);
        c.warm_up_time = Duration::from_millis(1);
        c
    }

    #[test]
    fn bench_group_runs_routines() {
        let mut c = Criterion::default();
        let c = quick(&mut c);
        let mut calls = 0u32;
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(2).measurement_time(Duration::from_millis(5));
            g.warm_up_time(Duration::from_millis(1));
            g.bench_with_input(BenchmarkId::new("x", 1), &41u32, |b, &n| {
                b.iter(|| {
                    calls += 1;
                    n + 1
                })
            });
            g.finish();
        }
        assert!(calls >= 2);
    }

    #[test]
    fn iter_custom_records_the_returned_time() {
        let mut c = Criterion::default();
        let c = quick(&mut c);
        let mut g = c.benchmark_group("t");
        g.bench_function("custom", |b| {
            b.iter_custom(Duration::from_millis);
            assert!(!b.samples.is_empty());
            assert!(b.samples.iter().all(|&s| s == Duration::from_millis(1)));
        });
    }

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        quick(&mut c).bench_function("f", |b| b.iter(|| black_box(2 + 2)));
    }
}
