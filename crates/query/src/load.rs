//! Deterministic **open-loop** load plans (DESIGN.md §13).
//!
//! A closed-loop driver (submit, wait, submit) self-throttles: when the
//! server slows down, so does the offered load, and overload can never
//! be observed. An *open-loop* plan fixes every request's arrival time
//! up front — a pure function of the seed and profile, independent of
//! service rate — so offered load keeps arriving at the configured rate
//! whether or not the engine keeps up. That is the regime where
//! shedding, priorities, and retry budgets earn their keep.
//!
//! This module is **pure planning**: [`generate`] maps a
//! [`LoadProfile`] to a `Vec<Arrival>` using an in-module seeded LCG —
//! no clock, no I/O, no engine. Drivers decide how to realize the
//! timeline: `repro load` paces it in real time against a live engine.

use std::path::Path;
use std::time::Duration;

use ngs_converter::TargetFormat;

use crate::request::{QueryClass, QueryKind, QueryRequest};

/// Mixed traffic kinds of the generator, mirroring the serving tier's
/// real workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Interactive region query: a small window converted for a waiting
    /// user.
    Query,
    /// Bulk conversion: a batch-class window conversion.
    Convert,
    /// Analysis: a batch-class coverage-histogram accumulation.
    Analyze,
}

/// The knobs of a deterministic open-loop plan.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Seed of the arrival process; same seed + same profile = the same
    /// plan, byte for byte.
    pub seed: u64,
    /// Requests in the plan.
    pub requests: usize,
    /// Offered load in requests/second: arrival `i` is due at
    /// `i / rate` (plus deterministic sub-period jitter from the seed).
    pub rate_per_sec: f64,
    /// Datasets the plan draws from (indices `0..datasets`).
    pub datasets: usize,
    /// Region windows per dataset (indices `0..windows`).
    pub windows: usize,
    /// Percent of requests aimed at the hot key (dataset 0, windows
    /// 0..2) — the skew knob. 0 = uniform.
    pub hot_pct: u8,
    /// Percent of requests in the interactive class ([`TrafficKind::Query`]).
    pub interactive_pct: u8,
    /// Of the batch remainder, percent that are [`TrafficKind::Analyze`]
    /// (coverage) rather than [`TrafficKind::Convert`].
    pub analyze_pct: u8,
    /// Relative deadline given to interactive requests (absolute
    /// deadline = submit time + this). `None` = no deadline.
    pub interactive_deadline: Option<Duration>,
    /// Relative deadline given to batch requests.
    pub batch_deadline: Option<Duration>,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            seed: 0x10AD_10AD,
            requests: 1024,
            rate_per_sec: 1000.0,
            datasets: 4,
            windows: 8,
            hot_pct: 60,
            interactive_pct: 70,
            analyze_pct: 25,
            interactive_deadline: Some(Duration::from_millis(50)),
            batch_deadline: Some(Duration::from_secs(2)),
        }
    }
}

/// One planned request: *when* it arrives and *what* it asks for.
/// Dataset/window are indices so the plan stays independent of any
/// particular shard directory; [`Arrival::to_request`] materializes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival offset from plan start.
    pub at: Duration,
    /// Traffic kind (decides class and request kind).
    pub kind: TrafficKind,
    /// Dataset index in `0..profile.datasets`.
    pub dataset: usize,
    /// Window index in `0..profile.windows`.
    pub window: usize,
    /// Relative deadline (absolute = submit time + this).
    pub deadline: Option<Duration>,
}

impl Arrival {
    /// The traffic class this arrival submits under.
    pub fn class(&self) -> QueryClass {
        match self.kind {
            TrafficKind::Query => QueryClass::Interactive,
            TrafficKind::Convert | TrafficKind::Analyze => QueryClass::Batch,
        }
    }

    /// Materializes the arrival against concrete dataset names and
    /// region windows. `tag` uniquifies conversion output directories
    /// (identical requests must not race on one part file); the
    /// absolute `deadline` is the caller's to compute (submit-time
    /// clock + `self.deadline`).
    pub fn to_request(
        &self,
        names: &[String],
        regions: &[String],
        out_root: &Path,
        tag: usize,
        deadline: Option<Duration>,
    ) -> QueryRequest {
        QueryRequest {
            dataset: names[self.dataset % names.len()].clone(),
            region: regions[self.window % regions.len()].clone(),
            kind: match self.kind {
                TrafficKind::Analyze => QueryKind::Coverage { bin_size: 200 },
                TrafficKind::Query | TrafficKind::Convert => QueryKind::Convert {
                    format: TargetFormat::Bed,
                    out_dir: out_root.join(tag.to_string()),
                },
            },
            deadline,
            class: self.class(),
        }
    }
}

/// The seeded LCG behind the plan (Knuth's MMIX multiplier and
/// increment).
struct Lcg(u64);

impl Lcg {
    fn roll(&mut self, m: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % m.max(1)
    }
}

/// Generates the plan: a pure function of the profile (no clock, RNG
/// state, or I/O). Arrivals are in nondecreasing `at` order.
pub fn generate(profile: &LoadProfile) -> Vec<Arrival> {
    let mut lcg = Lcg(profile.seed | 1);
    let period_ns = if profile.rate_per_sec > 0.0 {
        (1.0e9 / profile.rate_per_sec) as u64
    } else {
        0
    };
    (0..profile.requests)
        .map(|i| {
            // Base spacing is exact (i × period); jitter shifts each
            // arrival within its own period so bursts exist but order
            // is preserved.
            let jitter = if period_ns > 0 { lcg.roll(period_ns) } else { 0 };
            let at = Duration::from_nanos((i as u64).saturating_mul(period_ns) + jitter);
            let kind = if lcg.roll(100) < u64::from(profile.interactive_pct) {
                TrafficKind::Query
            } else if lcg.roll(100) < u64::from(profile.analyze_pct) {
                TrafficKind::Analyze
            } else {
                TrafficKind::Convert
            };
            let (dataset, window) = if lcg.roll(100) < u64::from(profile.hot_pct) {
                (0, lcg.roll(2.min(profile.windows as u64)) as usize)
            } else {
                (
                    lcg.roll(profile.datasets as u64) as usize,
                    lcg.roll(profile.windows as u64) as usize,
                )
            };
            let deadline = match kind {
                TrafficKind::Query => profile.interactive_deadline,
                TrafficKind::Convert | TrafficKind::Analyze => profile.batch_deadline,
            };
            Arrival { at, kind, dataset, window, deadline }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let profile = LoadProfile { requests: 256, ..Default::default() };
        let a = generate(&profile);
        let b = generate(&profile);
        assert_eq!(a, b, "same seed must reproduce the plan exactly");
        let c = generate(&LoadProfile { seed: 7, ..profile.clone() });
        assert_ne!(a, c, "a different seed must change the plan");
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn arrivals_are_open_loop_and_ordered() {
        let profile =
            LoadProfile { requests: 500, rate_per_sec: 10_000.0, ..Default::default() };
        let plan = generate(&profile);
        // Nondecreasing arrival times, paced by the offered rate (the
        // whole point of open-loop: times fixed before any service).
        for w in plan.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let span = plan.last().unwrap().at;
        let expected = Duration::from_secs_f64(499.0 / 10_000.0);
        assert!(span >= expected && span < expected + Duration::from_millis(1));
    }

    #[test]
    fn mix_and_skew_follow_the_profile() {
        let profile = LoadProfile {
            requests: 4000,
            hot_pct: 60,
            interactive_pct: 70,
            ..Default::default()
        };
        let plan = generate(&profile);
        let interactive =
            plan.iter().filter(|a| a.class() == QueryClass::Interactive).count();
        let hot = plan.iter().filter(|a| a.dataset == 0 && a.window < 2).count();
        // Deterministic plan, statistical tolerance: ±5 points.
        let frac = |n: usize| n * 100 / plan.len();
        assert!((65..=75).contains(&frac(interactive)), "interactive {interactive}");
        assert!(frac(hot) >= 55, "hot share {hot}");
        // All three kinds occur.
        for kind in [TrafficKind::Query, TrafficKind::Convert, TrafficKind::Analyze] {
            assert!(plan.iter().any(|a| a.kind == kind), "missing {kind:?}");
        }
        // Deadlines follow the class.
        for a in &plan {
            match a.class() {
                QueryClass::Interactive => assert_eq!(a.deadline, profile.interactive_deadline),
                QueryClass::Batch => assert_eq!(a.deadline, profile.batch_deadline),
            }
        }
    }

    #[test]
    fn to_request_materializes_class_and_kind() {
        let arrival = Arrival {
            at: Duration::ZERO,
            kind: TrafficKind::Analyze,
            dataset: 1,
            window: 3,
            deadline: Some(Duration::from_millis(5)),
        };
        let names = vec!["a".to_string(), "b".to_string()];
        let regions: Vec<String> = (0..4).map(|i| format!("chr1:{}-{}", i * 10 + 1, i * 10 + 10)).collect();
        let req = arrival.to_request(
            &names,
            &regions,
            Path::new("/tmp/out"),
            7,
            Some(Duration::from_secs(1)),
        );
        assert_eq!(req.dataset, "b");
        assert_eq!(req.region, "chr1:31-40");
        assert_eq!(req.class, QueryClass::Batch);
        assert!(matches!(req.kind, QueryKind::Coverage { bin_size: 200 }));
        assert_eq!(req.deadline, Some(Duration::from_secs(1)));
    }
}
