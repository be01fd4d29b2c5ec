//! Order statistics used for every reported number: medians over rounds,
//! percentiles over operations, and the quartile spread the driver's
//! acceptance test (and the `aa` subcommand) computes.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100]. NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (default "exclusive" method): position `i * (len + 1) / 4`, linearly
/// interpolated, clamped to the sample range. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// One timed round: its wall time and what its operations consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Wall time of the whole round in seconds.
    pub wall_s: f64,
    /// Records consumed by the round's operations.
    pub records: u64,
}

/// Throughput of a run: records per round over the **median** round wall
/// time. Every round of a workload consumes the same records (checked by
/// the caller), so the median round is also the median throughput.
pub fn round_throughput(rounds: &[Round]) -> f64 {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let records: Vec<f64> = rounds.iter().map(|r| r.records as f64).collect();
    median(&records) / median(&walls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[2.0, 1.0], 1.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_aggregation_uses_the_median_round() {
        let rounds = [
            Round {
                wall_s: 0.5,
                records: 1000,
            },
            Round {
                wall_s: 5.0,
                records: 1000,
            }, // one stalled round
            Round {
                wall_s: 0.4,
                records: 1000,
            },
        ];
        assert_eq!(round_throughput(&rounds), 2000.0);
    }
}
