//! False discovery rate computation (Section IV-B, after Han et al.).
//!
//! Given an observed histogram (`M` bins) and `B` simulation datasets:
//!
//! ```text
//! p_i      = Σ_b  I(r_i ≤ r*_ib)                      (Eq. 4)
//! d_b      = Σ_i  I( Σ_b' I(r*_ib ≤ r*_ib') ≤ p_t )   (Eq. 5)
//! FDR(p_t) = (B⁻¹ Σ_b d_b) / Σ_i I(p_i ≤ p_t)         (Eq. 6)
//! ```
//!
//! Three implementations:
//! * [`fdr_direct`] — the literal two-quantity formulation;
//! * [`fdr_fused`] — the paper's *summation permutation* (Eq. 7–9): both
//!   numerator and denominator accumulate in a single pass over bins;
//! * [`fdr_parallel`] — Algorithm 2: bin-direction partitioning, fused
//!   local sums, one global reduction. A two-phase variant
//!   ([`fdr_parallel_two_phase`]) keeps the numerator and denominator
//!   reductions separate (two barriers) for the ablation the paper's
//!   Figure 12 commentary alludes to.
//!
//! Complexity Θ(M·B²).

use ngs_cluster::{RankTimes, Transport};

use crate::time_world;

/// The FDR inputs: one observed series and `B` simulated series, all of
/// equal length `M`.
#[derive(Debug, Clone)]
pub struct FdrInput {
    /// Observed reads per bin (`r_i`).
    pub observed: Vec<f64>,
    /// Simulated reads per bin per simulation (`r*_ib`), indexed
    /// `simulations[b][i]`.
    pub simulations: Vec<Vec<f64>>,
}

impl FdrInput {
    /// Validates shape and wraps the inputs.
    pub fn new(observed: Vec<f64>, simulations: Vec<Vec<f64>>) -> Self {
        for (b, s) in simulations.iter().enumerate() {
            assert_eq!(s.len(), observed.len(), "simulation {b} length mismatch");
        }
        FdrInput { observed, simulations }
    }

    /// Number of bins `M`.
    pub fn bins(&self) -> usize {
        self.observed.len()
    }

    /// Number of simulations `B`.
    pub fn rounds(&self) -> usize {
        self.simulations.len()
    }
}

/// The literal Eq. 4–6 evaluation (reference implementation).
pub fn fdr_direct(input: &FdrInput, p_t: f64) -> f64 {
    let m = input.bins();
    let b_count = input.rounds();
    assert!(b_count > 0 && m > 0);

    // Eq. 4: p_i per bin.
    let p: Vec<u64> = (0..m)
        .map(|i| {
            input
                .simulations
                .iter()
                .filter(|sim| input.observed[i] <= sim[i])
                .count() as u64
        })
        .collect();

    // Eq. 5: d_b per simulation round.
    let mut d_total = 0u64;
    for b in 0..b_count {
        let mut d_b = 0u64;
        for i in 0..m {
            let rank_count = input
                .simulations
                .iter()
                .filter(|other| input.simulations[b][i] <= other[i])
                .count() as f64;
            if rank_count <= p_t {
                d_b += 1;
            }
        }
        d_total += d_b;
    }

    // Eq. 6.
    let numerator = d_total as f64 / b_count as f64;
    let denominator = p.iter().filter(|&&pi| pi as f64 <= p_t).count() as f64;
    if denominator == 0.0 {
        f64::INFINITY
    } else {
        numerator / denominator
    }
}

/// Per-bin fused contributions: `(sum◇_i, sum*_i)` of Eq. 7–8.
#[inline]
fn fused_bin_sums(input: &FdrInput, i: usize, p_t: f64) -> (u64, u64) {
    let sims = &input.simulations;
    // sum◇_i (Eq. 7): for every b, rank r*_ib among {r*_ib'}.
    let mut sum_diamond = 0u64;
    for b in sims {
        let rank_count = sims.iter().filter(|other| b[i] <= other[i]).count() as f64;
        if rank_count <= p_t {
            sum_diamond += 1;
        }
    }
    // sum*_i (Eq. 8): indicator on p_i.
    let p_i = sims.iter().filter(|sim| input.observed[i] <= sim[i]).count() as f64;
    let sum_star = u64::from(p_i <= p_t);
    (sum_diamond, sum_star)
}

/// The paper's fused single-pass formulation (Eq. 9), sequential.
pub fn fdr_fused(input: &FdrInput, p_t: f64) -> f64 {
    let b_count = input.rounds();
    assert!(b_count > 0 && input.bins() > 0);
    let mut diamond = 0u64;
    let mut star = 0u64;
    for i in 0..input.bins() {
        let (d, s) = fused_bin_sums(input, i, p_t);
        diamond += d;
        star += s;
    }
    finish(diamond, star, b_count)
}

#[inline]
fn finish(diamond: u64, star: u64, b_count: usize) -> f64 {
    if star == 0 {
        f64::INFINITY
    } else {
        diamond as f64 / (b_count as f64 * star as f64)
    }
}

/// Algorithm 2: bin-direction partitioning; each rank computes fused
/// local sums; a single gather at the master computes both global sums at
/// once (one synchronization), and the result is broadcast back. The
/// rank world's timing comes back beside the value.
pub fn fdr_parallel(input: &FdrInput, p_t: f64, ranks: usize) -> (f64, RankTimes) {
    const TAG_SUMS: u64 = 0x21;
    const TAG_RESULT: u64 = 0x22;
    assert!(ranks > 0 && input.rounds() > 0 && input.bins() > 0);
    let m = input.bins();
    let b_count = input.rounds();

    let (results, times) = time_world(ranks, |comm| {
        let rank = comm.rank();
        let size = comm.size();
        // Line 1: even bin-direction partitioning.
        let lo = rank * m / size;
        let hi = (rank + 1) * m / size;

        // Lines 2–3: local sums, fused in one pass.
        let mut diamond = 0u64;
        let mut star = 0u64;
        for i in lo..hi {
            let (d, s) = fused_bin_sums(input, i, p_t);
            diamond += d;
            star += s;
        }

        // Line 4: global barrier.
        comm.barrier()?;

        // Lines 5–8: one combined reduction at the master (both sums in a
        // single message — the optimization that removes a second
        // synchronization).
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&diamond.to_le_bytes());
        payload.extend_from_slice(&star.to_le_bytes());
        if let Some(all) = comm.gather(TAG_SUMS, payload)? {
            let mut total_d = 0u64;
            let mut total_s = 0u64;
            for msg in all {
                total_d += u64::from_le_bytes(msg[0..8].try_into().expect("u64"));
                total_s += u64::from_le_bytes(msg[8..16].try_into().expect("u64"));
            }
            let fdr = finish(total_d, total_s, b_count);
            comm.broadcast(TAG_RESULT, fdr.to_le_bytes().to_vec())?;
            Ok(fdr)
        } else {
            let bytes = comm.broadcast(TAG_RESULT, Vec::new())?;
            Ok(f64::from_le_bytes(bytes[0..8].try_into().expect("f64")))
        }
    });
    (results[0], times)
}

/// The unfused ablation: numerator and denominator are reduced in two
/// separate steps with an extra global synchronization between them —
/// what Algorithm 2's summation permutation avoids.
pub fn fdr_parallel_two_phase(input: &FdrInput, p_t: f64, ranks: usize) -> (f64, RankTimes) {
    assert!(ranks > 0 && input.rounds() > 0 && input.bins() > 0);
    let m = input.bins();
    let b_count = input.rounds();

    let (results, times) = time_world(ranks, |comm| {
        let rank = comm.rank();
        let size = comm.size();
        let lo = rank * m / size;
        let hi = (rank + 1) * m / size;

        // Phase 1: numerator only.
        let mut diamond = 0u64;
        for i in lo..hi {
            let sims = &input.simulations;
            for b in sims {
                let rank_count =
                    sims.iter().filter(|other| b[i] <= other[i]).count() as f64;
                if rank_count <= p_t {
                    diamond += 1;
                }
            }
        }
        comm.barrier()?;
        let total_d = comm.all_reduce_sum_u64(0x31, diamond)?;

        // Phase 2: denominator only (second sweep + second reduction).
        let mut star = 0u64;
        for i in lo..hi {
            let p_i = input
                .simulations
                .iter()
                .filter(|sim| input.observed[i] <= sim[i])
                .count() as f64;
            if p_i <= p_t {
                star += 1;
            }
        }
        comm.barrier()?;
        let total_s = comm.all_reduce_sum_u64(0x32, star)?;

        Ok(finish(total_d, total_s, b_count))
    });
    (results[0], times)
}

/// Sweeps thresholds, returning `(p_t, FDR(p_t))` pairs — the curve used
/// to pick a region-selection threshold.
pub fn fdr_curve(input: &FdrInput, thresholds: &[f64], ranks: usize) -> Vec<(f64, f64)> {
    thresholds.iter().map(|&t| (t, fdr_parallel(input, t, ranks).0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::Rng;

    fn random_input(m: usize, b: usize, seed: u64) -> FdrInput {
        let mut rng = Rng::seed_from_u64(seed);
        let observed: Vec<f64> = (0..m)
            .map(|i| {
                // A few enriched bins stand out above the noise.
                if i % 37 == 0 {
                    40.0 + rng.poisson(20.0) as f64
                } else {
                    rng.poisson(8.0) as f64
                }
            })
            .collect();
        let mean = observed.iter().sum::<f64>() / m as f64;
        let simulations: Vec<Vec<f64>> = (0..b)
            .map(|_| (0..m).map(|_| rng.poisson(mean) as f64).collect())
            .collect();
        FdrInput::new(observed, simulations)
    }

    #[test]
    fn fused_equals_direct() {
        let input = random_input(300, 12, 1);
        for p_t in [0.0, 1.0, 3.0, 6.0, 12.0] {
            let a = fdr_direct(&input, p_t);
            let b = fdr_fused(&input, p_t);
            if a.is_infinite() {
                assert!(b.is_infinite(), "p_t {p_t}");
            } else {
                assert!((a - b).abs() < 1e-12, "p_t {p_t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_equals_fused() {
        let input = random_input(257, 10, 2);
        for ranks in [1, 2, 4, 8, 16] {
            for p_t in [1.0, 4.0] {
                let seq = fdr_fused(&input, p_t);
                let par = fdr_parallel(&input, p_t, ranks).0;
                let two = fdr_parallel_two_phase(&input, p_t, ranks).0;
                assert_eq!(seq.to_bits(), par.to_bits(), "ranks {ranks}, p_t {p_t}");
                assert_eq!(seq.to_bits(), two.to_bits(), "two-phase ranks {ranks}");
            }
        }
    }

    #[test]
    fn enriched_bins_lower_fdr_at_strict_threshold() {
        let input = random_input(1000, 20, 3);
        // Strict threshold (few simulations above observed) vs loose.
        let strict = fdr_fused(&input, 1.0);
        let loose = fdr_fused(&input, 15.0);
        assert!(strict.is_finite());
        assert!(strict <= loose * 1.5 + 1.0, "strict {strict}, loose {loose}");
    }

    #[test]
    fn no_selected_bins_gives_infinite_fdr() {
        // Observed values far above all simulations, threshold 0: p_i > 0
        // is false... p_i = 0 ≤ 0, so choose the inverse: observed far
        // below sims makes p_i = B > p_t → empty selection.
        let observed = vec![0.0; 50];
        let sims = vec![vec![100.0; 50]; 5];
        let input = FdrInput::new(observed, sims);
        assert!(fdr_fused(&input, 1.0).is_infinite());
    }

    #[test]
    fn all_identical_data() {
        // Every value equal: every indicator fires; FDR = M·B/(B·M) = 1.
        let input = FdrInput::new(vec![5.0; 40], vec![vec![5.0; 40]; 6]);
        let fdr = fdr_fused(&input, 6.0);
        assert!((fdr - 1.0).abs() < 1e-12, "fdr {fdr}");
    }

    #[test]
    fn curve_is_reported_per_threshold() {
        let input = random_input(120, 6, 4);
        let curve = fdr_curve(&input, &[1.0, 2.0, 3.0], 3);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 1.0);
        for (t, v) in &curve {
            let reference = fdr_fused(&input, *t);
            if reference.is_finite() {
                assert!((v - reference).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        FdrInput::new(vec![1.0; 10], vec![vec![1.0; 9]]);
    }
}
