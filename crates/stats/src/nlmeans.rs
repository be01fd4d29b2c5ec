//! Non-local means denoising of 1-D histogram data (Section IV-A).
//!
//! Each point is replaced by a weighted average of the points in its
//! search range, weighted by patch similarity:
//!
//! ```text
//! NL[v_i]  = Σ_{j∈R} w(i,j) · v_j
//! w(i,j)   = exp(−‖N(v_i) − N(v_j)‖ / 2σ²) / Z(i)
//! Z(i)     = Σ_{j∈R} exp(−‖N(v_i) − N(v_j)‖ / 2σ²)
//! ```
//!
//! with `N(v_i)` the patch of half-size `l` centred at `i` and `R` the
//! window of radius `r`. Complexity Θ(N·(2r+1)·(2l+1)).
//!
//! The parallel version follows the paper exactly: partition the array
//! into one chunk per rank, replicate an `r + l` halo from each
//! neighbour, run NL-means over the enlarged chunk but only *update* the
//! original chunk. Output is bit-identical to the sequential pass.

use ngs_cluster::{Communicator, RankTimes, Transport};
use ngs_formats::error::Result;

use crate::time_world;

/// NL-means parameters (the paper's symbols: `r`, `l`, `sigma`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NlMeansParams {
    /// Search-range radius `r` in bins.
    pub search_radius: usize,
    /// Half patch size `l` in bins.
    pub half_patch: usize,
    /// Filtering parameter σ.
    pub sigma: f64,
}

impl Default for NlMeansParams {
    fn default() -> Self {
        // The paper's fixed settings: l = 15, σ = 10 (r is varied).
        NlMeansParams { search_radius: 20, half_patch: 15, sigma: 10.0 }
    }
}

/// Squared patch distance ‖N(v_a) − N(v_b)‖ with clamped boundaries.
#[inline]
fn patch_distance(data: &[f64], a: usize, b: usize, l: usize) -> f64 {
    let n = data.len() as isize;
    let (a, b) = (a as isize, b as isize);
    let mut d = 0.0;
    for k in -(l as isize)..=(l as isize) {
        let xa = data[(a + k).clamp(0, n - 1) as usize];
        let xb = data[(b + k).clamp(0, n - 1) as usize];
        let diff = xa - xb;
        d += diff * diff;
    }
    d
}

/// Denoises `data[lo..hi]` given the full (or halo-extended) context in
/// `data`, writing results into `out[0..hi-lo]`.
pub(crate) fn denoise_range(data: &[f64], lo: usize, hi: usize, params: &NlMeansParams, out: &mut [f64]) {
    let n = data.len();
    let r = params.search_radius;
    let l = params.half_patch;
    let two_sigma_sq = 2.0 * params.sigma * params.sigma;
    for (slot, i) in (lo..hi).enumerate() {
        let j_lo = i.saturating_sub(r);
        let j_hi = (i + r).min(n - 1);
        let mut num = 0.0;
        let mut z = 0.0;
        for j in j_lo..=j_hi {
            let w = (-patch_distance(data, i, j, l) / two_sigma_sq).exp();
            num += w * data[j];
            z += w;
        }
        // Z(i) ≥ exp(0) = 1 because j = i is always in range.
        out[slot] = num / z;
    }
}

/// Sequential NL-means over the whole histogram.
pub fn nlmeans_sequential(data: &[f64], params: &NlMeansParams) -> Vec<f64> {
    let mut out = vec![0.0; data.len()];
    if !data.is_empty() {
        denoise_range(data, 0, data.len(), params, &mut out);
    }
    out
}

/// Shared-memory parallel NL-means using rayon; identical output to the
/// sequential pass (reads are on the immutable input).
pub fn nlmeans_rayon(data: &[f64], params: &NlMeansParams) -> Vec<f64> {
    use rayon::prelude::*;
    let chunk = (data.len() / rayon::current_num_threads().max(1)).max(1024);
    let mut out = vec![0.0; data.len()];
    out.par_chunks_mut(chunk).enumerate().for_each(|(ci, slice)| {
        let lo = ci * chunk;
        denoise_range(data, lo, lo + slice.len(), params, slice);
    });
    out
}

/// Distributed parallel NL-means per the paper's three-step strategy:
/// even partitioning, `r + l` halo replication from both neighbours via
/// point-to-point messages, then local processing of the original chunk.
///
/// `data` is only read on rank 0, which scatters chunks; results are
/// gathered back to rank 0 and returned from every rank for convenience.
/// The rank world's timing comes back beside the output.
pub fn nlmeans_distributed(
    data: &[f64],
    params: &NlMeansParams,
    ranks: usize,
) -> (Vec<f64>, RankTimes) {
    assert!(ranks > 0);
    if data.is_empty() {
        return (Vec::new(), RankTimes::default());
    }
    let (parts, times) = time_world(ranks, |comm| nlmeans_rank(data, params, comm));
    (parts.concat(), times)
}

/// One rank's part of the distributed NL-means. `data` stands in for this
/// rank's partition source (each rank reads only its own chunk plus what
/// neighbours send it).
fn nlmeans_rank(data: &[f64], params: &NlMeansParams, comm: &Communicator) -> Result<Vec<f64>> {
    const TAG_LEFT: u64 = 0x11; // halo travelling leftward
    const TAG_RIGHT: u64 = 0x12; // halo travelling rightward
    let n = data.len();
    let size = comm.size();
    let rank = comm.rank();
    let halo = params.search_radius + params.half_patch;

    // Step 1: even partitioning (bins, not bytes).
    let lo = rank * n / size;
    let hi = (rank + 1) * n / size;
    let chunk = &data[lo..hi];

    // Step 2: halo replication. Each rank sends its edge regions to its
    // neighbours — the paper's "replicate a fixed-sized ending region
    // from P_{i-1} and a fixed-sized starting region from P_{i+1}".
    //
    // When a chunk is *narrower* than the halo (many ranks over a short
    // histogram), a rank's own edge is not enough context for its
    // neighbour, so each rank relays: the rightward message to rank i+1
    // is the trailing `halo` of (received-left-context ++ own chunk),
    // and symmetrically leftward. Context accumulates across narrow
    // chunks, so every rank ends up with min(halo, distance-to-edge)
    // bins per side — exactly the window the sequential pass reads —
    // and the output stays bit-identical regardless of chunk size. The
    // relay makes each direction an O(size) chain instead of one
    // pairwise round; halo messages are tiny, so latency, not volume,
    // bounds it.
    let to_f64s = |bytes: Vec<u8>| -> Vec<f64> {
        bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
    };
    let to_bytes = |vals: &[f64]| -> Vec<u8> {
        let mut b = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    };

    // Rightward chain: context flows rank 0 → rank size-1.
    let left_halo: Vec<f64> =
        if rank > 0 { to_f64s(comm.recv(rank - 1, TAG_RIGHT)?) } else { Vec::new() };
    if rank + 1 < size {
        let mut ctx = Vec::with_capacity(left_halo.len() + chunk.len());
        ctx.extend_from_slice(&left_halo);
        ctx.extend_from_slice(chunk);
        let start = ctx.len().saturating_sub(halo);
        comm.send(rank + 1, TAG_RIGHT, to_bytes(&ctx[start..]))?;
    }
    // Leftward chain: context flows rank size-1 → rank 0.
    let right_halo: Vec<f64> =
        if rank + 1 < size { to_f64s(comm.recv(rank + 1, TAG_LEFT)?) } else { Vec::new() };
    if rank > 0 {
        let mut ctx = Vec::with_capacity(chunk.len() + right_halo.len());
        ctx.extend_from_slice(chunk);
        ctx.extend_from_slice(&right_halo);
        ctx.truncate(halo);
        comm.send(rank - 1, TAG_LEFT, to_bytes(&ctx))?;
    }

    // Build the enlarged partition P'_i.
    let mut extended = Vec::with_capacity(left_halo.len() + chunk.len() + right_halo.len());
    extended.extend_from_slice(&left_halo);
    extended.extend_from_slice(chunk);
    extended.extend_from_slice(&right_halo);

    // Step 3: process only the original partition inside P'_i.
    let mut out = vec![0.0; chunk.len()];
    if !chunk.is_empty() {
        denoise_range(&extended, left_halo.len(), left_halo.len() + chunk.len(), params, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::Rng;

    fn noisy_signal(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let clean: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64;
                // Peaky coverage-like signal.
                20.0 * (-((x - n as f64 * 0.3).powi(2)) / 800.0).exp()
                    + 12.0 * (-((x - n as f64 * 0.7).powi(2)) / 200.0).exp()
                    + 5.0
            })
            .collect();
        let noisy: Vec<f64> = clean.iter().map(|&v| v + 2.0 * rng.normal()).collect();
        (clean, noisy)
    }

    fn small_params() -> NlMeansParams {
        NlMeansParams { search_radius: 10, half_patch: 3, sigma: 5.0 }
    }

    #[test]
    fn denoising_reduces_mse() {
        let (clean, noisy) = noisy_signal(600, 1);
        let denoised = nlmeans_sequential(&noisy, &small_params());
        let before = crate::histogram::mse(&clean, &noisy);
        let after = crate::histogram::mse(&clean, &denoised);
        assert!(after < before, "MSE before {before}, after {after}");
    }

    #[test]
    fn constant_signal_is_fixed_point() {
        let data = vec![7.5; 200];
        let out = nlmeans_sequential(&data, &small_params());
        for v in out {
            assert!((v - 7.5).abs() < 1e-9);
        }
    }

    #[test]
    fn rayon_matches_sequential_exactly() {
        let (_, noisy) = noisy_signal(2000, 2);
        let seq = nlmeans_sequential(&noisy, &small_params());
        let par = nlmeans_rayon(&noisy, &small_params());
        assert_eq!(seq, par);
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        let (_, noisy) = noisy_signal(1500, 3);
        let params = small_params();
        let seq = nlmeans_sequential(&noisy, &params);
        for ranks in [1, 2, 3, 8] {
            let dist = nlmeans_distributed(&noisy, &params, ranks).0;
            assert_eq!(dist, seq, "{ranks} ranks");
        }
    }

    #[test]
    fn distributed_handles_chunks_smaller_than_halo() {
        // 16 ranks over 100 points with halo 13 → chunk ≈ 6 < halo. The
        // halo relay accumulates context across narrow chunks, so even
        // degenerate partitionings stay bit-identical to sequential.
        let (_, noisy) = noisy_signal(100, 4);
        let params = small_params();
        let seq = nlmeans_sequential(&noisy, &params);
        let dist = nlmeans_distributed(&noisy, &params, 16).0;
        assert_eq!(dist, seq);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(nlmeans_sequential(&[], &small_params()).is_empty());
        let one = nlmeans_sequential(&[3.0], &small_params());
        assert!((one[0] - 3.0).abs() < 1e-12);
        assert!(nlmeans_distributed(&[], &small_params(), 4).0.is_empty());
    }

    #[test]
    fn weights_favor_similar_patches() {
        // A signal with two identical bumps and noise elsewhere: the bump
        // keeps its height better than a lone spike would.
        let mut data = vec![0.0; 300];
        for (i, v) in data.iter_mut().enumerate() {
            if (50..60).contains(&i) || (200..210).contains(&i) {
                *v = 10.0;
            }
        }
        let out = nlmeans_sequential(
            &data,
            &NlMeansParams { search_radius: 160, half_patch: 5, sigma: 2.0 },
        );
        // Bump centers stay close to 10.
        assert!(out[55] > 8.0, "bump survives: {}", out[55]);
        assert!(out[205] > 8.0);
        // Flat regions stay near 0.
        assert!(out[150] < 1.0);
    }

    #[test]
    fn complexity_parameters_respected() {
        // Larger r must strictly increase examined neighbours — verify
        // via behaviour: with r=0 the output is the input (self-weight 1).
        let (_, noisy) = noisy_signal(100, 5);
        let out = nlmeans_sequential(
            &noisy,
            &NlMeansParams { search_radius: 0, half_patch: 3, sigma: 5.0 },
        );
        for (a, b) in out.iter().zip(&noisy) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
