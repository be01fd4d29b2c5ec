//! Partition-boundary suite for distributed NL-means, mirroring the BAIX
//! boundary tests: every degenerate chunk/halo interaction must stay
//! bit-identical to the sequential pass. The halo relay (see
//! `nlmeans.rs` step 2) is what makes the narrow-chunk cases hold —
//! before it, a chunk narrower than `r + l` starved its neighbour of
//! context and the outputs diverged near partition edges.

use ngs_stats::{nlmeans_distributed, nlmeans_sequential, NlMeansParams};

/// Deterministic coverage-like signal with sharp features near the ends,
/// so boundary mistakes actually change the output.
fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            5.0 + 20.0 * (-(x - 3.0).powi(2) / 10.0).exp()
                + 15.0 * (-(x - (n as f64 - 4.0)).powi(2) / 6.0).exp()
                + (i as f64 * 0.7).sin()
        })
        .collect()
}

fn params(r: usize, l: usize) -> NlMeansParams {
    NlMeansParams { search_radius: r, half_patch: l, sigma: 4.0 }
}

/// Asserts distributed == sequential, bit for bit.
fn assert_identical(data: &[f64], p: &NlMeansParams, ranks: usize) {
    let seq = nlmeans_sequential(data, p);
    let dist = nlmeans_distributed(data, p, ranks).0;
    assert_eq!(dist, seq, "{ranks} ranks, r={} l={} n={}", p.search_radius, p.half_patch, data.len());
}

#[test]
fn chunk_exactly_halo_wide() {
    // halo = 8+4 = 12; 5 ranks over 60 points → chunks of exactly 12.
    assert_identical(&signal(60), &params(8, 4), 5);
}

#[test]
fn chunk_one_narrower_than_halo() {
    // halo = 12; 5 ranks over 55 points → chunks of 11 — one bin short,
    // the first size where a rank's own edge no longer suffices.
    assert_identical(&signal(55), &params(8, 4), 5);
}

#[test]
fn chunks_much_narrower_than_halo() {
    // halo = 35 spans several chunks: context must relay across ranks.
    let data = signal(120);
    let p = params(20, 15);
    for ranks in [2, 3, 7, 12] {
        assert_identical(&data, &p, ranks);
    }
}

#[test]
fn halo_wider_than_whole_array() {
    // Every point's window covers the entire histogram; each rank needs
    // all other chunks as context.
    assert_identical(&signal(30), &params(40, 10), 6);
}

#[test]
fn single_bin_chunks() {
    // One bin per rank — the extreme relay chain.
    assert_identical(&signal(9), &params(3, 2), 9);
}

#[test]
fn more_ranks_than_bins() {
    // Trailing ranks own empty chunks; they must still forward context
    // through the relay, not break the chain with empty halos.
    let data = signal(7);
    let p = params(4, 2);
    for ranks in [8, 13] {
        assert_identical(&data, &p, ranks);
    }
}

#[test]
fn two_ranks_asymmetric_split() {
    // n odd → left chunk one shorter than right; both directions of the
    // relay see different lengths.
    assert_identical(&signal(31), &params(10, 5), 2);
}

#[test]
fn zero_radius_and_zero_patch() {
    // r = 0 → identity transform; l = 0 → pointwise patches. Degenerate
    // parameters must not trip the halo arithmetic.
    let data = signal(40);
    assert_identical(&data, &params(0, 3), 4);
    assert_identical(&data, &params(5, 0), 4);
    assert_identical(&data, &params(0, 0), 4);
}

#[test]
fn rank_count_sweep_stays_identical() {
    // One mid-sized signal across every rank count from serial to
    // bin-per-rank: no partitioning may perturb the result.
    let data = signal(48);
    let p = params(6, 3);
    let seq = nlmeans_sequential(&data, &p);
    for ranks in 1..=48 {
        assert_eq!(nlmeans_distributed(&data, &p, ranks).0, seq, "{ranks} ranks");
    }
}
