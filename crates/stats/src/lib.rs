//! # ngs-stats
//!
//! The paper's statistical analysis module, parallelized over the
//! `ngs-cluster` rank runtime:
//!
//! * [`histogram`] — binned coverage histograms ("peaks") built from
//!   alignments or converter BEDGRAPH output, plus MSE/PSNR metrics;
//! * [`nlmeans`] — 1-D non-local means denoising (Section IV-A):
//!   sequential, rayon shared-memory, and the paper's halo-replicated
//!   distributed version, all bit-identical;
//! * [`fdr`] — false discovery rate computation (Section IV-B): the
//!   literal Eq. 4–6 form, the fused summation-permutation form
//!   (Eq. 7–9), Algorithm 2's single-reduction parallel version and the
//!   two-barrier ablation;
//! * [`mod@simulate`] — Poisson / permutation null models generating the
//!   simulation datasets FDR scores against.

use ngs_cluster::{first_cause, time_ranks, Communicator, RankTimes};
use ngs_formats::error::Result;

pub mod fdr;
pub mod histogram;
pub mod nlmeans;
pub mod peaks;
pub mod simulate;

pub use fdr::{fdr_curve, fdr_direct, fdr_fused, fdr_parallel, fdr_parallel_two_phase, FdrInput};
pub use histogram::{mse, psnr, BinnedCounts, CoverageHistogram};
pub use nlmeans::{nlmeans_distributed, nlmeans_rayon, nlmeans_sequential, NlMeansParams};
pub use peaks::{call_peaks, peaks_to_bed, pick_threshold, select_bins, Peak};
pub use simulate::{build_fdr_input, simulate, NullModel};

/// [`time_ranks`] for a world whose ranks fail only through their
/// transport. A thread transport fails only after a peer left, and a
/// peer here leaves early only by panicking, which `time_ranks`
/// re-raises before this returns.
fn time_world<R, F>(ranks: usize, f: F) -> (Vec<R>, RankTimes)
where
    R: Send,
    F: Fn(&Communicator) -> Result<R> + Sync,
{
    let (results, times) = time_ranks(ranks, f);
    (first_cause(results).expect("thread ranks fail only by panicking"), times)
}
