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
