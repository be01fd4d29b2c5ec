//! # ngs-tools
//!
//! samtools-style utilities layered on the `ngs-parallel` stack — the
//! operational glue a downstream adopter needs around the converter:
//!
//! * [`merge`] — stitching per-rank converter part files back into
//!   single SAM/BAM files;
//! * [`mod@flagstat`] — `samtools flagstat`-shaped category counts;
//! * [`mod@depth`] — per-base and windowed coverage depth.

pub mod depth;
pub mod flagstat;
pub mod merge;

pub use depth::{depth, windowed_depth, DepthTrack};
pub use flagstat::{flagstat, FlagStats};
pub use merge::{cat_bam_parts, cat_sam_parts};
