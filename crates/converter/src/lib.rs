//! # ngs-converter
//!
//! The paper's parallel sequence data format converter: a *runtime
//! system* (partitioning, buffered loading, parsing, writing) plus *user
//! programs* (per-record target conversion), in three instances:
//!
//! * [`sam_converter::SamConverter`] — text SAM, partitioned with the
//!   boundary-adjusting Algorithm 1 ([`partition`]);
//! * [`bam_converter::BamConverter`] — binary BAM, via *sequential
//!   preprocessing* into BAMX/BAIX then embarrassingly-parallel (full or
//!   region-restricted *partial*) conversion;
//! * [`samx_converter::SamxConverter`] — the preprocessing-optimized SAM
//!   converter whose preprocessing is itself parallel (M shards × N
//!   conversion ranks).
//!
//! [`baseline::PicardLikeConverter`] reproduces the architecture of the
//! paper's sequential comparison target (Picard/SAM-JDK) for Table I.
//!
//! Targets: SAM, BAM, BED, BEDGRAPH, FASTA, FASTQ, JSON, YAML — or any
//! user type implementing [`target::RecordConverter`].

pub mod bam_converter;
pub mod baseline;
pub mod partition;
pub mod runtime;
pub mod sam_converter;
pub mod samx_converter;
pub mod scan;
mod shard;
pub mod simulate;
pub mod source;
pub mod target;
mod transcode;

pub use bam_converter::{BamConverter, PreprocessReport};
pub use baseline::PicardLikeConverter;
pub use partition::{partition_distributed, partition_serial, Variant};
pub use runtime::{ConvertConfig, ConvertReport, RankStats};
pub use sam_converter::SamConverter;
pub use samx_converter::{SamxConverter, SamxPreprocessReport, Shard};
pub use source::{ByteSource, FileSource, MemSource};
pub use target::{RecordConverter, TargetFormat};
