//! # ngs-bamx
//!
//! The paper's BAMX/BAIX preprocessing formats, implemented in full:
//!
//! * [`layout`] — per-dataset field maxima defining the fixed record width
//!   (the padding that makes records randomly addressable);
//! * [`record_codec`] — fixed-width record encode/decode;
//! * [`mod@file`] — BAMX shard writer/reader with O(1) random access, plus
//!   optional BGZF body compression (the paper's future-work item); opens
//!   both on-disk versions behind one [`BamxFile`] API;
//! * [`column`] + [`layout_v2`] — the v2 block-columnar compressed layout
//!   with per-column codecs and projection (DESIGN.md §14);
//! * [`baix`] — the `(starting position, alignment index)` index of
//!   Figure 4, with binary-search region → record-range mapping used by
//!   partial conversion;
//! * [`binned`] — a UCSC-binning overlap index (the second future-work
//!   item: "more sophisticated indexing techniques");
//! * [`region`] — `chr:start-end` genomic region parsing;
//! * [`repo`] — the crash-safe shard repository: checksummed per-directory
//!   manifests and atomic temp→fsync→rename publication (DESIGN.md §7.5).

pub mod baix;
pub mod bam_bai;
pub mod binned;
pub mod column;
pub mod file;
pub mod layout;
pub mod layout_v2;
pub mod record_codec;
pub mod region;
pub mod repo;

pub use baix::{position_key, Baix, BaixEntry};
pub use bam_bai::{fetch, BamIndex, Chunk};
pub use binned::BinnedIndex;
pub use column::{ColumnKind, ColumnSet};
pub use file::{
    write_bamx_file, write_bamx_file_versioned, AnyBamxWriter, BamxCompression, BamxFile,
    BamxVersion, BamxWriter, BatchEncoder, EncodedBatch,
};
pub use layout::BamxLayout;
pub use layout_v2::{V2Writer, DEFAULT_RECORDS_PER_BLOCK, MAGIC_V2};
pub use region::Region;
pub use repo::{Manifest, ManifestEntry, RepoFs, RepoReport, ShardRepo, StdFs, MANIFEST_NAME};
