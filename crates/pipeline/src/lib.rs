//! # ngs-pipeline
//!
//! A staged streaming dataflow engine: typed stages connected by
//! bounded channels carry record batches, so the peak working set is
//! proportional to `channel_bound × batch cost`, not input size.
//!
//! * [`engine`] — the generic graph: [`Graph::source`] →
//!   [`Graph::stage`]× → [`Graph::run`]; backpressure, shared worker
//!   pools, sequence-ordered sinks, cooperative cancellation, per-stage
//!   metrics on an injected [`Clock`].
//! * [`regroup`] — the keyed shuffle stage `ngs-collate` runs on.
//! * [`convert`] — the streaming convert graph: shard-decode → convert →
//!   format-emit, byte-identical to the one-shot `convert_partial` /
//!   `convert_index_list` paths (Section III of the paper).
//! * [`clock`] — the canonical `Clock` trait; `ngs-query` re-exports it
//!   so all long-lived subsystems share one time source.
//!
//! DESIGN.md §8 documents the stage graph, batch sizing, backpressure,
//! cancellation, and failure semantics.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cancel;
pub mod clock;
pub mod convert;
pub mod engine;
pub mod metrics;
pub mod regroup;

use std::path::Path;
use std::sync::Arc;

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::BamxFile;
use ngs_converter::TargetFormat;
use ngs_formats::error::Result;

pub use cancel::CancelToken;
pub use clock::{Clock, ManualClock, SystemClock};
pub use convert::{record_source, ConvertRun, ShardInput, ShardQuarantine, StreamConverter};
pub use engine::{stage_fn, Batch, Cost, Graph, PipelineConfig, Sink, SourceCtx, Stage};
pub use metrics::{MemoryGauge, PipelineMetrics, StageMetrics};
pub use regroup::{
    Key, Keyed, RegroupConfig, RegroupSink, RegroupStats, Regrouped, Regrouper, SpillCodec,
    U64Codec,
};

/// Whole-file facade over the convert graph, mirroring
/// `BamConverter::convert_bamx` file-for-file (same stem, same part
/// naming, byte-identical output).
pub struct Pipeline {
    /// Engine sizing.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline on the system clock.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Streams a whole BAMX file to `target`; output byte-identical to
    /// rank 0 of a one-rank `BamConverter::convert_bamx` run.
    pub fn convert_file(
        &self,
        bamx_path: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertRun> {
        let bamx_path = bamx_path.as_ref();
        let stem = file_stem(bamx_path);
        let bamx = Arc::new(open_verified(bamx_path)?);
        let shard = ShardInput { name: stem.clone(), bamx, indices: None };
        StreamConverter::new(self.config.clone())
            .convert(vec![shard], target, out_dir.as_ref(), &stem, 0, true)
    }
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "input".into())
}

/// Opens a BAMX shard for streaming, honoring the durability manifest:
/// when the shard's directory is [`ShardRepo`]-managed, the artifact
/// must verify (length + CRC32 + layout fingerprint) before a single
/// byte enters the graph — a torn or scribbled shard fails here with a
/// typed error instead of feeding the pipeline corrupt batches.
/// Unmanaged directories open directly, as before.
fn open_verified(bamx_path: &Path) -> Result<BamxFile> {
    if let (Some(dir), Some(name)) = (bamx_path.parent(), bamx_path.file_name()) {
        if ShardRepo::is_managed(dir) {
            ShardRepo::open(dir)?.verify_artifact(&name.to_string_lossy())?;
        }
    }
    BamxFile::open(bamx_path)
}
