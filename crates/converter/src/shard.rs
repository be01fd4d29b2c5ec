//! The one shard-build path: a BAMX shard and its BAIX, staged, sealed
//! and recorded as a pair.
//!
//! Both preprocessing converters end the same way — records stream into
//! a staged BAMX artifact, the index comes out of the writer, and the
//! two manifest entries are recorded together — so they share this
//! helper and differ only in where the records come from. The ordering
//! invariants of DESIGN.md §7.5 live here once: each artifact is renamed
//! into place strictly before its manifest record, and a BAMX is never
//! listed without its BAIX.

use std::io::BufWriter;
use std::path::PathBuf;

use ngs_bamx::repo::{layout_fingerprint_versioned, ShardRepo, StagedArtifact, FINGERPRINT_NONE};
use ngs_bamx::{AnyBamxWriter, BamxCompression, BamxLayout, BamxVersion};
use ngs_formats::error::{Error, Result};
use ngs_formats::header::SamHeader;

/// The writer a shard's records go through: into a staged artifact.
pub(crate) type StagedWriter<'a> = AnyBamxWriter<BufWriter<StagedArtifact<'a>>>;

/// Where a shard pair goes and how it is encoded.
pub(crate) struct ShardTarget<'a> {
    /// The repository the pair publishes through.
    pub repo: &'a ShardRepo,
    /// Artifact stem: the pair is `{stem}.bamx` + `{stem}.baix`.
    pub stem: String,
    /// On-disk BAMX version.
    pub version: BamxVersion,
    /// Body compression (v1 only).
    pub compression: BamxCompression,
}

impl ShardTarget<'_> {
    fn bamx_name(&self) -> String {
        format!("{}.bamx", self.stem)
    }

    fn baix_name(&self) -> String {
        format!("{}.baix", self.stem)
    }

    /// Final path of the BAMX artifact.
    pub fn bamx_path(&self) -> PathBuf {
        self.repo.dir().join(self.bamx_name())
    }

    /// Final path of the BAIX artifact.
    pub fn baix_path(&self) -> PathBuf {
        self.repo.dir().join(self.baix_name())
    }

    /// True when both artifacts are already manifest-verified — the only
    /// thing a resume may trust.
    pub fn is_published(&self) -> bool {
        self.repo.contains_verified(&self.bamx_name())
            && self.repo.contains_verified(&self.baix_name())
    }

    /// Builds and publishes the pair. `records` is handed the shard's
    /// writer and writes every record of the shard through it, in shard
    /// order; the writer collects each record's position key as it
    /// passes, so the index needs no second look at the shard. Returns
    /// the record count.
    ///
    /// Any error — from the source or from a record the layout or header
    /// rejects — leaves nothing sealed and nothing recorded: the staged
    /// temp stays behind as the stray a crash would leave
    /// (`ShardRepo::clean_stray_temps` sweeps it) and the manifest still
    /// lists whatever it listed before.
    pub fn build(
        &self,
        header: SamHeader,
        layout: BamxLayout,
        records: impl FnOnce(&mut StagedWriter<'_>) -> Result<()>,
    ) -> Result<u64> {
        let staged = self.repo.stage(&self.bamx_name())?;
        let mut writer = AnyBamxWriter::new(
            self.version,
            BufWriter::new(staged),
            header,
            layout,
            self.compression,
        )?;
        records(&mut writer)?;
        let n = writer.record_count();
        let (staged, baix) = writer.finish_indexed()?;
        let staged = staged.into_inner().map_err(|e| Error::Io(e.into_error()))?;
        let bamx_entry = staged.seal(layout_fingerprint_versioned(&layout, self.version))?;

        let mut staged = self.repo.stage(&self.baix_name())?;
        baix.write_to(&mut staged)?;
        let baix_entry = staged.seal(FINGERPRINT_NONE)?;
        self.repo.record(vec![bamx_entry, baix_entry])?;
        Ok(n)
    }
}
