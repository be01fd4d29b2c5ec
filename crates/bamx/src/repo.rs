//! Crash-safe shard repository: atomic publication and checksummed
//! manifests for BAMX/BAIX artifact directories (DESIGN.md §7.5).
//!
//! The paper's speedup story rests on preprocessing being done *once* and
//! reused forever, so a crash mid-preprocessing must never leave state
//! that is indistinguishable from corruption. This module provides:
//!
//! * a per-directory [`Manifest`] listing every published artifact with
//!   its byte length, whole-file CRC32, and layout fingerprint, protected
//!   by a trailing checksum of the manifest bytes themselves;
//! * atomic publication via [`ShardRepo::stage`]: artifacts are written
//!   to a dot-prefixed temp name, fsynced, renamed into place, and the
//!   directory fsynced — strictly *before* the manifest entry referencing
//!   them is recorded. A crash at any byte therefore leaves either the
//!   old state or the new state, never a manifest pointing at a torn file;
//! * an integrity scan ([`ShardRepo::verify`]) classifying every artifact
//!   as verified, torn (short/missing → [`DecodeErrorKind::Torn`]), or
//!   mismatched (CRC/fingerprint → [`DecodeErrorKind::ManifestMismatch`]),
//!   plus detection of unpublished artifacts and stray temp files left by
//!   a crash.
//!
//! All filesystem mutation goes through the [`RepoFs`] seam so
//! `ngs-fault` can inject write-side faults (crashes at a byte, torn
//! writes, transient fsync/rename failures) deterministically.
//!
//! Transient publication failures (fsync/rename I/O errors) surface as
//! [`Error::Io`], which [`Error::is_transient`] classifies as retryable —
//! repair paths retry them with backoff instead of quarantining a healthy
//! shard.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ngs_bgzf::crc32::{crc32, Crc32};
use ngs_formats::error::{DecodeErrorKind, Error, Result};

use crate::layout::BamxLayout;

/// Repository lifecycle counters published into the global `ngs-obs`
/// registry (`repo.*`). The repo has no injected-registry seam — it is
/// constructed deep inside converters and repair callbacks — so, like
/// the BGZF codec, it uses cached global handles behind the
/// [`ngs_obs::enabled`] gate.
mod obs {
    use std::sync::{Arc, OnceLock};

    use ngs_obs::Counter;

    pub(super) struct Counters {
        pub(super) published: Arc<Counter>,
        pub(super) removed: Arc<Counter>,
        pub(super) verify_ok: Arc<Counter>,
        pub(super) verify_failed: Arc<Counter>,
        pub(super) stray_temps_cleaned: Arc<Counter>,
    }

    pub(super) fn counters() -> Option<&'static Counters> {
        if !ngs_obs::enabled() {
            return None;
        }
        static COUNTERS: OnceLock<Counters> = OnceLock::new();
        Some(COUNTERS.get_or_init(|| {
            let r = ngs_obs::global();
            Counters {
                published: r.counter("repo.artifacts_published"),
                removed: r.counter("repo.artifacts_removed"),
                verify_ok: r.counter("repo.verifications_ok"),
                verify_failed: r.counter("repo.verifications_failed"),
                stray_temps_cleaned: r.counter("repo.stray_temps_cleaned"),
            }
        }))
    }
}

/// The manifest file name inside a shard directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// First line of every manifest.
const MANIFEST_MAGIC: &str = "NGS-MANIFEST 1";

/// Fingerprint recorded for artifacts without a BAMX layout (e.g. BAIX).
pub const FINGERPRINT_NONE: u32 = 0;

/// The layout fingerprint of a v1 BAMX artifact: CRC32 of the 12 encoded
/// layout bytes. Lets consumers detect a layout change without decoding
/// the shard, and repair verify that a resumed shard pads identically.
pub fn layout_fingerprint(layout: &BamxLayout) -> u32 {
    crc32(&layout.encode())
}

/// Version-tagged layout fingerprint: v1 stays [`layout_fingerprint`]
/// (manifests written before v2 existed keep verifying), v2 prefixes the
/// encoded layout with its version byte so re-encoding a shard under the
/// other format always changes the fingerprint even when the layout
/// maxima agree.
pub fn layout_fingerprint_versioned(layout: &BamxLayout, version: crate::BamxVersion) -> u32 {
    match version {
        crate::BamxVersion::V1 => layout_fingerprint(layout),
        crate::BamxVersion::V2 => {
            let mut bytes = vec![0x02u8];
            bytes.extend_from_slice(&layout.encode());
            crc32(&bytes)
        }
    }
}

/// Filesystem mutation seam for atomic publication. Production uses
/// [`StdFs`]; `ngs-fault` provides a fault-injecting implementation so
/// crash points and transient fsync/rename failures are deterministic.
///
/// Reads are *not* routed through this trait — read-side faults are the
/// territory of `FaultyFile`/`FaultyRead` (DESIGN.md §7.1).
pub trait RepoFs: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>>;
    /// Flushes a closed file's bytes to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` within one directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes a directory's entry table (the renames) to stable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file (stray-temp cleanup).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl RepoFs for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(File::create(path)?))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is how rename durability is guaranteed on Linux;
        // on platforms where opening a directory fails the rename itself
        // is still atomic, so degrade silently rather than error.
        match File::open(dir) {
            Ok(d) => match d.sync_all() {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
                Err(e) => Err(e),
            },
            Err(_) => Ok(()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// One published artifact in a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Artifact file name (no path separators).
    pub name: String,
    /// Exact byte length.
    pub len: u64,
    /// CRC32 of the whole file.
    pub crc32: u32,
    /// [`layout_fingerprint`] for BAMX artifacts, [`FINGERPRINT_NONE`]
    /// otherwise.
    pub fingerprint: u32,
}

/// The decoded per-directory manifest: free-form metadata plus one entry
/// per published artifact. Encoding is deterministic (sorted), so two
/// repositories holding the same artifact set produce byte-identical
/// manifests regardless of publication order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Sorted key→value metadata (e.g. `ranks`, `source`, `compression`).
    pub meta: BTreeMap<String, String>,
    /// Entries keyed by artifact name.
    pub entries: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    /// Looks up an artifact entry by name.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.get(name)
    }

    /// Serializes the manifest. The final line is a CRC32 of everything
    /// before it, so a scribbled-on manifest is detected at decode time.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MANIFEST_MAGIC);
        body.push('\n');
        for (k, v) in &self.meta {
            body.push_str(&format!("meta {k} {v}\n"));
        }
        for e in self.entries.values() {
            body.push_str(&format!(
                "artifact {} {} {:08x} {:08x}\n",
                e.name, e.len, e.crc32, e.fingerprint
            ));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("checksum {crc:08x}\n"));
        body.into_bytes()
    }

    /// Parses manifest bytes. Never panics on arbitrary input: every
    /// malformation returns a typed [`Error::Decode`] (enforced by the
    /// proptest corpus in `crates/bamx/tests/repo_manifest.rs`).
    pub fn decode(bytes: &[u8], context: &str) -> Result<Self> {
        let bad = |kind, offset, detail: String| Error::decode(kind, offset, context, detail);
        let text = std::str::from_utf8(bytes).map_err(|e| {
            bad(DecodeErrorKind::Corrupt, e.valid_up_to() as u64, "manifest is not UTF-8".into())
        })?;

        // Locate the trailing checksum line; everything before it is the
        // checksummed region.
        let check_start = if let Some(pos) = text.rfind("\nchecksum ") {
            pos + 1
        } else if text.starts_with("checksum ") {
            0
        } else {
            return Err(bad(
                DecodeErrorKind::Truncated,
                bytes.len() as u64,
                "missing trailing checksum line".into(),
            ));
        };
        let check_line = text[check_start..].trim_end_matches('\n');
        if check_line.contains('\n') {
            return Err(bad(
                DecodeErrorKind::Corrupt,
                check_start as u64,
                "data after the checksum line".into(),
            ));
        }
        let stated = parse_hex32(check_line.trim_start_matches("checksum ")).ok_or_else(|| {
            bad(DecodeErrorKind::Corrupt, check_start as u64, "unparseable checksum line".into())
        })?;
        let actual = crc32(&bytes[..check_start]);
        if stated != actual {
            return Err(bad(
                DecodeErrorKind::ManifestMismatch,
                check_start as u64,
                format!("manifest checksum {stated:08x} but contents hash to {actual:08x}"),
            ));
        }

        let mut lines = text[..check_start].lines();
        let mut offset = 0u64;
        match lines.next() {
            Some(first) if first == MANIFEST_MAGIC => offset += first.len() as u64 + 1,
            Some(first) => {
                return Err(bad(DecodeErrorKind::BadMagic, 0, format!("bad first line {first:?}")))
            }
            None => return Err(bad(DecodeErrorKind::BadMagic, 0, "empty manifest".into())),
        }

        let mut manifest = Manifest::default();
        for line in lines {
            let line_offset = offset;
            offset += line.len() as u64 + 1;
            if let Some(rest) = line.strip_prefix("meta ") {
                let (key, value) = rest.split_once(' ').ok_or_else(|| {
                    bad(DecodeErrorKind::Corrupt, line_offset, "meta line without value".into())
                })?;
                if key.is_empty()
                    || manifest.meta.insert(key.to_string(), value.to_string()).is_some()
                {
                    return Err(bad(
                        DecodeErrorKind::Corrupt,
                        line_offset,
                        format!("empty or duplicate meta key {key:?}"),
                    ));
                }
            } else if let Some(rest) = line.strip_prefix("artifact ") {
                let fields: Vec<&str> = rest.split(' ').collect();
                let entry = match fields.as_slice() {
                    [name, len, crc, fp] => {
                        let parsed = (
                            len.parse::<u64>().ok(),
                            parse_hex32(crc),
                            parse_hex32(fp),
                        );
                        match parsed {
                            (Some(len), Some(crc32), Some(fingerprint))
                                if valid_artifact_name(name) =>
                            {
                                ManifestEntry {
                                    name: name.to_string(),
                                    len,
                                    crc32,
                                    fingerprint,
                                }
                            }
                            _ => {
                                return Err(bad(
                                    DecodeErrorKind::Corrupt,
                                    line_offset,
                                    format!("unparseable artifact line {line:?}"),
                                ))
                            }
                        }
                    }
                    _ => {
                        return Err(bad(
                            DecodeErrorKind::Corrupt,
                            line_offset,
                            format!("artifact line needs 4 fields, got {}", fields.len()),
                        ))
                    }
                };
                if manifest.entries.insert(entry.name.clone(), entry).is_some() {
                    return Err(bad(
                        DecodeErrorKind::Corrupt,
                        line_offset,
                        "duplicate artifact name".into(),
                    ));
                }
            } else {
                return Err(bad(
                    DecodeErrorKind::Corrupt,
                    line_offset,
                    format!("unrecognized manifest line {line:?}"),
                ));
            }
        }
        Ok(manifest)
    }
}

fn parse_hex32(s: &str) -> Option<u32> {
    (s.len() == 8).then(|| u32::from_str_radix(s, 16).ok()).flatten()
}

/// True when `name` can be published: non-empty, printable ASCII without
/// spaces or path separators, not dot-prefixed (temps), not the manifest.
pub fn valid_artifact_name(name: &str) -> bool {
    !name.is_empty()
        && name != MANIFEST_NAME
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_graphic() && b != b'/' && b != b'\\')
}

/// Why an artifact failed verification.
#[derive(Debug, Clone)]
pub struct Damage {
    /// Artifact name from the manifest.
    pub name: String,
    /// [`DecodeErrorKind::Torn`] (short/missing bytes) or
    /// [`DecodeErrorKind::ManifestMismatch`] (checksum/fingerprint).
    pub kind: DecodeErrorKind,
    /// Human-readable description.
    pub detail: String,
}

/// Result of an integrity scan over a shard directory.
#[derive(Debug, Clone, Default)]
pub struct RepoReport {
    /// Artifacts whose bytes match their manifest entry exactly.
    pub verified: Vec<String>,
    /// Artifacts that are missing, short, or mismatched — repair targets.
    pub damaged: Vec<Damage>,
    /// On-disk artifacts not listed in the manifest (a crash between
    /// artifact rename and manifest record; harmless, rebuilt by repair).
    pub unpublished: Vec<String>,
    /// Dot-prefixed temp files left by an interrupted stage.
    pub stray_temps: Vec<String>,
}

impl RepoReport {
    /// True when every published artifact verified.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }
}

/// A shard directory with crash-safe publication. Cheap to construct;
/// the manifest is re-read on demand so concurrent publishers (one per
/// preprocessing rank) stay coherent through the internal lock.
pub struct ShardRepo {
    dir: PathBuf,
    fs: Arc<dyn RepoFs>,
    /// Serializes manifest read-modify-write cycles across rank threads.
    lock: Mutex<()>,
}

impl std::fmt::Debug for ShardRepo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRepo").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl ShardRepo {
    /// Opens (creating the directory and an empty manifest if needed) a
    /// repository on the real filesystem.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::create_with(dir, Arc::new(StdFs))
    }

    /// [`ShardRepo::create`] with an injected filesystem.
    pub fn create_with(dir: impl Into<PathBuf>, fs: Arc<dyn RepoFs>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let repo = ShardRepo { dir, fs, lock: Mutex::new(()) };
        if !repo.manifest_path().exists() {
            repo.write_manifest(&Manifest::default())?;
        }
        Ok(repo)
    }

    /// Opens an existing repository; errors if no manifest is present.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, Arc::new(StdFs))
    }

    /// [`ShardRepo::open`] with an injected filesystem.
    pub fn open_with(dir: impl Into<PathBuf>, fs: Arc<dyn RepoFs>) -> Result<Self> {
        let dir = dir.into();
        let repo = ShardRepo { dir, fs, lock: Mutex::new(()) };
        if !repo.manifest_path().exists() {
            return Err(Error::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no {MANIFEST_NAME} in {}", repo.dir.display()),
            )));
        }
        Ok(repo)
    }

    /// True when `dir` is manifest-managed (a `MANIFEST` file exists).
    pub fn is_managed(dir: &Path) -> bool {
        dir.join(MANIFEST_NAME).is_file()
    }

    /// The repository directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    fn temp_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!(".{name}.tmp"))
    }

    /// Loads and validates the manifest.
    pub fn manifest(&self) -> Result<Manifest> {
        let path = self.manifest_path();
        let bytes = std::fs::read(&path)?;
        Manifest::decode(&bytes, &path.display().to_string())
    }

    /// Atomically replaces the manifest: encode → temp → fsync → rename →
    /// directory fsync. Failures surface as [`Error::Io`] (transient).
    fn write_manifest(&self, manifest: &Manifest) -> Result<()> {
        let tmp = self.temp_path(MANIFEST_NAME);
        {
            let mut w = self.fs.create(&tmp)?;
            w.write_all(&manifest.encode())?;
            w.flush()?;
        }
        self.fs.sync_file(&tmp)?;
        self.fs.rename(&tmp, &self.manifest_path())?;
        self.fs.sync_dir(&self.dir)?;
        Ok(())
    }

    /// Begins staging an artifact: returns a writer targeting a temp
    /// file. Call [`StagedArtifact::seal`] to atomically publish the
    /// bytes, then [`ShardRepo::record`] to list them in the manifest.
    pub fn stage(&self, name: &str) -> Result<StagedArtifact<'_>> {
        if !valid_artifact_name(name) {
            return Err(Error::InvalidRecord(format!("invalid artifact name {name:?}")));
        }
        let tmp = self.temp_path(name);
        let writer = self.fs.create(&tmp)?;
        Ok(StagedArtifact {
            repo: self,
            name: name.to_string(),
            tmp,
            writer: Some(writer),
            crc: Crc32::new(),
            len: 0,
        })
    }

    /// Records published artifacts in the manifest (replacing same-name
    /// entries) in one atomic rewrite. Callers must only pass entries
    /// returned by [`StagedArtifact::seal`] — the artifact bytes must
    /// already be durable, or the crash-consistency invariant breaks.
    pub fn record(&self, entries: Vec<ManifestEntry>) -> Result<()> {
        let published = entries.len() as u64;
        self.update_manifest(|m| {
            for e in entries {
                m.entries.insert(e.name.clone(), e);
            }
            true
        })?;
        if let Some(c) = obs::counters() {
            c.published.add(published);
        }
        Ok(())
    }

    /// Unpublishes an artifact: drops its manifest entry (atomic
    /// rewrite), then deletes the file. The order matters — a crash
    /// between the two leaves an *unpublished* file (harmless, reported
    /// by [`ShardRepo::verify`]), never a manifest entry pointing at a
    /// missing file. Missing files are not an error.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.update_manifest(|m| {
            m.entries.remove(name);
            true
        })?;
        match self.fs.remove_file(&self.dir.join(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(Error::Io(e)),
        }
        if let Some(c) = obs::counters() {
            c.removed.inc();
        }
        Ok(())
    }

    /// Sets a metadata key in the manifest (atomic rewrite). A key that
    /// already holds `value` is left alone: no temp file, no fsync, the
    /// manifest file untouched.
    pub fn set_meta(&self, key: &str, value: &str) -> Result<()> {
        self.update_manifest(|m| {
            if m.meta.get(key).map(String::as_str) == Some(value) {
                return false;
            }
            m.meta.insert(key.to_string(), value.to_string());
            true
        })
    }

    /// Read-modify-write of the manifest under the repository lock;
    /// `mutate` returns whether anything changed and so needs writing.
    fn update_manifest(&self, mutate: impl FnOnce(&mut Manifest) -> bool) -> Result<()> {
        let _guard = self.lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut manifest = self.manifest()?;
        if mutate(&mut manifest) {
            self.write_manifest(&manifest)?;
        }
        Ok(())
    }

    /// Stages, seals, and records a whole in-memory artifact. The layout
    /// fingerprint is derived from the bytes (BAMX) or none (other).
    pub fn publish_bytes(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut staged = self.stage(name)?;
        staged.write_all(bytes)?;
        let entry = staged.seal(fingerprint_of(name, bytes))?;
        self.record(vec![entry])
    }

    /// Verifies one published artifact against its manifest entry: exact
    /// length, whole-file CRC32, and layout fingerprint. Returns the
    /// verified entry, or a typed [`Error::Decode`] with kind
    /// [`DecodeErrorKind::Torn`] / [`DecodeErrorKind::ManifestMismatch`].
    pub fn verify_artifact(&self, name: &str) -> Result<ManifestEntry> {
        let manifest = self.manifest()?;
        let entry = manifest.entry(name).ok_or_else(|| {
            Error::decode(
                DecodeErrorKind::ManifestMismatch,
                0,
                self.dir.join(name).display().to_string(),
                "artifact not listed in MANIFEST",
            )
        })?;
        let checked = self.check_entry(entry).map(|()| entry.clone());
        if let Some(c) = obs::counters() {
            match &checked {
                Ok(_) => c.verify_ok.inc(),
                Err(_) => c.verify_failed.inc(),
            }
        }
        checked
    }

    fn check_entry(&self, entry: &ManifestEntry) -> Result<()> {
        let path = self.dir.join(&entry.name);
        let context = path.display().to_string();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(Error::decode(
                    DecodeErrorKind::Torn,
                    0,
                    context,
                    "listed in MANIFEST but missing on disk",
                ));
            }
            Err(e) => return Err(Error::Io(e)),
        };
        if bytes.len() as u64 != entry.len {
            return Err(Error::decode(
                DecodeErrorKind::Torn,
                bytes.len() as u64,
                context,
                format!("file is {} bytes but MANIFEST promises {}", bytes.len(), entry.len),
            ));
        }
        let crc = crc32(&bytes);
        if crc != entry.crc32 {
            return Err(Error::decode(
                DecodeErrorKind::ManifestMismatch,
                0,
                context,
                format!("file CRC32 {crc:08x} but MANIFEST promises {:08x}", entry.crc32),
            ));
        }
        let fp = fingerprint_of(&entry.name, &bytes);
        if fp != entry.fingerprint {
            return Err(Error::decode(
                DecodeErrorKind::ManifestMismatch,
                0,
                context,
                format!(
                    "layout fingerprint {fp:08x} but MANIFEST promises {:08x}",
                    entry.fingerprint
                ),
            ));
        }
        Ok(())
    }

    /// True when `name` is listed and its bytes verify — the resume test:
    /// preprocessing skips shards for which this holds.
    pub fn contains_verified(&self, name: &str) -> bool {
        self.verify_artifact(name).is_ok()
    }

    /// Full integrity scan: verifies every manifest entry and sweeps the
    /// directory for unpublished artifacts and stray temp files.
    pub fn verify(&self) -> Result<RepoReport> {
        let manifest = self.manifest()?;
        let mut report = RepoReport::default();
        for entry in manifest.entries.values() {
            match self.check_entry(entry) {
                Ok(()) => report.verified.push(entry.name.clone()),
                Err(Error::Decode(d)) => {
                    report.damaged.push(Damage { name: entry.name.clone(), kind: d.kind, detail: d.detail })
                }
                Err(e) => return Err(e),
            }
        }
        for dirent in std::fs::read_dir(&self.dir)? {
            let file_name = dirent?.file_name();
            let Some(name) = file_name.to_str() else { continue };
            if name == MANIFEST_NAME {
                continue;
            }
            if name.starts_with('.') {
                if name.ends_with(".tmp") {
                    report.stray_temps.push(name.to_string());
                }
            } else if manifest.entry(name).is_none() {
                report.unpublished.push(name.to_string());
            }
        }
        report.verified.sort();
        report.unpublished.sort();
        report.stray_temps.sort();
        report.damaged.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(report)
    }

    /// Deletes stray temp files (best-effort crash debris cleanup);
    /// returns the names removed.
    pub fn clean_stray_temps(&self) -> Result<Vec<String>> {
        let mut removed = Vec::new();
        for name in self.verify()?.stray_temps {
            self.fs.remove_file(&self.dir.join(&name))?;
            removed.push(name);
        }
        if let Some(c) = obs::counters() {
            c.stray_temps_cleaned.add(removed.len() as u64);
        }
        Ok(removed)
    }
}

/// Computes the manifest fingerprint for an artifact's bytes: the layout
/// fingerprint for BAMX files (parsed from the framing without decoding
/// records), [`FINGERPRINT_NONE`] otherwise or when unparseable (the CRC
/// check catches any content damage independently).
pub fn fingerprint_of(name: &str, bytes: &[u8]) -> u32 {
    if !name.ends_with(".bamx") {
        return FINGERPRINT_NONE;
    }
    // Both versions share the prefix framing by design: magic(5) +
    // version-specific byte(1) + prologue_len u32 LE(4) + prologue +
    // layout(12), so one parse covers v1 and v2 — only the tag differs.
    if bytes.len() < 10 {
        return FINGERPRINT_NONE;
    }
    let version = if bytes[..5] == crate::file::MAGIC {
        crate::BamxVersion::V1
    } else if bytes[..5] == crate::layout_v2::MAGIC_V2 {
        crate::BamxVersion::V2
    } else {
        return FINGERPRINT_NONE;
    };
    let plen = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    match bytes.get(10 + plen..10 + plen + 12) {
        Some(layout_bytes) => match version {
            crate::BamxVersion::V1 => crc32(layout_bytes),
            crate::BamxVersion::V2 => {
                let mut tagged = vec![0x02u8];
                tagged.extend_from_slice(layout_bytes);
                crc32(&tagged)
            }
        },
        None => FINGERPRINT_NONE,
    }
}

/// An artifact mid-publication: a checksumming writer over a temp file.
/// [`StagedArtifact::seal`] makes the bytes durable and atomically
/// renames them into place; dropping without sealing leaves the temp on
/// disk (exactly what a crash would), to be swept up as a stray.
pub struct StagedArtifact<'a> {
    repo: &'a ShardRepo,
    name: String,
    tmp: PathBuf,
    writer: Option<Box<dyn Write + Send>>,
    crc: Crc32,
    len: u64,
}

impl StagedArtifact<'_> {
    /// The artifact name being staged.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Publishes the staged bytes: flush → fsync → rename into place →
    /// directory fsync. Returns the manifest entry for
    /// [`ShardRepo::record`]; the artifact is durable but *unlisted*
    /// until recorded, which is the safe order (DESIGN.md §7.5).
    pub fn seal(mut self, fingerprint: u32) -> Result<ManifestEntry> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        // Writer dropped (closed) before syncing the path.
        self.repo.fs.sync_file(&self.tmp)?;
        self.repo.fs.rename(&self.tmp, &self.repo.dir.join(&self.name))?;
        self.repo.fs.sync_dir(&self.repo.dir)?;
        Ok(ManifestEntry {
            name: self.name.clone(),
            len: self.len,
            crc32: self.crc.finish(),
            fingerprint,
        })
    }
}

impl Write for StagedArtifact<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| io::Error::other("staged artifact already sealed"))?;
        let n = w.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_manifest_roundtrip() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode(), "t").unwrap(), m);
    }

    #[test]
    fn manifest_roundtrip_with_entries_and_meta() {
        let mut m = Manifest::default();
        m.meta.insert("ranks".into(), "4".into());
        m.meta.insert("source".into(), "sample text with spaces".into());
        for (i, name) in ["b.baix", "a.bamx"].iter().enumerate() {
            m.entries.insert(
                name.to_string(),
                ManifestEntry {
                    name: name.to_string(),
                    len: 1000 + i as u64,
                    crc32: 0xDEAD_0000 + i as u32,
                    fingerprint: i as u32,
                },
            );
        }
        let enc = m.encode();
        assert_eq!(Manifest::decode(&enc, "t").unwrap(), m);
        // Deterministic: re-encoding yields identical bytes.
        assert_eq!(Manifest::decode(&enc, "t").unwrap().encode(), enc);
    }

    #[test]
    fn scribbled_manifest_is_mismatch() {
        let mut m = Manifest::default();
        m.meta.insert("k".into(), "v".into());
        let mut enc = m.encode();
        // Flip a byte inside the checksummed region.
        enc[4] ^= 0x20;
        match Manifest::decode(&enc, "t") {
            Err(Error::Decode(d)) => assert_eq!(d.kind, DecodeErrorKind::ManifestMismatch),
            other => panic!("expected ManifestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_manifest_is_truncated() {
        let m = Manifest::default();
        let enc = m.encode();
        match Manifest::decode(&enc[..10], "t") {
            Err(Error::Decode(d)) => assert_eq!(d.kind, DecodeErrorKind::Truncated),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn artifact_names_validated() {
        assert!(valid_artifact_name("a.bamx"));
        assert!(valid_artifact_name("x.shard0001.baix"));
        assert!(!valid_artifact_name(""));
        assert!(!valid_artifact_name(".hidden"));
        assert!(!valid_artifact_name("has space"));
        assert!(!valid_artifact_name("a/b"));
        assert!(!valid_artifact_name(MANIFEST_NAME));
    }

    #[test]
    fn publish_and_verify_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        repo.publish_bytes("data.bin", b"hello shard").unwrap();
        let entry = repo.verify_artifact("data.bin").unwrap();
        assert_eq!(entry.len, 11);
        let report = repo.verify().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.verified, vec!["data.bin"]);
        assert!(repo.contains_verified("data.bin"));
    }

    #[test]
    fn torn_and_mismatched_artifacts_detected() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        repo.publish_bytes("short.bin", b"0123456789").unwrap();
        repo.publish_bytes("flipped.bin", b"abcdefghij").unwrap();
        repo.publish_bytes("gone.bin", b"here today").unwrap();
        std::fs::write(dir.path().join("short.bin"), b"0123").unwrap();
        std::fs::write(dir.path().join("flipped.bin"), b"abcdefghiX").unwrap();
        std::fs::remove_file(dir.path().join("gone.bin")).unwrap();

        let report = repo.verify().unwrap();
        assert!(!report.is_clean());
        let kinds: BTreeMap<&str, DecodeErrorKind> =
            report.damaged.iter().map(|d| (d.name.as_str(), d.kind)).collect();
        assert_eq!(kinds["short.bin"], DecodeErrorKind::Torn);
        assert_eq!(kinds["flipped.bin"], DecodeErrorKind::ManifestMismatch);
        assert_eq!(kinds["gone.bin"], DecodeErrorKind::Torn);
        assert!(!repo.contains_verified("short.bin"));
    }

    #[test]
    fn unsealed_stage_is_a_stray_temp_not_an_artifact() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        {
            let mut staged = repo.stage("lost.bin").unwrap();
            staged.write_all(b"partial").unwrap();
            // Dropped without seal — the crash shape.
        }
        let report = repo.verify().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.stray_temps, vec![".lost.bin.tmp"]);
        assert!(report.verified.is_empty());
        assert_eq!(repo.clean_stray_temps().unwrap(), vec![".lost.bin.tmp"]);
        assert!(repo.verify().unwrap().stray_temps.is_empty());
    }

    #[test]
    fn sealed_but_unrecorded_is_unpublished() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        let mut staged = repo.stage("orphan.bin").unwrap();
        staged.write_all(b"durable but unlisted").unwrap();
        staged.seal(FINGERPRINT_NONE).unwrap();
        // Crash before record(): the file exists, the manifest is silent.
        let report = repo.verify().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.unpublished, vec!["orphan.bin"]);
        assert!(!repo.contains_verified("orphan.bin"));
    }

    #[test]
    fn open_requires_manifest() {
        let dir = tempfile::tempdir().unwrap();
        assert!(ShardRepo::open(dir.path()).is_err());
        assert!(!ShardRepo::is_managed(dir.path()));
        ShardRepo::create(dir.path()).unwrap();
        assert!(ShardRepo::is_managed(dir.path()));
        ShardRepo::open(dir.path()).unwrap();
    }

    #[test]
    fn record_replaces_same_name_entries() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        repo.publish_bytes("a.bin", b"v1").unwrap();
        repo.publish_bytes("a.bin", b"version two").unwrap();
        let m = repo.manifest().unwrap();
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entry("a.bin").unwrap().len, 11);
        assert!(repo.contains_verified("a.bin"));
    }

    #[test]
    fn no_op_set_meta_leaves_the_manifest_file_alone() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        repo.set_meta("format", "v2").unwrap();
        repo.publish_bytes("a.bin", b"x").unwrap();
        let path = dir.path().join(MANIFEST_NAME);
        let stat = |p: &Path| {
            let m = std::fs::metadata(p).unwrap();
            use std::os::unix::fs::MetadataExt;
            (m.ino(), m.modified().unwrap())
        };
        let (bytes, before) = (std::fs::read(&path).unwrap(), stat(&path));
        // A rewrite goes temp -> rename, which always changes the inode,
        // however coarse the filesystem's mtime.
        repo.set_meta("format", "v2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(stat(&path), before, "no-op set_meta rewrote the manifest");
        assert!(!dir.path().join(format!(".{MANIFEST_NAME}.tmp")).exists());
        // A real change still lands, and keeps everything else.
        repo.set_meta("format", "v1").unwrap();
        assert_ne!(stat(&path), before);
        let m = repo.manifest().unwrap();
        assert_eq!(m.meta["format"], "v1");
        assert!(m.entry("a.bin").is_some());
        // A new key with an empty value is a change, not a no-op.
        repo.set_meta("note", "").unwrap();
        assert_eq!(repo.manifest().unwrap().meta["note"], "");
    }

    #[test]
    fn meta_survives_publication() {
        let dir = tempfile::tempdir().unwrap();
        let repo = ShardRepo::create(dir.path()).unwrap();
        repo.set_meta("ranks", "8").unwrap();
        repo.publish_bytes("a.bin", b"x").unwrap();
        assert_eq!(repo.manifest().unwrap().meta["ranks"], "8");
    }
}
