//! Keyed regroup (shuffle) with spill-to-repo external merge.
//!
//! The platform piece behind `ngs-collate` (DESIGN.md §10): items enter
//! tagged with a **pure byte-string key**, buffer under a
//! [`MemoryGauge`]-audited budget, and leave as one stream in total
//! `(key, seq)` order, where `seq` is the dense arrival number the
//! regrouper stamps on every item. Because every graph sink absorbs
//! batches in global source order, `seq` — and therefore the output —
//! is identical for any worker count, batch size, or spill budget.
//!
//! When the buffered cost exceeds the budget, the buffer is sorted and
//! written out as one *run* through the crash-safe [`ShardRepo`]
//! publication path (stage → seal → record, deterministic
//! `{stem}.run{n:06}.spill` naming), so a crash mid-spill leaves a
//! stray temp — never a torn, manifest-listed run. [`Regrouper::finish`]
//! verifies every run against the manifest and k-way merges the runs
//! with the in-memory remainder through a binary heap, decoding one
//! look-ahead entry per run — the merge working set is the remainder
//! (≤ budget) plus a constant per-run overhead (read buffer + one
//! entry), all charged on the same gauge.
//!
//! Spill-run entry framing (little-endian):
//!
//! ```text
//! u32 key_len | key bytes | u64 seq | u32 payload_len | payload
//! ```
//!
//! where the payload is produced by the caller's [`SpillCodec`].

use std::collections::BinaryHeap;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use ngs_bamx::repo::{RepoFs, ShardRepo, StdFs, FINGERPRINT_NONE};
use ngs_formats::error::{DecodeErrorKind, Error, Result};

use crate::engine::{Batch, Cost, Sink};
use crate::metrics::MemoryGauge;

/// A regroup key: compared bytewise, so key functions must encode order
/// into the bytes (big-endian integers, hash prefixes, …).
pub type Key = Vec<u8>;

/// Fixed per-entry bookkeeping cost charged to the gauge on top of the
/// key and payload (covers the seq, lengths, and `Vec` headers).
const ENTRY_OVERHEAD: u64 = 48;

/// An item tagged with its regroup key by an upstream (parallel) stage.
#[derive(Debug, Clone)]
pub struct Keyed<T> {
    /// The pure-function key this item regroups under.
    pub key: Key,
    /// The payload.
    pub item: T,
}

impl<T: Cost> Cost for Keyed<T> {
    fn cost_bytes(&self) -> u64 {
        self.key.len() as u64 + self.item.cost_bytes() + ENTRY_OVERHEAD
    }
}

/// Encodes items into spill-run payload bytes and back. Implementations
/// must round-trip exactly (`decode(encode(x)) == x`) — byte-identity of
/// regrouped output rests on it.
pub trait SpillCodec<T>: Send + Sync {
    /// Appends the payload encoding of `item` to `out`.
    fn encode(&self, item: &T, out: &mut Vec<u8>) -> Result<()>;

    /// Decodes one payload produced by [`SpillCodec::encode`].
    /// `context` names the run for error reports.
    fn decode(&self, bytes: &[u8], context: &str) -> Result<T>;
}

/// Codec for plain `u64` payloads (pipeline-level tests and counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Codec;

impl SpillCodec<u64> for U64Codec {
    fn encode(&self, item: &u64, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(&item.to_le_bytes());
        Ok(())
    }

    fn decode(&self, bytes: &[u8], context: &str) -> Result<u64> {
        let arr: [u8; 8] = bytes.try_into().map_err(|_| {
            Error::decode(
                DecodeErrorKind::Truncated,
                0,
                context.to_string(),
                format!("u64 payload must be 8 bytes, got {}", bytes.len()),
            )
        })?;
        Ok(u64::from_le_bytes(arr))
    }
}

/// Sizing and placement knobs for one [`Regrouper`].
#[derive(Clone)]
pub struct RegroupConfig {
    /// Buffered-cost budget in gauge bytes; exceeding it triggers a
    /// spill. `0` means unbounded (never spill).
    pub spill_budget: u64,
    /// Directory for spill runs (becomes a [`ShardRepo`]). Required when
    /// `spill_budget > 0`; ignored otherwise.
    pub spill_dir: Option<PathBuf>,
    /// Deterministic run-name stem: runs publish as
    /// `{stem}.run{n:06}.spill`. Must satisfy
    /// `ngs_bamx::repo::valid_artifact_name`.
    pub run_stem: String,
    /// Read-buffer bytes per run during the merge (the constant per-run
    /// overhead charged to the gauge).
    pub merge_read_buffer: usize,
    /// Filesystem seam for spill publication (fault injection); `None`
    /// uses the real filesystem.
    pub spill_fs: Option<Arc<dyn RepoFs>>,
}

impl Default for RegroupConfig {
    fn default() -> Self {
        RegroupConfig {
            spill_budget: 0,
            spill_dir: None,
            run_stem: "regroup".into(),
            merge_read_buffer: 64 * 1024,
            spill_fs: None,
        }
    }
}

impl std::fmt::Debug for RegroupConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegroupConfig")
            .field("spill_budget", &self.spill_budget)
            .field("spill_dir", &self.spill_dir)
            .field("run_stem", &self.run_stem)
            .field("merge_read_buffer", &self.merge_read_buffer)
            .field("spill_fs", &self.spill_fs.is_some())
            .finish()
    }
}

/// Counters one regroup accumulates across buffering, spilling, and the
/// merge.
#[derive(Debug, Clone, Default)]
pub struct RegroupStats {
    /// Items pushed in.
    pub items: u64,
    /// Spill runs published.
    pub spill_runs: u64,
    /// Items written to spill runs.
    pub spilled_items: u64,
    /// Encoded bytes written to spill runs.
    pub spilled_bytes: u64,
    /// Published size of each run, in publication order (histogram feed).
    pub run_bytes: Vec<u64>,
    /// Sources merged at finish (runs + in-memory remainder).
    pub merge_fan_in: u64,
    /// Peak gauge bytes the regrouper held (buffer + merge overhead).
    pub peak_buffered_bytes: u64,
}

struct Entry<T> {
    key: Key,
    seq: u64,
    item: T,
    cost: u64,
}

/// Accumulates keyed items under a budget, spilling sorted runs through
/// the crash-safe repo path; [`Regrouper::finish`] yields the merged
/// [`Regrouped`] stream. See the module docs for the determinism
/// argument.
pub struct Regrouper<T> {
    config: RegroupConfig,
    codec: Arc<dyn SpillCodec<T>>,
    gauge: Arc<MemoryGauge>,
    buf: Vec<Entry<T>>,
    buffered_cost: u64,
    next_seq: u64,
    repo: Option<ShardRepo>,
    stats: RegroupStats,
}

impl<T: Cost> Regrouper<T> {
    /// A regrouper charging its working set to a fresh private gauge.
    pub fn new(config: RegroupConfig, codec: Arc<dyn SpillCodec<T>>) -> Result<Self> {
        Self::with_gauge(config, codec, Arc::new(MemoryGauge::new()))
    }

    /// A regrouper charging its working set to `gauge` (shared
    /// accounting with a surrounding engine).
    pub fn with_gauge(
        config: RegroupConfig,
        codec: Arc<dyn SpillCodec<T>>,
        gauge: Arc<MemoryGauge>,
    ) -> Result<Self> {
        if config.spill_budget > 0 && config.spill_dir.is_none() {
            return Err(Error::InvalidRecord(
                "regroup: spill_budget > 0 requires a spill_dir".into(),
            ));
        }
        Ok(Regrouper {
            config,
            codec,
            gauge,
            buf: Vec::new(),
            buffered_cost: 0,
            next_seq: 0,
            repo: None,
            stats: RegroupStats::default(),
        })
    }

    /// The gauge this regrouper charges.
    pub fn gauge(&self) -> &Arc<MemoryGauge> {
        &self.gauge
    }

    /// Buffers one keyed item, spilling a sorted run first if the budget
    /// is already full.
    pub fn push(&mut self, key: Key, item: T) -> Result<()> {
        let cost = key.len() as u64 + item.cost_bytes() + ENTRY_OVERHEAD;
        if self.config.spill_budget > 0
            && !self.buf.is_empty()
            && self.buffered_cost + cost > self.config.spill_budget
        {
            self.spill_run()?;
        }
        self.gauge.charge(cost);
        self.buffered_cost += cost;
        self.buf.push(Entry { key, seq: self.next_seq, item, cost });
        self.next_seq += 1;
        self.stats.items += 1;
        Ok(())
    }

    /// Opens (or creates) the spill repository, clearing stray temps left
    /// by a previous crashed process so reruns start clean.
    fn repo(&mut self) -> Result<&ShardRepo> {
        if self.repo.is_none() {
            let dir = self.config.spill_dir.clone().ok_or_else(|| {
                Error::InvalidRecord("regroup: spill without a spill_dir".into())
            })?;
            let fs: Arc<dyn RepoFs> =
                self.config.spill_fs.clone().unwrap_or_else(|| Arc::new(StdFs));
            let repo = ShardRepo::create_with(dir, fs)?;
            repo.clean_stray_temps()?;
            self.repo = Some(repo);
        }
        self.repo.as_ref().ok_or_else(|| {
            Error::InvalidRecord("regroup: spill repository unavailable".into())
        })
    }

    fn run_name(&self, idx: u64) -> String {
        format!("{}.run{idx:06}.spill", self.config.run_stem)
    }

    /// Sorts the buffer by `(key, seq)` and publishes it as one run:
    /// artifact bytes rename into place strictly before the manifest
    /// records them, so no observable run is ever torn.
    fn spill_run(&mut self) -> Result<()> {
        let mut entries = std::mem::take(&mut self.buf);
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        let name = self.run_name(self.stats.spill_runs);
        let codec = Arc::clone(&self.codec);
        let repo = self.repo()?;
        let mut staged = repo.stage(&name)?;
        let mut frame = Vec::new();
        let mut payload = Vec::new();
        for e in &entries {
            payload.clear();
            codec.encode(&e.item, &mut payload)?;
            frame.clear();
            frame.extend_from_slice(&(e.key.len() as u32).to_le_bytes());
            frame.extend_from_slice(&e.key);
            frame.extend_from_slice(&e.seq.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            staged.write_all(&frame)?;
            staged.write_all(&payload)?;
        }
        let len = staged.len();
        let entry = staged.seal(FINGERPRINT_NONE)?;
        repo.record(vec![entry])?;
        self.stats.spill_runs += 1;
        self.stats.spilled_items += entries.len() as u64;
        self.stats.spilled_bytes += len;
        self.stats.run_bytes.push(len);
        self.gauge.release(self.buffered_cost);
        self.buffered_cost = 0;
        Ok(())
    }

    /// Seals the regroup: sorts the in-memory remainder, verifies every
    /// spilled run against the manifest, and returns the merged stream.
    pub fn finish(mut self) -> Result<Regrouped<T>> {
        self.buf
            .sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        let mut readers = Vec::new();
        if self.stats.spill_runs > 0 {
            let read_buffer = self.config.merge_read_buffer.max(4096);
            let names: Vec<String> =
                (0..self.stats.spill_runs).map(|i| self.run_name(i)).collect();
            let repo = self.repo()?;
            for name in names {
                repo.verify_artifact(&name)?;
                let file = std::fs::File::open(repo.dir().join(&name))?;
                readers.push(RunReader {
                    context: name,
                    reader: BufReader::with_capacity(read_buffer, file),
                    pending: None,
                    charged: read_buffer as u64,
                });
            }
            // Constant per-run merge overhead, on the same gauge.
            for r in &readers {
                self.gauge.charge(r.charged);
            }
        }
        self.stats.merge_fan_in =
            readers.len() as u64 + u64::from(!self.buf.is_empty());

        let mut merged = Regrouped {
            codec: self.codec,
            gauge: self.gauge,
            mem: self.buf.into_iter(),
            mem_pending: None,
            mem_charged: self.buffered_cost,
            readers,
            heap: BinaryHeap::new(),
            stats: self.stats,
        };
        merged.prime()?;
        merged.stats.peak_buffered_bytes = merged.gauge.peak();
        Ok(merged)
    }
}

/// One spilled run being merged: a buffered reader plus one decoded
/// look-ahead entry.
struct RunReader<T> {
    context: String,
    reader: BufReader<std::fs::File>,
    pending: Option<Entry<T>>,
    /// Gauge bytes currently charged for this reader (buffer + pending).
    charged: u64,
}

impl<T: Cost> RunReader<T> {
    /// Decodes the next entry, or `None` at a clean end-of-run. A run
    /// ending mid-entry is a torn artifact (should be impossible once
    /// `verify_artifact` passed — defense in depth).
    fn refill(&mut self, codec: &dyn SpillCodec<T>) -> Result<Option<&Entry<T>>> {
        if self.pending.is_some() {
            return Ok(self.pending.as_ref());
        }
        let mut len4 = [0u8; 4];
        match self.reader.read_exact(&mut len4) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(Error::Io(e)),
        }
        let torn = |detail: String| {
            Error::decode(DecodeErrorKind::Torn, 0, self.context.clone(), detail)
        };
        let key_len = u32::from_le_bytes(len4) as usize;
        let mut key = vec![0u8; key_len];
        self.reader
            .read_exact(&mut key)
            .map_err(|e| torn(format!("run ends inside a key: {e}")))?;
        let mut seq8 = [0u8; 8];
        self.reader
            .read_exact(&mut seq8)
            .map_err(|e| torn(format!("run ends inside a seq: {e}")))?;
        let mut plen4 = [0u8; 4];
        self.reader
            .read_exact(&mut plen4)
            .map_err(|e| torn(format!("run ends inside a length: {e}")))?;
        let payload_len = u32::from_le_bytes(plen4) as usize;
        let mut payload = vec![0u8; payload_len];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| torn(format!("run ends inside a payload: {e}")))?;
        let item = codec.decode(&payload, &self.context)?;
        let cost = key.len() as u64 + item.cost_bytes() + ENTRY_OVERHEAD;
        self.pending = Some(Entry { key, seq: u64::from_le_bytes(seq8), item, cost });
        Ok(self.pending.as_ref())
    }
}

/// Min-heap handle: orders sources by their pending `(key, seq)`.
struct HeapSlot {
    key: Key,
    seq: u64,
    src: usize,
}

impl PartialEq for HeapSlot {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for HeapSlot {}
impl PartialOrd for HeapSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the smallest.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Index of the in-memory remainder in the heap's source space.
const MEM_SRC: usize = usize::MAX;

/// The merged output stream of a [`Regrouper`]: total `(key, seq)`
/// order across the in-memory remainder and every spilled run. Gauge
/// charges drain as entries are yielded; dropping the stream early
/// releases the rest.
pub struct Regrouped<T> {
    codec: Arc<dyn SpillCodec<T>>,
    gauge: Arc<MemoryGauge>,
    mem: std::vec::IntoIter<Entry<T>>,
    mem_pending: Option<Entry<T>>,
    mem_charged: u64,
    readers: Vec<RunReader<T>>,
    heap: BinaryHeap<HeapSlot>,
    stats: RegroupStats,
}

impl<T: Cost> Regrouped<T> {
    /// Loads the first entry of every source into the heap.
    fn prime(&mut self) -> Result<()> {
        self.mem_pending = self.mem.next();
        if let Some(e) = &self.mem_pending {
            self.heap.push(HeapSlot { key: e.key.clone(), seq: e.seq, src: MEM_SRC });
        }
        for i in 0..self.readers.len() {
            if let Some(e) = self.readers[i].refill(self.codec.as_ref())? {
                self.heap.push(HeapSlot { key: e.key.clone(), seq: e.seq, src: i });
            }
            if let Some(e) = &self.readers[i].pending {
                self.gauge.charge(e.cost);
                self.readers[i].charged += e.cost;
            }
        }
        Ok(())
    }

    /// Accumulated regroup statistics (spills, merge fan-in, gauge peak).
    pub fn stats(&self) -> &RegroupStats {
        &self.stats
    }

    /// Yields the next `(key, seq, item)` in total order.
    pub fn next_entry(&mut self) -> Result<Option<(Key, u64, T)>> {
        let Some(slot) = self.heap.pop() else {
            return Ok(None);
        };
        let entry = if slot.src == MEM_SRC {
            let e = self.mem_pending.take().ok_or_else(|| {
                Error::InvalidRecord("regroup merge: empty memory source".into())
            })?;
            self.gauge.release(e.cost);
            self.mem_charged = self.mem_charged.saturating_sub(e.cost);
            self.mem_pending = self.mem.next();
            if let Some(n) = &self.mem_pending {
                self.heap.push(HeapSlot { key: n.key.clone(), seq: n.seq, src: MEM_SRC });
            }
            e
        } else {
            let reader = &mut self.readers[slot.src];
            let e = reader.pending.take().ok_or_else(|| {
                Error::InvalidRecord("regroup merge: empty run source".into())
            })?;
            self.gauge.release(e.cost);
            reader.charged = reader.charged.saturating_sub(e.cost);
            reader.refill(self.codec.as_ref())?;
            if let Some(n) = &reader.pending {
                self.gauge.charge(n.cost);
                reader.charged += n.cost;
                self.heap.push(HeapSlot { key: n.key.clone(), seq: n.seq, src: slot.src });
            }
            e
        };
        self.stats.peak_buffered_bytes = self.stats.peak_buffered_bytes.max(self.gauge.peak());
        Ok(Some((entry.key, entry.seq, entry.item)))
    }

    /// Collects the next full key group into `into` (cleared first),
    /// returning its key, or `None` once the stream is drained. Items
    /// arrive in `seq` (arrival) order within the group.
    pub fn next_group(&mut self, into: &mut Vec<T>) -> Result<Option<Key>> {
        into.clear();
        let Some((key, _, item)) = self.next_entry()? else {
            return Ok(None);
        };
        into.push(item);
        while let Some(slot) = self.heap.peek() {
            if slot.key != key {
                break;
            }
            match self.next_entry()? {
                Some((_, _, item)) => into.push(item),
                None => break,
            }
        }
        Ok(Some(key))
    }
}

impl<T> Drop for Regrouped<T> {
    fn drop(&mut self) {
        // Entries never yielded (early drop) plus per-reader buffers.
        let mut held = self.mem_charged;
        for r in &self.readers {
            held += r.charged;
        }
        self.gauge.release(held);
    }
}

/// Terminal pipeline stage feeding a [`Regrouper`]: absorb batches of
/// [`Keyed`] items in global sequence (the graph's sink order; the
/// arrival `seq` is part of the output order), finish into the merged
/// stream.
pub struct RegroupSink<T: Cost + Send> {
    regrouper: Regrouper<T>,
}

impl<T: Cost + Send> RegroupSink<T> {
    /// Wraps a configured regrouper as a graph sink.
    pub fn new(regrouper: Regrouper<T>) -> Self {
        RegroupSink { regrouper }
    }
}

impl<T: Cost + Send> Sink<Keyed<T>> for RegroupSink<T> {
    type Output = Regrouped<T>;

    fn absorb(&mut self, batch: Batch<Keyed<T>>) -> Result<()> {
        for keyed in batch.items {
            self.regrouper.push(keyed.key, keyed.item)?;
        }
        Ok(())
    }

    fn finish(self) -> Result<Self::Output> {
        self.regrouper.finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn key_of(x: u64) -> Key {
        x.to_be_bytes().to_vec()
    }

    fn drain(mut r: Regrouped<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((_, _, item)) = r.next_entry().unwrap() {
            out.push(item);
        }
        out
    }

    #[test]
    fn in_memory_regroup_sorts_by_key_then_seq() {
        let mut rg =
            Regrouper::new(RegroupConfig::default(), Arc::new(U64Codec)).unwrap();
        for x in [5u64, 3, 9, 3, 1] {
            rg.push(key_of(x), x).unwrap();
        }
        let out = drain(rg.finish().unwrap());
        assert_eq!(out, vec![1, 3, 3, 5, 9]);
    }

    #[test]
    fn spilled_regroup_matches_in_memory_and_stays_under_budget() {
        let dir = tempdir().unwrap();
        let budget = 400u64;
        let config = RegroupConfig {
            spill_budget: budget,
            spill_dir: Some(dir.path().join("spill")),
            merge_read_buffer: 4096,
            ..Default::default()
        };
        let mut rg = Regrouper::new(config, Arc::new(U64Codec)).unwrap();
        let items: Vec<u64> = (0..500).map(|i| (i * 7919) % 257).collect();
        for &x in &items {
            rg.push(key_of(x), x).unwrap();
        }
        let merged = rg.finish().unwrap();
        assert!(merged.stats().spill_runs > 1, "budget must force spills");
        let fan_in = merged.stats().merge_fan_in;
        let out = drain(merged);

        let mut expect: Vec<(Key, u64, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (key_of(x), i as u64, x))
            .collect();
        expect.sort();
        assert_eq!(out, expect.into_iter().map(|(_, _, x)| x).collect::<Vec<_>>());
        assert!(fan_in >= 2);
    }

    #[test]
    fn gauge_peak_bounded_by_budget_plus_merge_overhead() {
        let dir = tempdir().unwrap();
        let budget = 512u64;
        let read_buffer = 4096usize;
        let config = RegroupConfig {
            spill_budget: budget,
            spill_dir: Some(dir.path().join("spill")),
            merge_read_buffer: read_buffer,
            ..Default::default()
        };
        let mut rg = Regrouper::new(config, Arc::new(U64Codec)).unwrap();
        for x in 0..2000u64 {
            rg.push(key_of(x % 97), x).unwrap();
        }
        let merged = rg.finish().unwrap();
        let runs = merged.stats().spill_runs;
        let max_entry = 8 + 8 + ENTRY_OVERHEAD;
        let bound = budget + max_entry + runs * (read_buffer as u64 + max_entry);
        let out = drain_stats(merged);
        assert!(
            out.peak_buffered_bytes <= bound,
            "peak {} exceeds budget {} + overhead (bound {})",
            out.peak_buffered_bytes,
            budget,
            bound
        );
    }

    fn drain_stats(mut r: Regrouped<u64>) -> RegroupStats {
        while r.next_entry().unwrap().is_some() {}
        r.stats().clone()
    }

    #[test]
    fn spill_runs_publish_through_manifest() {
        let dir = tempdir().unwrap();
        let spill = dir.path().join("spill");
        let config = RegroupConfig {
            spill_budget: 256,
            spill_dir: Some(spill.clone()),
            ..Default::default()
        };
        let mut rg = Regrouper::new(config, Arc::new(U64Codec)).unwrap();
        for x in 0..200u64 {
            rg.push(key_of(x), x).unwrap();
        }
        let merged = rg.finish().unwrap();
        assert!(merged.stats().spill_runs > 0);
        let repo = ShardRepo::open(&spill).unwrap();
        let report = repo.verify().unwrap();
        assert!(report.is_clean(), "spill repo must verify clean: {report:?}");
        drop(merged);
    }

    #[test]
    fn group_iteration_returns_full_groups_in_arrival_order() {
        let mut rg =
            Regrouper::new(RegroupConfig::default(), Arc::new(U64Codec)).unwrap();
        // Key = value % 3; arrival order must be preserved in-group.
        for x in [0u64, 1, 2, 3, 4, 5, 6] {
            rg.push(vec![(x % 3) as u8], x).unwrap();
        }
        let mut merged = rg.finish().unwrap();
        let mut group = Vec::new();
        let mut groups = Vec::new();
        while merged.next_group(&mut group).unwrap().is_some() {
            groups.push(group.clone());
        }
        assert_eq!(groups, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn budget_without_dir_is_rejected() {
        let config = RegroupConfig { spill_budget: 1, ..Default::default() };
        assert!(Regrouper::<u64>::new(config, Arc::new(U64Codec)).is_err());
    }

    #[test]
    fn early_drop_releases_all_gauge_charges() {
        let gauge = Arc::new(MemoryGauge::new());
        let mut rg = Regrouper::with_gauge(
            RegroupConfig::default(),
            Arc::new(U64Codec),
            Arc::clone(&gauge),
        )
        .unwrap();
        for x in 0..100u64 {
            rg.push(key_of(x), x).unwrap();
        }
        let mut merged = rg.finish().unwrap();
        let _ = merged.next_entry().unwrap();
        assert!(gauge.current() > 0);
        drop(merged);
        assert_eq!(gauge.current(), 0, "early drop must release every charge");
    }
}
