//! BAIX: the paper's index over a BAMX shard.
//!
//! Stores `(starting position, alignment index)` pairs sorted by starting
//! position (Figure 4 of the paper). A region query binary-searches the
//! sorted keys, mapping a genomic interval to a *BAIX region* — a
//! contiguous range of index entries — which is then split evenly across
//! processors for partial conversion.
//!
//! Loading goes through [`ReadAt`] so indexes can come from files, memory,
//! or fault-injecting wrappers; malformed bytes surface as structured
//! [`Error::Decode`] values, never panics or unbounded allocations.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::Write;
use std::path::Path;

use ngs_bgzf::ReadAt;
use ngs_formats::error::{DecodeErrorKind, Error, Result};

use crate::file::BamxFile;
use crate::region::Region;

/// BAIX file magic.
pub const MAGIC: [u8; 5] = *b"BAIX\x01";

/// One index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaixEntry {
    /// Sortable position key: `(ref_id, pos0)` packed so unmapped records
    /// (`ref_id = -1`) order last.
    pub key: u64,
    /// Index of the alignment inside the BAMX shard.
    pub index: u64,
}

/// Packs a `(ref_id, pos0)` pair into a sortable key. Unmapped records
/// (negative ids/positions) sort after every mapped record.
#[inline]
pub fn position_key(ref_id: i32, pos0: i32) -> u64 {
    ((ref_id as u32 as u64) << 32) | (pos0 as u32 as u64)
}

/// The in-memory BAIX index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baix {
    /// Entries sorted by `key` (ties broken by shard index).
    pub entries: Vec<BaixEntry>,
}

impl Baix {
    /// Builds the index for a BAMX shard by scanning its position columns.
    ///
    /// The preprocessing path does not come through here — the shard
    /// writers collect the same keys as records stream past
    /// (`finish_indexed`) — so this is the reindex entry point and the
    /// oracle the writer-built index is tested against.
    pub fn build(file: &BamxFile) -> Result<Self> {
        let positions = file.positions()?;
        Ok(Self::from_position_keys(
            positions.into_iter().map(|(ref_id, pos0)| position_key(ref_id, pos0)),
        ))
    }

    /// Builds the index from each record's [`position_key`], given in
    /// shard order: entry `i` indexes record `i`, and the result is
    /// sorted by `(key, index)`.
    pub fn from_position_keys(keys: impl IntoIterator<Item = u64>) -> Self {
        let mut entries: Vec<BaixEntry> = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| BaixEntry { key, index: i as u64 })
            .collect();
        entries.sort_by_key(|e| (e.key, e.index));
        Baix { entries }
    }

    /// Number of indexed alignments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no alignments are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maps a genomic region to the *BAIX region*: the `lo..hi` range of
    /// index entries whose alignment start positions fall inside it.
    ///
    /// Region bounds are `i64` but stored start positions are `i32`; a
    /// bound past `i32::MAX` saturates to "after every position on this
    /// reference" instead of wrapping negative (which used to pack into a
    /// huge u32 key and silently return the wrong — usually empty —
    /// range).
    pub fn locate(&self, ref_id: i32, region: &Region) -> std::ops::Range<usize> {
        // Saturating key: any in-domain bound packs exactly as
        // `position_key` packs it; a bound past i32::MAX clamps to
        // 2^31, one past the largest mapped position and so the supremum
        // of every mapped key on this reference. Negative bounds (the
        // Region constructor rejects them, but stay total anyway) clamp
        // to position 0. Plain addition on the clamped value — the
        // earlier `wrapping_add(1)` on a packed key gave a different
        // answer in the release profile than in debug.
        let key_for = |bound: i64| -> u64 {
            ((ref_id as u32 as u64) << 32) + bound.clamp(0, i32::MAX as i64 + 1) as u64
        };
        let lo_key = key_for(region.start0);
        let hi_key = key_for(region.end0);
        let lo = self.entries.partition_point(|e| e.key < lo_key);
        let hi = self.entries.partition_point(|e| e.key < hi_key);
        lo..hi
    }

    /// The shard record indices for a BAIX region (entries `lo..hi`).
    pub fn shard_indices(&self, range: std::ops::Range<usize>) -> Vec<u64> {
        self.entries[range].iter().map(|e| e.index).collect()
    }

    /// Serializes the index to a writer (the exact bytes of
    /// [`Baix::save`], usable with a staged repository artifact).
    ///
    /// The bytes reach `w` in chunks of at most 64 KiB, so an unbuffered
    /// sink — a staged artifact checksums and issues a `write(2)` per
    /// call — sees one write per 4096 entries rather than two per entry.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        const CHUNK: usize = 64 * 1024;
        let mut buf = Vec::with_capacity(CHUNK.min(MAGIC.len() + 8 + self.entries.len() * 16));
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            if buf.len() + 16 > CHUNK {
                w.write_all(&buf)?;
                buf.clear();
            }
            buf.extend_from_slice(&e.key.to_le_bytes());
            buf.extend_from_slice(&e.index.to_le_bytes());
        }
        w.write_all(&buf)?;
        w.flush()?;
        Ok(())
    }

    /// Serializes the index to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.write_to(&mut File::create(path)?)
    }

    /// Loads an index from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let context = path.as_ref().display().to_string();
        let file = File::open(path)?;
        Self::load_with(&file, &context)
    }

    /// Loads an index from an arbitrary positional-read source. `context`
    /// names the index in decode errors (usually its path).
    pub fn load_with(source: &dyn ReadAt, context: &str) -> Result<Self> {
        let total_len = source.len()?;
        const HEADER_LEN: u64 = 5 + 8;
        if total_len < HEADER_LEN {
            return Err(Error::decode(
                DecodeErrorKind::Truncated,
                total_len,
                context,
                format!("file is {total_len} bytes, below the {HEADER_LEN}-byte BAIX header"),
            ));
        }
        let mut head = [0u8; HEADER_LEN as usize];
        source.read_exact_at(&mut head, 0)?;
        if head[..5] != MAGIC {
            return Err(Error::decode(DecodeErrorKind::BadMagic, 0, context, "bad BAIX magic"));
        }
        let mut nb = [0u8; 8];
        nb.copy_from_slice(&head[5..13]);
        let n = u64::from_le_bytes(nb);
        // A BAIX file is *exactly* header + n 16-byte entries; validate the
        // count against the real size before reserving a single byte, so a
        // corrupt count can neither overflow arithmetic nor size a buffer.
        match n.checked_mul(16).and_then(|b| b.checked_add(HEADER_LEN)) {
            Some(need) if need == total_len => {}
            Some(need) => {
                let kind = if need > total_len {
                    DecodeErrorKind::Truncated
                } else {
                    DecodeErrorKind::Corrupt
                };
                return Err(Error::decode(
                    kind,
                    5,
                    context,
                    format!("entry count {n} implies {need} bytes but the file has {total_len}"),
                ));
            }
            None => {
                return Err(Error::decode(
                    DecodeErrorKind::Implausible,
                    5,
                    context,
                    format!("entry count {n} overflows the index size"),
                ));
            }
        }
        let mut body = vec![0u8; (total_len - HEADER_LEN) as usize];
        source.read_exact_at(&mut body, HEADER_LEN)?;
        let mut entries = Vec::with_capacity(n as usize);
        for chunk in body.chunks_exact(16) {
            let mut k = [0u8; 8];
            let mut i = [0u8; 8];
            k.copy_from_slice(&chunk[0..8]);
            i.copy_from_slice(&chunk[8..16]);
            entries.push(BaixEntry {
                key: u64::from_le_bytes(k),
                index: u64::from_le_bytes(i),
            });
        }
        // Defensive: entries must be sorted for binary search to be valid.
        if !entries.windows(2).all(|w| (w[0].key, w[0].index) <= (w[1].key, w[1].index)) {
            return Err(Error::decode(
                DecodeErrorKind::Corrupt,
                HEADER_LEN,
                context,
                "BAIX entries not sorted",
            ));
        }
        Ok(Baix { entries })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::file::{write_bamx_file, BamxCompression};
    use ngs_formats::header::{ReferenceSequence, SamHeader};
    use ngs_formats::record::AlignmentRecord;
    use ngs_formats::sam;
    use tempfile::tempdir;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 1_000_000 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 1_000_000 },
        ])
    }

    /// Records deliberately NOT in coordinate order, to prove the index
    /// sorts (Figure 4 of the paper shows shuffled alignment indices).
    fn shuffled_records() -> Vec<AlignmentRecord> {
        let positions = [500i64, 100, 900, 300, 700, 200, 800, 400, 600, 1000];
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let chrom = if i % 3 == 2 { "chr2" } else { "chr1" };
                let line = format!(
                    "r{i}\t0\t{chrom}\t{p}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII"
                );
                sam::parse_record(line.as_bytes(), 1).unwrap()
            })
            .collect()
    }

    #[test]
    fn build_sorts_by_position() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();
        assert_eq!(baix.len(), recs.len());
        assert!(baix.entries.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn locate_finds_starts_in_region() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();

        // chr1 records (1-based positions): r0@500, r1@100, r3@300,
        // r4@700, r6@800, r7@400, r9@1000 → 0-based starts
        // 499,99,299,699,799,399,999.
        let region = Region::new("chr1", 250, 650).unwrap();
        let range = baix.locate(0, &region);
        let indices = baix.shard_indices(range);
        // Starts inside [250,650): 299(r3), 399(r7), 499(r0).
        let mut names: Vec<String> = indices
            .iter()
            .map(|&i| String::from_utf8(f.read_record(i).unwrap().qname).unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["r0", "r3", "r7"]);
    }

    #[test]
    fn locate_respects_chromosome() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();

        let whole_chr2 = Region::new("chr2", 0, 1_000_000).unwrap();
        let range = baix.locate(1, &whole_chr2);
        assert_eq!(range.len(), 3); // records 2, 5, 8 are on chr2... indices 2,5,8 → i%3==2
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tempdir().unwrap();
        let bamx_path = dir.path().join("t.bamx");
        let baix_path = dir.path().join("t.baix");
        let recs = shuffled_records();
        write_bamx_file(&bamx_path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&bamx_path).unwrap();
        let baix = Baix::build(&f).unwrap();
        baix.save(&baix_path).unwrap();
        let loaded = Baix::load(&baix_path).unwrap();
        assert_eq!(loaded, baix);
    }

    #[test]
    fn unmapped_sort_last() {
        assert!(position_key(-1, -1) > position_key(1_000, i32::MAX));
        assert!(position_key(0, 5) < position_key(0, 6));
        assert!(position_key(0, i32::MAX) < position_key(1, 0));
    }

    #[test]
    fn corrupt_file_rejected() {
        let dir = tempdir().unwrap();
        let p = dir.path().join("bad.baix");
        std::fs::write(&p, b"WRONG").unwrap();
        assert!(Baix::load(&p).is_err());
        // Unsorted entries rejected.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        assert!(Baix::load(&p).is_err());
    }

    #[test]
    fn empty_region_empty_range() {
        let baix = Baix { entries: vec![] };
        let region = Region::new("chr1", 0, 100).unwrap();
        assert!(baix.locate(0, &region).is_empty());
    }

    #[test]
    fn region_past_last_alignment() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();

        // Last chr1 start is 0-based 999; querying beyond it must yield an
        // empty range anchored where chr1 entries end (not 0..0), so
        // downstream even-splitting sees zero work without special cases.
        let region = Region::new("chr1", 2_000, 3_000).unwrap();
        let range = baix.locate(0, &region);
        assert!(range.is_empty());
        let chr1_end = baix.entries.partition_point(|e| e.key < position_key(1, 0));
        assert_eq!(range, chr1_end..chr1_end);
        assert!(baix.shard_indices(range).is_empty());

        // Past everything on the last chromosome: empty range at len().
        let region = Region::new("chr2", 500_000, 600_000).unwrap();
        let range = baix.locate(1, &region);
        assert_eq!(range, baix.len()..baix.len());
    }

    /// Regression: region bounds are i64 and may legitimately exceed
    /// 2^31 (e.g. "everything from here on" queries built with
    /// `Region::new`). The old code truncated them through `as i32`,
    /// wrapping negative and packing to a huge u32 key — a query like
    /// [100, 2^31+10) silently returned an empty range. Bounds past
    /// `i32::MAX` must saturate to "after every position on this
    /// reference".
    #[test]
    fn locate_saturates_bounds_past_i32_max() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();

        // chr1 0-based starts: 99,299,399,499,699,799,999 (7 records).
        // End bound past 2^31 must behave like "to the end of chr1".
        let huge_end = Region::new("chr1", 100, (1i64 << 31) + 10).unwrap();
        let range = baix.locate(0, &huge_end);
        assert_eq!(range.len(), 6, "starts in [100, 2^31+10) on chr1");
        let whole = Region::new("chr1", 0, i64::MAX).unwrap();
        assert_eq!(baix.locate(0, &whole).len(), 7);
        // chr2 must not leak into a saturated chr1 query.
        let on_chr2 = baix.locate(1, &Region::new("chr2", 0, i64::MAX).unwrap());
        assert_eq!(on_chr2.len(), 3);
        // Start bound past i32::MAX: empty, anchored past chr1's entries.
        let past = Region::new("chr1", (1i64 << 31) + 1, 1i64 << 32).unwrap();
        assert!(baix.locate(0, &past).is_empty());
    }

    /// A sink that counts `write` calls, as an unbuffered staged artifact
    /// would turn each into a `write(2)` and a CRC update.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression: `write_to` issued two 8-byte writes per entry — 24 000
    /// syscalls per 12 000-record shard into an unbuffered staged
    /// artifact. It now hands the sink 64 KiB at a time, same bytes.
    #[test]
    fn write_to_issues_a_handful_of_writes_and_the_same_bytes() {
        let baix = Baix::from_position_keys((0..10_000u64).map(|i| position_key(0, (i * 7 % 9_001) as i32)));
        let mut sink = CountingSink { bytes: Vec::new(), writes: 0 };
        baix.write_to(&mut sink).unwrap();
        assert!(sink.writes <= 4, "{} writes for 10 000 entries", sink.writes);

        // Byte-for-byte what the per-field serialisation produced.
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&10_000u64.to_le_bytes());
        for e in &baix.entries {
            expected.extend_from_slice(&e.key.to_le_bytes());
            expected.extend_from_slice(&e.index.to_le_bytes());
        }
        assert_eq!(sink.bytes, expected);
        assert_eq!(Baix::load_with(&sink.bytes.as_slice(), "mem").unwrap(), baix);

        // Chunk boundaries: empty, one entry, exactly one chunk, one over.
        for n in [0u64, 1, 4095, 4096, 4097] {
            let baix = Baix::from_position_keys((0..n).map(|i| position_key(1, i as i32)));
            let mut sink = CountingSink { bytes: Vec::new(), writes: 0 };
            baix.write_to(&mut sink).unwrap();
            assert_eq!(sink.bytes.len() as u64, 13 + 16 * n);
            assert_eq!(Baix::load_with(&sink.bytes.as_slice(), "mem").unwrap(), baix, "{n} entries");
        }
    }

    /// The index a writer hands back from `finish_indexed` is the index
    /// `Baix::build` derives by reopening the finished shard — on
    /// unsorted input, with unmapped records, for both versions and both
    /// v1 body compressions.
    #[test]
    fn writer_built_index_equals_build_over_the_finished_shard() {
        use crate::file::{AnyBamxWriter, BamxVersion};
        use crate::layout::BamxLayout;

        let mut recs = shuffled_records();
        for (i, line) in [
            "u0\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII",
            "dup\t0\tchr1\t500\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII",
            "u1\t4\t*\t0\t0\t*\t*\t0\t0\tAC\tII",
        ]
        .iter()
        .enumerate()
        {
            recs.insert(3 * i + 1, sam::parse_record(line.as_bytes(), 1).unwrap());
        }
        // Enough records to span several v2 blocks.
        let recs: Vec<AlignmentRecord> = recs.iter().cycle().take(2_500).cloned().collect();
        let layout = BamxLayout::compute(&recs).unwrap();
        let dir = tempdir().unwrap();
        for (version, compression) in [
            (BamxVersion::V1, BamxCompression::Plain),
            (BamxVersion::V1, BamxCompression::Bgzf),
            (BamxVersion::V2, BamxCompression::Plain),
        ] {
            let path = dir.path().join("w.bamx");
            let sink = std::io::BufWriter::new(File::create(&path).unwrap());
            let mut w = AnyBamxWriter::new(version, sink, header(), layout, compression).unwrap();
            for r in &recs {
                w.write_record(r).unwrap();
            }
            let (sink, from_writer) = w.finish_indexed().unwrap();
            drop(sink.into_inner().unwrap());
            let from_shard = Baix::build(&BamxFile::open(&path).unwrap()).unwrap();
            assert_eq!(from_writer.len(), recs.len());
            assert_eq!(from_writer, from_shard, "{version:?} {compression:?}");
        }
    }

    #[test]
    fn gap_between_alignments_is_empty() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.bamx");
        let recs = shuffled_records();
        write_bamx_file(&path, &header(), &recs, BamxCompression::Plain).unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();

        // chr1 0-based starts: 99,299,399,499,699,799,999. [100,299) falls
        // in the gap after the first start.
        let region = Region::new("chr1", 100, 299).unwrap();
        let range = baix.locate(0, &region);
        assert!(range.is_empty());
        assert_eq!(range, 1..1);
    }

    #[test]
    fn single_record_shard_boundaries() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("one.bamx");
        let rec =
            sam::parse_record(b"solo\t0\tchr1\t500\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII", 1)
                .unwrap();
        write_bamx_file(&path, &header(), std::slice::from_ref(&rec), BamxCompression::Plain)
            .unwrap();
        let f = BamxFile::open(&path).unwrap();
        let baix = Baix::build(&f).unwrap();
        assert_eq!(baix.len(), 1);

        // 1-based 500 → 0-based 499. Regions covering, touching, and
        // just missing the record on either side.
        let hit = |s, e| baix.locate(0, &Region::new("chr1", s, e).unwrap()).len();
        assert_eq!(hit(0, 1_000_000), 1); // whole chromosome
        assert_eq!(hit(499, 500), 1); // exactly the start base
        assert_eq!(hit(0, 499), 0); // half-open end excludes the start
        assert_eq!(hit(500, 1_000), 0); // begins one past the start
        // Wrong chromosome never matches.
        assert_eq!(baix.locate(1, &Region::new("chr2", 0, 1_000_000).unwrap()).len(), 0);
    }
}
