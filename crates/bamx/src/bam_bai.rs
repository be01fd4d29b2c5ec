//! A BAI-style index over *BAM files themselves* (as opposed to
//! [`crate::baix`] which indexes BAMX shards): UCSC bins map to chunks of
//! BGZF virtual offsets, so a region query seeks straight into the
//! compressed file — the indexing idea the paper credits to the BAM
//! format (Section II-B2), completing the substrate.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use ngs_bgzf::{BgzfReader, VirtualOffset};
use ngs_formats::bam::BamReader;
use ngs_formats::binning::{reg2bin, reg2bins};
use ngs_formats::error::{Error, Result};
use ngs_formats::record::AlignmentRecord;

use crate::region::Region;

/// Index file magic.
pub const MAGIC: [u8; 5] = *b"NBAI\x01";

/// A contiguous run of records in the compressed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Virtual offset of the first record.
    pub start: VirtualOffset,
    /// Virtual offset just past the last record.
    pub end: VirtualOffset,
}

/// Bin → chunks for one reference sequence.
type RefBins = BTreeMap<u16, Vec<Chunk>>;

/// The BAM index: per-reference binned chunk lists.
#[derive(Debug, Clone, Default)]
pub struct BamIndex {
    /// One entry per reference sequence (same order as the header).
    pub refs: Vec<RefBins>,
    /// Records that were unmapped (no bin), for bookkeeping.
    pub unmapped: u64,
}

impl BamIndex {
    /// Builds the index by streaming the BAM once, recording each
    /// record's virtual-offset span into its bin.
    ///
    /// The input should be coordinate-sorted for chunks to stay few and
    /// contiguous, matching standard `samtools index` expectations (the
    /// index is still *correct* on unsorted input, just larger).
    pub fn build(bam_path: impl AsRef<Path>) -> Result<Self> {
        let mut reader = BamReader::new(BufReader::new(File::open(bam_path)?))?;
        let n_refs = reader.header().reference_count();
        let header = reader.header().clone();
        let mut refs: Vec<RefBins> = vec![RefBins::new(); n_refs];
        let mut unmapped = 0u64;

        let mut pos = reader.virtual_position();
        while let Some(rec) = reader.read_record()? {
            let end = reader.virtual_position();
            match (rec.start0(), rec.end0(), header.reference_id(&rec.rname)) {
                (Some(s), Some(e), Some(tid)) => {
                    let bin = reg2bin(s, e);
                    let chunks = refs[tid].entry(bin).or_default();
                    // Extend the previous chunk when adjacent (the common
                    // case in sorted input).
                    match chunks.last_mut() {
                        Some(last) if last.end == pos => last.end = end,
                        _ => chunks.push(Chunk { start: pos, end }),
                    }
                }
                _ => unmapped += 1,
            }
            pos = end;
        }
        Ok(BamIndex { refs, unmapped })
    }

    /// Chunks possibly containing records overlapping `region` on
    /// reference `tid`, merged and sorted.
    pub fn query(&self, tid: usize, region: &Region) -> Vec<Chunk> {
        let Some(bins) = self.refs.get(tid) else {
            return Vec::new();
        };
        let mut chunks: Vec<Chunk> = Vec::new();
        for bin in reg2bins(region.start0, region.end0.max(region.start0 + 1)) {
            if let Some(list) = bins.get(&bin) {
                chunks.extend_from_slice(list);
            }
        }
        chunks.sort_by_key(|c| c.start);
        // Merge overlapping/adjacent chunks to minimize seeks.
        let mut merged: Vec<Chunk> = Vec::with_capacity(chunks.len());
        for c in chunks {
            match merged.last_mut() {
                Some(last) if c.start <= last.end => last.end = last.end.max(c.end),
                _ => merged.push(c),
            }
        }
        merged
    }

    /// Total indexed chunks.
    pub fn chunk_count(&self) -> usize {
        self.refs.iter().flat_map(|r| r.values()).map(Vec::len).sum()
    }

    /// Serializes the index.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC)?;
        w.write_all(&(self.refs.len() as u32).to_le_bytes())?;
        w.write_all(&self.unmapped.to_le_bytes())?;
        for bins in &self.refs {
            w.write_all(&(bins.len() as u32).to_le_bytes())?;
            for (&bin, chunks) in bins {
                w.write_all(&bin.to_le_bytes())?;
                w.write_all(&(chunks.len() as u32).to_le_bytes())?;
                for c in chunks {
                    w.write_all(&u64::from(c.start).to_le_bytes())?;
                    w.write_all(&u64::from(c.end).to_le_bytes())?;
                }
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Loads an index.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 5];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(Error::InvalidRecord("bad NBAI magic".into()));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        let mut b2 = [0u8; 2];
        r.read_exact(&mut b4)?;
        let n_refs = u32::from_le_bytes(b4) as usize;
        r.read_exact(&mut b8)?;
        let unmapped = u64::from_le_bytes(b8);
        let mut refs = Vec::with_capacity(n_refs);
        for _ in 0..n_refs {
            r.read_exact(&mut b4)?;
            let n_bins = u32::from_le_bytes(b4) as usize;
            let mut bins = RefBins::new();
            for _ in 0..n_bins {
                r.read_exact(&mut b2)?;
                let bin = u16::from_le_bytes(b2);
                r.read_exact(&mut b4)?;
                let n_chunks = u32::from_le_bytes(b4) as usize;
                let mut chunks = Vec::with_capacity(n_chunks);
                for _ in 0..n_chunks {
                    r.read_exact(&mut b8)?;
                    let start = VirtualOffset::from(u64::from_le_bytes(b8));
                    r.read_exact(&mut b8)?;
                    let end = VirtualOffset::from(u64::from_le_bytes(b8));
                    chunks.push(Chunk { start, end });
                }
                bins.insert(bin, chunks);
            }
            refs.push(bins);
        }
        Ok(BamIndex { refs, unmapped })
    }
}

/// Fetches all records overlapping `region` from an indexed BAM, seeking
/// only into the indexed chunks.
pub fn fetch<R: Read + Seek>(
    reader: &mut BamReader<BgzfReader<R>>,
    index: &BamIndex,
    region: &Region,
) -> Result<Vec<AlignmentRecord>> {
    let tid = reader
        .header()
        .reference_id(&region.name)
        .ok_or_else(|| Error::UnknownReference(String::from_utf8_lossy(&region.name).into()))?;
    let mut out = Vec::new();
    for chunk in index.query(tid, region) {
        reader.seek_virtual(chunk.start)?;
        while reader.virtual_position() < chunk.end {
            let Some(rec) = reader.read_record()? else {
                break;
            };
            if let (Some(s), Some(e)) = (rec.start0(), rec.end0()) {
                if rec.rname == region.name && region.overlaps(s, e) {
                    out.push(rec);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::{Dataset, DatasetSpec};
    use std::io::Cursor;
    use tempfile::tempdir;

    fn sorted_bam(n: usize) -> (tempfile::TempDir, std::path::PathBuf, Dataset) {
        let dir = tempdir().unwrap();
        let ds = Dataset::generate(&DatasetSpec {
            n_records: n,
            coordinate_sorted: true,
            ..Default::default()
        });
        let path = dir.path().join("in.bam");
        ds.write_bam(&path).unwrap();
        (dir, path, ds)
    }

    fn open(path: &Path) -> BamReader<BgzfReader<Cursor<Vec<u8>>>> {
        BamReader::new(Cursor::new(std::fs::read(path).unwrap())).unwrap()
    }

    #[test]
    fn fetch_matches_bruteforce() {
        let (_d, path, ds) = sorted_bam(1500);
        let index = BamIndex::build(&path).unwrap();
        let header = ds.header();
        let chr1_len = header.references[0].length as i64;
        for (lo, hi) in [(0, chr1_len / 4), (chr1_len / 3, chr1_len / 2), (0, chr1_len)] {
            let region = Region::new("chr1", lo, hi.max(lo + 1)).unwrap();
            let mut reader = open(&path);
            let fetched = fetch(&mut reader, &index, &region).unwrap();
            let expected: Vec<_> = ds
                .records
                .iter()
                .filter(|r| {
                    r.rname == b"chr1"
                        && r.start0().zip(r.end0()).map(|(s, e)| region.overlaps(s, e)).unwrap_or(false)
                })
                .cloned()
                .collect();
            assert_eq!(fetched, expected, "region {region}");
        }
    }

    #[test]
    fn sorted_input_gives_few_chunks() {
        let (_d, path, _) = sorted_bam(2000);
        let index = BamIndex::build(&path).unwrap();
        // Sorted input coalesces adjacent records; far fewer chunks than
        // records.
        assert!(index.chunk_count() < 600, "chunks {}", index.chunk_count());
    }

    #[test]
    fn unmapped_counted_not_indexed() {
        let (_d, path, ds) = sorted_bam(800);
        let index = BamIndex::build(&path).unwrap();
        let unmapped = ds.records.iter().filter(|r| r.is_unmapped()).count() as u64;
        assert_eq!(index.unmapped, unmapped);
    }

    #[test]
    fn save_load_roundtrip() {
        let (_d, path, ds) = sorted_bam(700);
        let index = BamIndex::build(&path).unwrap();
        let idx_path = path.with_extension("nbai");
        index.save(&idx_path).unwrap();
        let loaded = BamIndex::load(&idx_path).unwrap();
        assert_eq!(loaded.unmapped, index.unmapped);
        assert_eq!(loaded.chunk_count(), index.chunk_count());
        // Queries agree.
        let region = Region::new("chr1", 1000, 50_000).unwrap();
        assert_eq!(loaded.query(0, &region), index.query(0, &region));
        let _ = ds;
    }

    #[test]
    fn query_unknown_reference_empty() {
        let (_d, path, _) = sorted_bam(100);
        let index = BamIndex::build(&path).unwrap();
        let region = Region::new("chrZ", 0, 100).unwrap();
        assert!(index.query(99, &region).is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tempdir().unwrap();
        let p = dir.path().join("x.nbai");
        std::fs::write(&p, b"JUNKJUNK").unwrap();
        assert!(BamIndex::load(&p).is_err());
    }
}
