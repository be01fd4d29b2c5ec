//! A v2 projection is a read saving, not only a decode saving: a
//! positions-only scan must fetch strictly fewer bytes from the shard's
//! source than a full scan, and agree with it on every position.
//!
//! Each open gets its own byte-counting source, so no global counter is
//! shared with tests running in parallel.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ngs_bamx::{write_bamx_file_versioned, BamxCompression, BamxFile, BamxVersion, ColumnSet};
use ngs_bgzf::ReadAt;
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

/// In-memory shard bytes that count every byte the reader fetches.
struct CountingSource {
    bytes: Vec<u8>,
    fetched: AtomicU64,
}

impl ReadAt for CountingSource {
    fn len(&self) -> io::Result<u64> {
        ReadAt::len(&self.bytes)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let n = self.bytes.read_at(buf, offset)?;
        self.fetched.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Opens `bytes` afresh, scans every record under `set`, and returns
/// `(rname, pos, flag)` per record plus the source bytes the scan itself
/// fetched (the open's header and trailer reads excluded).
fn scan(bytes: &[u8], set: ColumnSet) -> (Vec<(Vec<u8>, i64, u16)>, u64) {
    let source = Arc::new(CountingSource { bytes: bytes.to_vec(), fetched: AtomicU64::new(0) });
    let file = BamxFile::open_with(Box::new(Arc::clone(&source)), "projection").unwrap();
    let before = source.fetched.load(Ordering::Relaxed);
    let records = file.read_range_projected(0, file.len(), set).unwrap();
    let fetched = source.fetched.load(Ordering::Relaxed) - before;
    assert_eq!(records.len() as u64, file.len());
    let positions = records.into_iter().map(|r| (r.rname, r.pos, r.flag.0)).collect();
    (positions, fetched)
}

#[test]
fn positions_only_scan_reads_fewer_shard_bytes_than_a_full_scan() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 3_000,
        n_chroms: 2,
        coordinate_sorted: true,
        seed: 14,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let path = dir.path().join("v2.bamx");
    write_bamx_file_versioned(
        &path,
        &ds.header(),
        &ds.records,
        BamxCompression::Plain,
        BamxVersion::V2,
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let (all, all_fetched) = scan(&bytes, ColumnSet::ALL);
    let (positions, positions_fetched) = scan(&bytes, ColumnSet::POSITIONS);
    assert_eq!(positions, all, "a projection changed a position");
    assert!(all_fetched > 0);
    assert!(
        positions_fetched < all_fetched,
        "positions-only scan fetched {positions_fetched} B, full scan {all_fetched} B"
    );
}
