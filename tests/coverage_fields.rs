//! Coverage requests read shard fields in place (DESIGN.md §17): the
//! bins are the same from a v1 and a v2 shard of the same records and
//! equal `CoverageHistogram::from_records` over the records themselves,
//! and on v2 the scan reads only FLAG, coordinates and CIGAR — fewer
//! shard bytes than a full decode.
//!
//! Each open gets its own byte-counting source, so no global counter is
//! shared with tests running in parallel.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ngs_bamx::{write_bamx_file_versioned, BamxCompression, BamxFile, BamxVersion};
use ngs_bgzf::ReadAt;
use ngs_simgen::{Dataset, DatasetSpec};
use ngs_stats::CoverageHistogram;
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

/// Opens `bytes` afresh and returns `(result of scan, bytes it fetched)`.
fn counted<T>(bytes: &[u8], scan: impl FnOnce(&BamxFile) -> T) -> (T, u64) {
    let source = Arc::new(CountingSource { bytes: bytes.to_vec(), fetched: AtomicU64::new(0) });
    let file = BamxFile::open_with(Box::new(Arc::clone(&source)), "coverage").unwrap();
    let before = source.fetched.load(Ordering::Relaxed);
    let out = scan(&file);
    (out, source.fetched.load(Ordering::Relaxed) - before)
}

#[test]
fn coverage_bins_agree_across_layouts_and_v2_reads_only_the_cigar() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 3_000,
        n_chroms: 2,
        coordinate_sorted: true,
        seed: 23,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let shard = |version: BamxVersion| {
        let path = dir.path().join(format!("{}.bamx", version.name()));
        write_bamx_file_versioned(&path, &ds.header(), &ds.records, BamxCompression::Plain, version)
            .unwrap();
        std::fs::read(&path).unwrap()
    };
    let (v1, v2) = (shard(BamxVersion::V1), shard(BamxVersion::V2));
    let expected = CoverageHistogram::from_records(&ds.header(), 25, &ds.records);
    // Every record, in runs of consecutive indices with gaps between.
    let indices: Vec<u64> = (0..ds.records.len() as u64).filter(|i| i % 97 != 13).collect();
    let subset = CoverageHistogram::from_records(
        &ds.header(),
        25,
        indices.iter().map(|&i| &ds.records[i as usize]),
    );

    let all: Vec<u64> = (0..ds.records.len() as u64).collect();
    for bytes in [&v1, &v2] {
        let ((hist, records), _) = counted(bytes, |f| ngs_query::engine::coverage(f, &all, 25).unwrap());
        assert_eq!(records, ds.records.len() as u64);
        assert_eq!(hist, expected);
        let ((hist, records), _) = counted(bytes, |f| ngs_query::engine::coverage(f, &indices, 25).unwrap());
        assert_eq!(records, indices.len() as u64);
        assert_eq!(hist, subset);
    }

    let (_, coverage_fetched) = counted(&v2, |f| ngs_query::engine::coverage(f, &all, 25).unwrap());
    let (_, full_fetched) = counted(&v2, |f| f.read_range(0, f.len()).unwrap().len());
    assert!(
        coverage_fetched < full_fetched,
        "coverage fetched {coverage_fetched} B, full decode {full_fetched} B"
    );
}
