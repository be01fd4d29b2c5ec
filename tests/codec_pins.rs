//! Byte pins for the codec (DESIGN.md §15): what the DEFLATE kernels may
//! and may not change about published bytes.
//!
//! * BGZF default-level output is **byte-stable**: the BAM a seeded
//!   dataset serialises to has the length and CRC-32 it had before the
//!   kernels were rebuilt.
//! * v1 shards carry no DEFLATE at all: same manifest length and CRC.
//! * v2 shards are only **size-monotone**: deflated columns may change
//!   block type, so the shard may shrink but never grow, must be
//!   deterministic run to run, and must decode to the same records.
//!
//! The constants were recorded from the commit before the rebuild.

use std::io::Read;

use ngs_bamx::{BamxFile, BamxVersion, ShardRepo};
use ngs_bgzf::crc32::crc32;
use ngs_converter::{BamConverter, ConvertConfig};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

const BAM_LEN: usize = 423_131;
const BAM_CRC: u32 = 3_443_360_689;
const V1_SHARD_LEN: u64 = 868_139;
const V1_SHARD_CRC: u32 = 1_211_299_790;
/// The parent's v2 shard for the same records (level-6 streams with
/// matches on every deflated column).
const V2_SHARD_LEN_BEFORE: u64 = 448_275;

fn dataset() -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_records: 4_000,
        n_chroms: 2,
        coordinate_sorted: true,
        seed: 22,
        ..Default::default()
    })
}

#[test]
fn bgzf_level6_output_is_byte_stable() {
    let bam = dataset().to_bam_bytes().unwrap();
    assert_eq!((bam.len(), crc32(&bam)), (BAM_LEN, BAM_CRC), "BAM bytes moved");
    // And still a BAM: the pinned bytes inflate to the same records.
    let plain = ngs_bgzf::decompress_sequential(&bam).unwrap();
    let mut ahead = Vec::new();
    ngs_bgzf::ReadAheadReader::new(std::io::Cursor::new(bam), 2).read_to_end(&mut ahead).unwrap();
    assert_eq!(plain, ahead);
}

#[test]
fn v1_shard_is_byte_stable_and_v2_shard_only_shrinks() {
    let ds = dataset();
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("pins.bam");
    ds.write_bam(&bam_path).unwrap();

    let v1 = BamConverter::new(ConvertConfig::with_ranks(1));
    let mut v2 = BamConverter::new(ConvertConfig::with_ranks(1));
    v2.format_version = BamxVersion::V2;

    let prep_v1 = v1.preprocess(&bam_path, dir.path().join("v1")).unwrap();
    let name = prep_v1.bamx_path.file_name().unwrap().to_str().unwrap().to_string();
    let entry = ShardRepo::open(dir.path().join("v1")).unwrap().verify_artifact(&name).unwrap();
    assert_eq!((entry.len, entry.crc32), (V1_SHARD_LEN, V1_SHARD_CRC), "v1 shard bytes moved");

    let prep_a = v2.preprocess(&bam_path, dir.path().join("v2a")).unwrap();
    let prep_b = v2.preprocess(&bam_path, dir.path().join("v2b")).unwrap();
    let a = std::fs::read(&prep_a.bamx_path).unwrap();
    let b = std::fs::read(&prep_b.bamx_path).unwrap();
    assert_eq!(a, b, "v2 shard is not deterministic run to run");
    assert!(
        a.len() as u64 <= V2_SHARD_LEN_BEFORE,
        "v2 shard grew: {} > {V2_SHARD_LEN_BEFORE}",
        a.len()
    );

    // Both layouts decode to the records the dataset was generated with.
    let f1 = BamxFile::open(&prep_v1.bamx_path).unwrap();
    let f2 = BamxFile::open(&prep_a.bamx_path).unwrap();
    assert_eq!(f2.version(), BamxVersion::V2);
    let n = f1.len();
    assert_eq!(n, 4_000);
    assert_eq!(f2.len(), n);
    let r1 = f1.read_range(0, n).unwrap();
    let r2 = f2.read_range(0, n).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1, ds.records);
}
