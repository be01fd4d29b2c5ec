//! Preprocessing publishes the same bytes whatever `ConvertConfig::ranks`
//! is (DESIGN.md §16): `ranks` only sets how many threads inflate BGZF
//! members and how many transcode batches of records, which one thread
//! appends in stream order. The shards are compared with a *sequential
//! reference* spelled out here the way preprocessing used to work —
//! decode everything into records, `BamxLayout::compute`, write, reopen,
//! `Baix::build` — so the measured layout pass, the read-ahead reader,
//! the record-free transcode and parse, the batch fan-out and the
//! writer-built index are each checked against the code they replaced.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use ngs_bamx::{
    AnyBamxWriter, Baix, BamxCompression, BamxFile, BamxLayout, BamxVersion, ShardRepo,
};
use ngs_converter::scan::scan_records;
use ngs_converter::{
    partition_serial, BamConverter, ConvertConfig, FileSource, SamxConverter, Variant,
};
use ngs_formats::bam::{self, BamReader};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

const RANKS: [usize; 4] = [1, 2, 3, 8];

/// Unsorted, with unmapped reads, and large enough for the BAM to span
/// more BGZF members than the widest read-ahead window holds.
fn dataset() -> Dataset {
    Dataset::generate(&DatasetSpec { n_records: 6_000, seed: 24, ..Default::default() })
}

/// `(bamx bytes, baix bytes)` of `records`, built the sequential way.
fn reference_shard(
    dir: &Path,
    header: &SamHeader,
    records: &[AlignmentRecord],
    version: BamxVersion,
) -> (Vec<u8>, Vec<u8>) {
    let bamx_path = dir.join("reference.bamx");
    let layout = BamxLayout::compute(records).unwrap();
    let sink = BufWriter::new(File::create(&bamx_path).unwrap());
    let mut writer =
        AnyBamxWriter::new(version, sink, header.clone(), layout, BamxCompression::Plain).unwrap();
    for record in records {
        writer.write_record(record).unwrap();
    }
    drop(writer.finish().unwrap().into_inner().unwrap());
    let mut baix = Vec::new();
    Baix::build(&BamxFile::open(&bamx_path).unwrap()).unwrap().write_to(&mut baix).unwrap();
    (std::fs::read(&bamx_path).unwrap(), baix)
}

/// The manifest's view of one artifact: `(len, crc32, fingerprint)`.
fn manifest_entry(dir: &Path, path: &Path) -> (u64, u32, u32) {
    let name = path.file_name().unwrap().to_str().unwrap();
    let entry = ShardRepo::open(dir).unwrap().verify_artifact(name).unwrap();
    (entry.len, entry.crc32, entry.fingerprint)
}

#[test]
fn bam_preprocess_is_byte_identical_at_every_rank_count() {
    let ds = dataset();
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("reads.bam");
    ds.write_bam(&bam_path).unwrap();
    let members = std::fs::metadata(&bam_path).unwrap().len() / 20_000;
    assert!(members > 20, "fixture too small to fill a read-ahead window");

    // What the BAM holds, read back through the seeking reader.
    let mut reader = BamReader::new(File::open(&bam_path).unwrap()).unwrap();
    let header = reader.header().clone();
    let records: Vec<AlignmentRecord> = reader.records().map(|r| r.unwrap()).collect();
    assert_eq!(records, ds.records);

    for version in [BamxVersion::V1, BamxVersion::V2] {
        let (bamx, baix) = reference_shard(dir.path(), &header, &records, version);
        let mut entries = Vec::new();
        for ranks in RANKS {
            let mut converter = BamConverter::new(ConvertConfig::with_ranks(ranks));
            converter.format_version = version;
            let out = dir.path().join(format!("{}-{ranks}", version.name()));
            let prep = converter.preprocess(&bam_path, &out).unwrap();
            assert_eq!(prep.records, records.len() as u64);
            assert_eq!(prep.layout, BamxLayout::compute(&records).unwrap());
            assert_eq!(std::fs::read(&prep.bamx_path).unwrap(), bamx, "{version:?} bamx, {ranks} ranks");
            assert_eq!(std::fs::read(&prep.baix_path).unwrap(), baix, "{version:?} baix, {ranks} ranks");
            entries.push((manifest_entry(&out, &prep.bamx_path), manifest_entry(&out, &prep.baix_path)));
            let report = ShardRepo::open(&out).unwrap().verify().unwrap();
            assert!(report.is_clean() && report.stray_temps.is_empty() && report.unpublished.is_empty());
        }
        assert!(entries.windows(2).all(|w| w[0] == w[1]), "manifest entries differ across ranks");
    }
}

/// A BAM as a foreign writer may store it — integer tags wider than
/// they need, qualities partly 0xFF, a `*` read name, a reference name
/// the dictionary repeats and refIDs outside it — transcodes to the
/// shards its decoded records write, at every rank count.
#[test]
fn foreign_bam_preprocess_is_byte_identical_at_every_rank_count() {
    let ds = dataset();
    let mut header = ds.header();
    let repeated = header.references[0].clone();
    header.references.push(repeated);
    let mut raw = Vec::new();
    bam::encode_header(&header, &mut raw);
    for (i, record) in ds.records.iter().enumerate() {
        let at = raw.len();
        bam::encode_record(record, &header, &mut raw).unwrap();
        let body = at + 4;
        match i % 6 {
            0 => raw.extend_from_slice(b"XWi\x05\x00\x00\x00"),
            1 => raw.extend_from_slice(b"XWI\x2c\x01\x00\x00"),
            2 if !record.is_unmapped() => raw[body..body + 4].copy_from_slice(&3i32.to_le_bytes()),
            3 => raw[body + 20..body + 24].copy_from_slice(&3i32.to_le_bytes()),
            4 if !record.qual.is_empty() => {
                let qual_at = raw.len() - record.qual.len() - encoded_tags(record);
                raw[qual_at..qual_at + 7].fill(0xFF);
            }
            _ => {}
        }
        if i % 9 == 5 {
            // An out-of-range refID, its mate on the same one.
            raw[body..body + 4].copy_from_slice(&42i32.to_le_bytes());
            raw[body + 20..body + 24].copy_from_slice(&42i32.to_le_bytes());
        }
        if i % 10 == 7 {
            // Rename to `*`, which decodes as no name and stores as `*`.
            let l_read_name = raw[body + 8] as usize;
            raw.splice(body + 32..body + 32 + l_read_name - 1, *b"*");
            raw[body + 8] = 2;
        }
        let block_size = (raw.len() - body) as u32;
        raw[at..body].copy_from_slice(&block_size.to_le_bytes());
    }
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("foreign.bam");
    std::fs::write(&bam_path, ngs_bgzf::compress_sequential(&raw, ngs_bgzf::Options::default())).unwrap();

    let mut reader = BamReader::new(File::open(&bam_path).unwrap()).unwrap();
    let records: Vec<AlignmentRecord> = reader.records().map(|r| r.unwrap()).collect();
    for version in [BamxVersion::V1, BamxVersion::V2] {
        let (bamx, baix) = reference_shard(dir.path(), &header, &records, version);
        for ranks in RANKS {
            let mut converter = BamConverter::new(ConvertConfig::with_ranks(ranks));
            converter.format_version = version;
            let prep = converter.preprocess(&bam_path, dir.path().join(format!("{}-{ranks}", version.name()))).unwrap();
            assert_eq!(std::fs::read(&prep.bamx_path).unwrap(), bamx, "{version:?} bamx, {ranks} ranks");
            assert_eq!(std::fs::read(&prep.baix_path).unwrap(), baix, "{version:?} baix, {ranks} ranks");
        }
    }
}

/// Bytes of `record`'s tag block as `encode_record` stores it.
fn encoded_tags(record: &AlignmentRecord) -> usize {
    bam::encode_tags(&record.tags).unwrap().len()
}

#[test]
fn samx_preprocess_matches_the_sequential_reference_at_every_rank_count() {
    let ds = dataset();
    let dir = tempdir().unwrap();
    let sam_path = dir.path().join("reads.sam");
    ds.write_sam(&sam_path).unwrap();
    let source = FileSource::open(&sam_path).unwrap();
    let header = ds.header();

    for version in [BamxVersion::V1, BamxVersion::V2] {
        for ranks in RANKS {
            let mut converter = SamxConverter::new(ConvertConfig::with_ranks(ranks));
            converter.format_version = version;
            let out = dir.path().join(format!("samx-{}-{ranks}", version.name()));
            let prep = converter.preprocess_file(&sam_path, &out).unwrap();
            assert_eq!(prep.shards.len(), ranks);
            assert_eq!(prep.records(), ds.records.len() as u64);

            // Rank r's shard is the sequential build of partition r.
            let ranges = partition_serial(&source, ranks, Variant::Forward).unwrap();
            for (rank, shard) in prep.shards.iter().enumerate() {
                let mut records = Vec::new();
                scan_records(&source, ranges[rank], 1 << 16, |rec| {
                    records.push(rec);
                    Ok(())
                })
                .unwrap();
                assert_eq!(shard.records, records.len() as u64);
                let (bamx, baix) = reference_shard(dir.path(), &header, &records, version);
                let what = format!("{version:?} rank {rank} of {ranks}");
                assert_eq!(std::fs::read(&shard.bamx_path).unwrap(), bamx, "{what}");
                assert_eq!(std::fs::read(&shard.baix_path).unwrap(), baix, "{what}");
            }
            let report = ShardRepo::open(&out).unwrap().verify().unwrap();
            assert!(report.is_clean() && report.stray_temps.is_empty() && report.unpublished.is_empty());
            assert_eq!(report.verified.len(), 2 * ranks);
        }
    }
}
