//! Output replacement (`RankOutput`, DESIGN.md §19): a conversion into a
//! directory that already holds outputs replaces each part file — it
//! unlinks a regular file at the path and creates a new file — instead
//! of truncating and writing through it. The bytes are the same either way;
//! what these tests pin down is what "replaced" means for the things
//! that can sit at a part path.

use std::io::{ErrorKind, Write};
use std::os::unix::fs::symlink;
use std::path::{Path, PathBuf};

use ngs_bamx::BamxFile;
use ngs_converter::bam_converter::convert_index_list;
use ngs_converter::runtime::{RankOutput, SINGLE_FILE_BUFFER};
use ngs_converter::{BamConverter, ConvertConfig, ConvertReport, SamConverter, TargetFormat};
use ngs_formats::error::Error;
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

fn dataset() -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_records: 1_200,
        coordinate_sorted: true,
        ..Default::default()
    })
}

/// Writes the dataset as `input.bam`, preprocesses it, and returns the
/// BAMX shard path.
fn shard(dir: &Path) -> PathBuf {
    let bam = dir.join("input.bam");
    dataset().write_bam(&bam).unwrap();
    BamConverter::new(ConvertConfig::with_ranks(1))
        .preprocess(&bam, dir.join("shards"))
        .unwrap()
        .bamx_path
}

fn contents(report: &ConvertReport) -> Vec<Vec<u8>> {
    report.outputs.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

#[test]
fn converting_twice_into_one_directory_gives_identical_parts() {
    let dir = tempdir().unwrap();
    let bamx = shard(dir.path());
    let sam = dir.path().join("input.sam");
    dataset().write_sam(&sam).unwrap();
    let bam_conv = BamConverter::new(ConvertConfig::with_ranks(3));
    let sam_conv = SamConverter::new(ConvertConfig::with_ranks(3));
    let out = dir.path().join("out");
    for target in [TargetFormat::Sam, TargetFormat::Json, TargetFormat::Bam] {
        let first = bam_conv.convert_bamx(&bamx, target, &out).unwrap();
        let second = bam_conv.convert_bamx(&bamx, target, &out).unwrap();
        assert_eq!(first.outputs, second.outputs, "{target:?}");
        assert_eq!(first.bytes_out(), second.bytes_out(), "{target:?}");
        let bytes = contents(&second);
        assert_eq!(bytes.iter().map(|b| b.len() as u64).sum::<u64>(), second.bytes_out());
        // A fresh directory holds the same bytes as the reused one.
        let fresh = bam_conv.convert_bamx(&bamx, target, dir.path().join("fresh")).unwrap();
        assert_eq!(contents(&fresh), bytes, "{target:?}");
    }
    for target in [TargetFormat::Bed, TargetFormat::Bam] {
        let first = sam_conv.convert_file(&sam, target, &out).unwrap();
        let second = sam_conv.convert_file(&sam, target, &out).unwrap();
        assert_eq!(contents(&first), contents(&second), "{target:?}");
        assert_eq!(first.bytes_out(), second.bytes_out(), "{target:?}");
    }
}

#[test]
fn a_symlink_at_a_part_path_is_replaced_and_its_target_untouched() {
    let dir = tempdir().unwrap();
    let bamx = shard(dir.path());
    let out = dir.path().join("out");
    std::fs::create_dir_all(&out).unwrap();
    let victim = dir.path().join("victim.txt");
    std::fs::write(&victim, b"keep me\n").unwrap();
    let part = out.join("input.part0000.sam");
    symlink(&victim, &part).unwrap();

    let report = BamConverter::new(ConvertConfig::with_ranks(1))
        .convert_bamx(&bamx, TargetFormat::Sam, &out)
        .unwrap();
    assert_eq!(report.outputs, vec![part.clone()]);
    assert!(!std::fs::symlink_metadata(&part).unwrap().file_type().is_symlink());
    assert_eq!(std::fs::read(&victim).unwrap(), b"keep me\n");
    assert_eq!(std::fs::read(&part).unwrap().len() as u64, report.bytes_out());
}

#[test]
fn a_symlink_to_a_device_is_written_through_and_a_dangling_one_replaced() {
    let dir = tempdir().unwrap();
    let null = dir.path().join("null.sam");
    symlink("/dev/null", &null).unwrap();
    let mut out = RankOutput::replace(&null, SINGLE_FILE_BUFFER).unwrap();
    out.write_all(b"discarded\n").unwrap();
    assert_eq!(out.finish().unwrap(), (null.clone(), 10));
    assert!(std::fs::symlink_metadata(&null).unwrap().file_type().is_symlink());
    assert_eq!(std::fs::read_link(&null).unwrap(), Path::new("/dev/null"));

    // A symlink whose target does not exist is replaced; the target is
    // not created.
    let dangling = dir.path().join("dangling.sam");
    let missing = dir.path().join("missing.sam");
    symlink(&missing, &dangling).unwrap();
    let mut out = RankOutput::replace(&dangling, SINGLE_FILE_BUFFER).unwrap();
    out.write_all(b"new\n").unwrap();
    out.finish().unwrap();
    assert!(std::fs::symlink_metadata(&dangling).unwrap().file_type().is_file());
    assert_eq!(std::fs::read(&dangling).unwrap(), b"new\n");
    assert!(!missing.exists());
}

#[test]
fn a_hard_link_at_a_part_path_is_replaced_and_the_other_name_keeps_its_bytes() {
    let dir = tempdir().unwrap();
    let bamx = shard(dir.path());
    let out = dir.path().join("out");
    std::fs::create_dir_all(&out).unwrap();
    let other = dir.path().join("other-name.bed");
    std::fs::write(&other, b"old bytes\n").unwrap();
    let part = out.join("input.part0000.bed");
    std::fs::hard_link(&other, &part).unwrap();

    BamConverter::new(ConvertConfig::with_ranks(1))
        .convert_bamx(&bamx, TargetFormat::Bed, &out)
        .unwrap();
    assert_eq!(std::fs::read(&other).unwrap(), b"old bytes\n");
    assert_ne!(std::fs::read(&part).unwrap(), b"old bytes\n");
}

#[test]
fn a_read_only_part_file_is_replaced() {
    let dir = tempdir().unwrap();
    let bamx = shard(dir.path());
    let out = dir.path().join("out");
    let conv = BamConverter::new(ConvertConfig::with_ranks(2));
    let reference = contents(&conv.convert_bamx(&bamx, TargetFormat::Fastq, &out).unwrap());
    let part = out.join("input.part0001.fastq");
    std::fs::write(&part, b"stale\n").unwrap();
    let mut perms = std::fs::metadata(&part).unwrap().permissions();
    perms.set_readonly(true);
    std::fs::set_permissions(&part, perms).unwrap();

    let report = conv.convert_bamx(&bamx, TargetFormat::Fastq, &out).unwrap();
    assert_eq!(contents(&report), reference);
    // A new file, not the old inode written through: it has the
    // creation mode, not the read-only one.
    assert!(!std::fs::metadata(&part).unwrap().permissions().readonly());
}

#[test]
fn a_directory_at_a_part_path_is_a_typed_error_and_other_parts_are_whole() {
    let dir = tempdir().unwrap();
    let bamx = shard(dir.path());
    let conv = BamConverter::new(ConvertConfig::with_ranks(3));
    let reference = conv.convert_bamx(&bamx, TargetFormat::Sam, dir.path().join("ref")).unwrap();

    let out = dir.path().join("out");
    let blocker = out.join("input.part0001.sam");
    std::fs::create_dir_all(blocker.join("inside")).unwrap();
    let err = conv.convert_bamx(&bamx, TargetFormat::Sam, &out).unwrap_err();
    assert!(
        matches!(&err, Error::Io(e) if e.kind() == ErrorKind::IsADirectory),
        "expected an is-a-directory I/O error, got {err:?}"
    );
    // The directory is left alone, and every part that was written is
    // whole: byte-identical to the reference run's part of that rank.
    assert!(blocker.join("inside").is_dir());
    for (rank, expected) in reference.outputs.iter().enumerate() {
        if rank == 1 {
            continue;
        }
        let part = out.join(expected.file_name().unwrap());
        if part.exists() {
            assert_eq!(std::fs::read(&part).unwrap(), std::fs::read(expected).unwrap());
        }
    }
}

#[test]
fn a_served_convert_repeated_into_one_directory_is_stable() {
    let dir = tempdir().unwrap();
    let shard = BamxFile::open(shard(dir.path())).unwrap();
    let indices: Vec<u64> = (0..shard.len()).filter(|i| i % 3 != 1).collect();
    let config = ConvertConfig::with_ranks(1);
    let out = dir.path().join("served");
    std::fs::create_dir_all(&out).unwrap();
    for target in [TargetFormat::Sam, TargetFormat::Bam] {
        let run = || {
            let (stats, path) =
                convert_index_list(&shard, &indices, target, &out, "q", 0, true, &config).unwrap();
            (stats.bytes_out, std::fs::read(path).unwrap())
        };
        let first = run();
        assert_eq!(first.0, first.1.len() as u64, "{target:?}");
        for _ in 0..3 {
            assert_eq!(run(), first, "{target:?}");
        }
    }
}
