//! A preprocess that fails — a corrupt BGZF member, a truncated file, a
//! record or line that is sound in shape but bad in content, anywhere in
//! the input — returns a typed error with nothing recorded: the manifest
//! is byte-for-byte what it was, the previously published shard set
//! still verifies, the only debris is the stray temp a crash would leave,
//! and every read-ahead, splitter and encode-worker thread has been
//! joined (DESIGN.md §16). With several bad records the one reported is
//! the first in the stream, whichever worker met it first.
//!
//! One `#[test]` on purpose: the helper-thread check counts this
//! process's threads, which only means something when no other test runs
//! beside it.

use std::path::{Path, PathBuf};

use ngs_bamx::{BamxVersion, ShardRepo, MANIFEST_NAME};
use ngs_bgzf::block::peek_block_size;
use ngs_converter::{BamConverter, ConvertConfig, SamxConverter};
use ngs_formats::bam;
use ngs_formats::error::Error;
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Offsets of the BGZF members of `file`.
fn member_offsets(file: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 0;
    while pos < file.len() {
        offsets.push(pos);
        pos += peek_block_size(&file[pos..]).unwrap();
    }
    offsets
}

/// Content damage every length check passes and only the decoder
/// rejects, applied to one record's body.
#[derive(Clone, Copy)]
enum Damage {
    /// CIGAR op code 15 (`InvalidCigar`).
    CigarOp,
    /// A mate refID outside the dictionary (`InvalidBam`).
    MateRef,
}

/// A BAM of `ds` with each `(record, damage)` applied.
fn bam_with(ds: &Dataset, damaged: &[(usize, Damage)]) -> Vec<u8> {
    let header = ds.header();
    let mut raw = Vec::new();
    bam::encode_header(&header, &mut raw);
    for (i, record) in ds.records.iter().enumerate() {
        let body = raw.len() + 4;
        bam::encode_record(record, &header, &mut raw).unwrap();
        for &(_, damage) in damaged.iter().filter(|(victim, _)| *victim == i) {
            match damage {
                Damage::CigarOp => {
                    assert!(!record.cigar.is_empty(), "victim needs a CIGAR");
                    let l_read_name = raw[body + 8] as usize;
                    raw[body + 32 + l_read_name] |= 0x0F;
                }
                Damage::MateRef => raw[body + 20..body + 24].copy_from_slice(&999i32.to_le_bytes()),
            }
        }
    }
    ngs_bgzf::compress_sequential(&raw, ngs_bgzf::Options::default())
}

/// A record of `ds` with a CIGAR at or after `at`.
fn mapped_from(ds: &Dataset, at: usize) -> usize {
    at + ds.records[at..].iter().position(|r| !r.cigar.is_empty()).unwrap()
}

struct Published {
    manifest: Vec<u8>,
    bamx: Vec<u8>,
    baix: Vec<u8>,
}

fn snapshot(repo_dir: &Path) -> Published {
    Published {
        manifest: std::fs::read(repo_dir.join(MANIFEST_NAME)).unwrap(),
        bamx: std::fs::read(repo_dir.join("reads.bamx")).unwrap(),
        baix: std::fs::read(repo_dir.join("reads.baix")).unwrap(),
    }
}

/// Runs `converter` over `input` against the already-populated `repo`
/// and checks the failure contract. Returns the error for the caller to
/// classify.
fn assert_fails_cleanly(
    converter: &BamConverter,
    input: &Path,
    repo: &ShardRepo,
    before: &Published,
    expect_stray: bool,
    what: &str,
) -> Error {
    let threads = thread_count();
    let err = converter.preprocess_repo(input, repo, false).expect_err(what);
    assert_eq!(thread_count(), threads, "{what}: a helper thread outlived the call");

    let after = snapshot(repo.dir());
    assert_eq!(after.manifest, before.manifest, "{what}: manifest moved");
    assert_eq!(after.bamx, before.bamx, "{what}: published bamx moved");
    assert_eq!(after.baix, before.baix, "{what}: published baix moved");
    let report = repo.verify().unwrap();
    assert!(report.is_clean() && report.unpublished.is_empty(), "{what}: {report:?}");
    assert_eq!(report.verified.len(), 2, "{what}");
    assert_eq!(!report.stray_temps.is_empty(), expect_stray, "{what}: {:?}", report.stray_temps);
    // Exactly what a crash leaves, swept the same way.
    repo.clean_stray_temps().unwrap();
    assert!(repo.verify().unwrap().stray_temps.is_empty());
    err
}

#[test]
fn failed_preprocess_records_nothing_keeps_the_old_shards_and_joins_its_helpers() {
    let ds = Dataset::generate(&DatasetSpec { n_records: 3_000, seed: 7, ..Default::default() });
    let dir = tempdir().unwrap();
    let input = |name: &str, bytes: &[u8]| -> PathBuf {
        let sub = dir.path().join(name);
        std::fs::create_dir_all(&sub).unwrap();
        let path = sub.join("reads.bam"); // same stem: same artifact names
        std::fs::write(&path, bytes).unwrap();
        path
    };
    let good = ds.to_bam_bytes().unwrap();
    let members = member_offsets(&good);
    assert!(members.len() > 8);
    let mid = members[members.len() / 2];

    // Bad inputs, each damaged well past the first member.
    let mut flipped = good.clone();
    flipped[mid + 40] ^= 0x04; // inside the middle member's DEFLATE body
    let corrupt_member = input("corrupt", &flipped);
    let truncated = input("truncated", &good[..mid + 100]);
    let bad_record = input("bad-record", &bam_with(&ds, &[(mapped_from(&ds, ds.records.len() / 2), Damage::CigarOp)]));
    // Pass 2 transcodes 1024-record batches on `ranks` workers. A bad
    // record in batch 1 and another, of a different kind, in batch 2:
    // the error reported is batch 1's, the first in stream order.
    let two_bad = input("two-bad", &bam_with(&ds, &[(mapped_from(&ds, 1100), Damage::CigarOp), (2500, Damage::MateRef)]));
    // A bad record at the start of the stream: its worker fails while
    // every other batch buffer is already filled and waiting.
    let first_bad = input("first-bad", &bam_with(&ds, &[(mapped_from(&ds, 3), Damage::CigarOp)]));
    let good = input("good", &good);

    for version in [BamxVersion::V1, BamxVersion::V2] {
        let mut converter = BamConverter::new(ConvertConfig::with_ranks(3));
        converter.format_version = version;
        let repo_dir = dir.path().join(format!("repo-{}", version.name()));

        // On an empty repository a failure records nothing at all.
        let repo = ShardRepo::create(&repo_dir).unwrap();
        assert!(converter.preprocess_repo(&corrupt_member, &repo, false).is_err());
        assert!(repo.manifest().unwrap().entries.is_empty());

        // Publish a good set, then fail over it three ways.
        converter.preprocess_repo(&good, &repo, false).unwrap();
        let before = snapshot(&repo_dir);

        // Pass 1 meets the bad member: nothing was staged yet.
        let err = assert_fails_cleanly(&converter, &corrupt_member, &repo, &before, false, "corrupt member");
        assert!(matches!(err, Error::Compression(_)), "{err}");
        assert!(!err.is_transient(), "a corrupt member is structural: {err}");

        let err = assert_fails_cleanly(&converter, &truncated, &repo, &before, false, "truncated file");
        assert!(matches!(err, Error::Io(_)), "{err}");

        // The lengths pass cannot see a bad op code: pass 2 reports it,
        // with the shard half-staged.
        let err = assert_fails_cleanly(&converter, &bad_record, &repo, &before, true, "bad CIGAR op");
        assert!(matches!(err, Error::InvalidCigar(_)), "{err}");
        let err = assert_fails_cleanly(&converter, &two_bad, &repo, &before, true, "bad records in batches 1 and 2");
        assert!(matches!(err, Error::InvalidCigar(_)), "{err}");
        let err = assert_fails_cleanly(&converter, &first_bad, &repo, &before, true, "bad record in batch 0");
        assert!(matches!(err, Error::InvalidCigar(_)), "{err}");

        // And the repository still takes a good run afterwards.
        converter.preprocess_repo(&good, &repo, false).unwrap();
        assert_eq!(snapshot(&repo_dir).bamx, before.bamx);
    }

    // SAMX: a line bad only in an integer field, deep in rank 1's slice.
    let mut sam = ds.to_sam_bytes();
    let line_start = sam.len() * 3 / 4 + sam[sam.len() * 3 / 4..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let pos_field = line_start
        + sam[line_start..].iter().enumerate().filter(|(_, &b)| b == b'\t').nth(2).unwrap().0
        + 1;
    sam[pos_field] = b'x';
    let sam_path = dir.path().join("reads.sam");
    std::fs::write(&sam_path, &sam).unwrap();
    let repo_dir = dir.path().join("repo-samx");
    let err = SamxConverter::new(ConvertConfig::with_ranks(2))
        .preprocess_file(&sam_path, &repo_dir)
        .expect_err("bad POS");
    assert!(err.to_string().contains("POS"), "{err}");
    let repo = ShardRepo::open(&repo_dir).unwrap();
    let manifest = repo.manifest().unwrap();
    assert!(manifest.entries.keys().all(|name| !name.contains("shard0001")), "{:?}", manifest.entries.keys());
    let report = repo.verify().unwrap();
    assert!(report.is_clean() && report.unpublished.is_empty(), "{report:?}");
    assert_eq!(report.stray_temps.len(), 1, "rank 1 failed in pass 2: {:?}", report.stray_temps);
}
