//! The corruption corpus (ISSUE 2): generate valid shards with `ngs-simgen`,
//! apply random seeded [`FaultPlan`]s, and assert the decode paths return
//! `Err`-or-`Ok` — never a panic, never an attacker-sized allocation.
//!
//! Every case is replayable: the plan derives entirely from the proptest
//! seed value, so a failure reproduces from the printed seed alone.

use std::io::Cursor;
use std::sync::OnceLock;

use proptest::prelude::*;

use ngs_bamx::{
    write_bamx_file, write_bamx_file_versioned, Baix, BamxCompression, BamxFile, BamxVersion,
    ColumnSet,
};
use ngs_fault::{FaultPlan, FaultyFile, FaultyRead};
use ngs_simgen::{Dataset, DatasetSpec};

/// Pristine fixture bytes: (plain shard, bgzf shard, v2 shard, baix,
/// bgzf file), plus the two decompression-bomb shapes of ISSUE 22.
struct Fixtures {
    plain_bamx: Vec<u8>,
    bgzf_bamx: Vec<u8>,
    v2_bamx: Vec<u8>,
    baix: Vec<u8>,
    bgzf_file: Vec<u8>,
    /// A BGZF file whose middle member declares ISIZE 512 over a body
    /// that expands to ~67 MB.
    bgzf_bomb: Vec<u8>,
    /// `v2_bamx` with the `qual` stream of block 0 swapped for a body that
    /// outruns its `raw_len` prefix ~100×.
    v2_bomb: Vec<u8>,
}

/// The DEFLATE bomb of `crates/bgzf/tests/corrupt_input.rs` (derivation
/// there): 1032 bytes of output per zero byte between head and tail.
fn deflate_bomb(zero_bytes: usize) -> Vec<u8> {
    let mut s =
        vec![0xed, 0xc0, 0x81, 0x00, 0x00, 0x00, 0x00, 0x80, 0x20, 0xed, 0xf1, 0x17, 0xa9, 0x00];
    s.resize(14 + zero_bytes, 0);
    s.push(0x06);
    s
}

/// One good member, the bomb member (small ISIZE, ≤ 64 KiB body), EOF.
fn bgzf_bomb_file() -> Vec<u8> {
    let body = deflate_bomb(65_000);
    let mut file = ngs_bgzf::block::compress_block(b"before the bomb", ngs_bgzf::Options::default());
    file.extend_from_slice(&[0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0, 0xff, 6, 0, b'B', b'C', 2, 0]);
    file.extend_from_slice(&((18 + body.len() + 8 - 1) as u16).to_le_bytes());
    file.extend_from_slice(&body);
    file.extend_from_slice(&ngs_bgzf::crc32::crc32(&[b'x'; 512]).to_le_bytes());
    file.extend_from_slice(&512u32.to_le_bytes());
    file.extend_from_slice(&ngs_bgzf::block::EOF_MARKER);
    file
}

/// Swaps the body of block 0's `qual` stream (offsets read off the
/// documented v2 framing: trailer footer-offset field, 52-byte footer
/// entries ending in eight u32 stream lengths) for a bomb of the same
/// on-disk length, keeping the honest `raw_len` prefix.
fn v2_bomb_shard(shard: &[u8]) -> Vec<u8> {
    let n = shard.len();
    let word = |at: usize| u32::from_le_bytes(shard[at..at + 4].try_into().unwrap()) as usize;
    let footer = u64::from_le_bytes(shard[n - 16..n - 8].try_into().unwrap()) as usize;
    let block = u64::from_le_bytes(shard[footer..footer + 8].try_into().unwrap()) as usize;
    let at = block + (0..6).map(|k| word(footer + 20 + 4 * k)).sum::<usize>();
    let len = word(footer + 20 + 4 * 6);
    let mut bomb = deflate_bomb(len.saturating_sub(4 + 15).min(400));
    assert!(bomb.len() + 4 <= len, "qual stream of {len} bytes cannot host the bomb");
    bomb.resize(len - 4, 0);
    let mut bad = shard.to_vec();
    bad[at + 4..at + len].copy_from_slice(&bomb);
    bad
}

fn fixtures() -> &'static Fixtures {
    static CELL: OnceLock<Fixtures> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = DatasetSpec { n_records: 400, coordinate_sorted: true, ..Default::default() };
        let ds = Dataset::generate(&spec);
        let header = ds.genome.header();
        let dir = tempfile::tempdir().unwrap();
        let plain = dir.path().join("p.bamx");
        let bgzf = dir.path().join("z.bamx");
        let v2 = dir.path().join("c.bamx");
        let baix = dir.path().join("p.baix");
        write_bamx_file(&plain, &header, &ds.records, BamxCompression::Plain).unwrap();
        write_bamx_file(&bgzf, &header, &ds.records, BamxCompression::Bgzf).unwrap();
        write_bamx_file_versioned(&v2, &header, &ds.records, BamxCompression::Plain, BamxVersion::V2)
            .unwrap();
        Baix::build(&BamxFile::open(&plain).unwrap()).unwrap().save(&baix).unwrap();
        let bgzf_file = {
            let sam = ds.to_sam_bytes();
            ngs_bgzf::compress_parallel(&sam, ngs_bgzf::Options::default())
        };
        let v2_bamx = std::fs::read(&v2).unwrap();
        Fixtures {
            plain_bamx: std::fs::read(&plain).unwrap(),
            bgzf_bamx: std::fs::read(&bgzf).unwrap(),
            v2_bomb: v2_bomb_shard(&v2_bamx),
            v2_bamx,
            baix: std::fs::read(&baix).unwrap(),
            bgzf_file,
            bgzf_bomb: bgzf_bomb_file(),
        }
    })
}

/// Full BAMX decode sweep over a (possibly faulty) source: open, ranged
/// reads, point reads, position scan, index build. Outcomes are ignored —
/// the property is "no panic".
fn drive_bamx(source: Box<dyn ngs_bgzf::ReadAt>) {
    let f = match BamxFile::open_with(source, "corpus") {
        Ok(f) => f,
        Err(_) => return,
    };
    let n = f.len();
    let _ = f.read_range(0, n);
    let _ = f.read_range_projected(0, n, ColumnSet::POSITIONS);
    let _ = f.for_each_fields(0, n, ColumnSet::ALL, |_| Ok(()));
    let _ = f.read_record(n / 2);
    let _ = f.positions();
    let _ = Baix::build(&f);
}

/// A corrupted shard (fixed bytes, so every read sees the same ones):
/// visiting its records in place fails with the error the owned read
/// gives, or both read every record, full and projected alike.
fn visit_fails_as_read_fails(bytes: Vec<u8>) {
    let Ok(f) = BamxFile::open_with(Box::new(bytes), "corpus") else {
        return;
    };
    for set in [ColumnSet::ALL, ColumnSet::POSITIONS] {
        let owned = f.read_range_projected(0, f.len(), set).map(|records| records.len());
        let mut visited = 0;
        let visit = f
            .for_each_fields(0, f.len(), set, |_| {
                visited += 1;
                Ok(())
            })
            .map(|()| visited);
        assert_eq!(format!("{visit:?}"), format!("{owned:?}"), "projection {set:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-level corruption of a plain-body shard never panics.
    #[test]
    fn corrupt_plain_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.plain_bamx.len() as u64);
        drive_bamx(Box::new(plan.corrupt(&fx.plain_bamx)));
        visit_fails_as_read_fails(plan.corrupt(&fx.plain_bamx));
    }

    /// Byte-level corruption of a BGZF-body shard never panics.
    #[test]
    fn corrupt_bgzf_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.bgzf_bamx.len() as u64);
        drive_bamx(Box::new(plan.corrupt(&fx.bgzf_bamx)));
        visit_fails_as_read_fails(plan.corrupt(&fx.bgzf_bamx));
    }

    /// Byte-level corruption of a v2 columnar shard never panics: footer
    /// geometry, varint chains, and DEFLATE raw-length prefixes all reject
    /// by arithmetic, never by allocation or index overflow.
    #[test]
    fn corrupt_v2_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.v2_bamx.len() as u64);
        drive_bamx(Box::new(plan.corrupt(&fx.v2_bamx)));
        visit_fails_as_read_fails(plan.corrupt(&fx.v2_bamx));
    }

    /// I/O-level faults (short reads, transient errors, in-flight flips)
    /// through [`FaultyFile`] never panic either.
    #[test]
    fn faulty_file_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.bgzf_bamx.len() as u64);
        drive_bamx(Box::new(FaultyFile::new(fx.bgzf_bamx.clone(), plan)));
    }

    /// The same I/O-level fault sweep against a v2 columnar shard.
    #[test]
    fn faulty_file_v2_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.v2_bamx.len() as u64);
        drive_bamx(Box::new(FaultyFile::new(fx.v2_bamx.clone(), plan)));
    }

    /// BAIX index corruption never panics (count validation, sortedness).
    #[test]
    fn corrupt_baix_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.baix.len() as u64);
        let bytes = plan.corrupt(&fx.baix);
        let _ = Baix::load_with(&bytes.as_slice(), "corpus");
    }

    /// BGZF whole-file decode (both paths) and the streaming reader never
    /// panic on corrupted input.
    #[test]
    fn corrupt_bgzf_never_panics(seed in any::<u64>()) {
        use std::io::Read;
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.bgzf_file.len() as u64);
        let bytes = plan.corrupt(&fx.bgzf_file);
        let _ = ngs_bgzf::decompress_sequential(&bytes);
        let _ = ngs_bgzf::reader::validate(&bytes);
        let mut out = Vec::new();
        let reader = FaultyRead::new(&fx.bgzf_file[..], plan.clone());
        let streamed = ngs_bgzf::BgzfReader::new(reader).read_to_end(&mut out).is_ok();
        // The read-ahead reader under the same plan — short reads,
        // transient errors, flips and truncation hit its walker thread —
        // delivers the same bytes and ends the same way.
        let mut ahead = Vec::new();
        let reader = FaultyRead::new(Cursor::new(fx.bgzf_file.clone()), plan);
        let ok = ngs_bgzf::ReadAheadReader::new(reader, 2).read_to_end(&mut ahead).is_ok();
        prop_assert_eq!(ok, streamed);
        prop_assert_eq!(ahead, out);
    }

    /// The BGZF bomb, further corrupted: still no panic, and (bounded
    /// decode) no expansion beyond what each member declares.
    #[test]
    fn bombed_bgzf_never_panics(seed in any::<u64>()) {
        use std::io::Read;
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.bgzf_bomb.len() as u64);
        let bytes = plan.corrupt(&fx.bgzf_bomb);
        if let Ok(out) = ngs_bgzf::decompress_sequential(&bytes) {
            // Only a flip that defuses the bomb member lets the file decode.
            prop_assert!(out.len() <= 3 * 65536);
        }
        let mut out = Vec::new();
        let reader = FaultyRead::new(&fx.bgzf_bomb[..], plan.clone());
        let _ = ngs_bgzf::BgzfReader::new(reader).read_to_end(&mut out);
        prop_assert!(out.len() <= 3 * 65536);
        let mut ahead = Vec::new();
        let reader = FaultyRead::new(Cursor::new(fx.bgzf_bomb.clone()), plan);
        let _ = ngs_bgzf::ReadAheadReader::new(reader, 2).read_to_end(&mut ahead);
        prop_assert_eq!(ahead, out);
    }

    /// The v2 column bomb, further corrupted, through the full BAMX sweep.
    #[test]
    fn bombed_v2_bamx_never_panics(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.v2_bomb.len() as u64);
        drive_bamx(Box::new(plan.corrupt(&fx.v2_bomb)));
        visit_fails_as_read_fails(plan.corrupt(&fx.v2_bomb));
        drive_bamx(Box::new(FaultyFile::new(fx.v2_bomb.clone(), plan)));
    }

    /// Lossless plans (delivery faults only) must leave decode results
    /// byte-identical once retries exhaust the injected failures.
    #[test]
    fn lossless_plans_preserve_bytes(seed in any::<u64>()) {
        let fx = fixtures();
        let plan = FaultPlan::random(seed, fx.plain_bamx.len() as u64);
        prop_assume!(plan.is_lossless());
        // Share one wrapper across attempts so its transient budget drains
        // the way a retrying store would drain it.
        let faulty = std::sync::Arc::new(FaultyFile::new(fx.plain_bamx.clone(), plan.clone()));
        let budget = plan.total_transient_failures() as usize + 1;
        let mut opened = None;
        for _ in 0..budget {
            match BamxFile::open_with(Box::new(faulty.clone()), "corpus") {
                Ok(f) => {
                    opened = Some(f);
                    break;
                }
                Err(e) => prop_assert!(e.is_transient(), "lossless plan produced non-transient {e}"),
            }
        }
        let f = opened.expect("open must succeed within the transient budget");
        let mut records = None;
        for _ in 0..budget {
            match f.read_range(0, f.len()) {
                Ok(r) => {
                    records = Some(r);
                    break;
                }
                Err(e) => prop_assert!(e.is_transient(), "lossless plan produced non-transient {e}"),
            }
        }
        let clean = BamxFile::open_with(Box::new(fx.plain_bamx.clone()), "clean").unwrap();
        prop_assert_eq!(
            records.expect("reads must succeed within the transient budget"),
            clean.read_range(0, clean.len()).unwrap()
        );
    }
}

/// The two bomb shapes, uncorrupted: typed errors from every entry point,
/// structural (quarantine, not retry), and the untouched parts of the
/// shard still serve.
#[test]
fn bombs_are_typed_structural_errors() {
    use std::io::Read;
    let fx = fixtures();
    assert!(ngs_bgzf::decompress_sequential(&fx.bgzf_bomb).is_err());
    assert!(ngs_bgzf::reader::validate(&fx.bgzf_bomb).unwrap(), "framing itself is well-formed");
    let mut out = Vec::new();
    assert!(ngs_bgzf::BgzfReader::new(&fx.bgzf_bomb[..]).read_to_end(&mut out).is_err());
    assert_eq!(out, b"before the bomb");
    // Through the read-ahead reader and across the `Read` boundary the
    // bomb is still the codec's own structural error, not an I/O one.
    let mut out = Vec::new();
    let err = ngs_bgzf::ReadAheadReader::new(Cursor::new(fx.bgzf_bomb.clone()), 2)
        .read_to_end(&mut out)
        .unwrap_err();
    assert_eq!(out, b"before the bomb");
    let err = ngs_formats::error::Error::from(err);
    assert!(matches!(err, ngs_formats::error::Error::Compression(_)), "{err}");
    assert!(!err.is_transient(), "{err}");

    let f = BamxFile::open_with(Box::new(fx.v2_bomb.clone()), "bomb").unwrap();
    let err = f.read_range(0, f.len()).unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert!(err.to_string().contains("outruns"), "{err}");
    assert!(f.read_range_projected(0, f.len(), ColumnSet::POSITIONS).is_ok());
    drive_bamx(Box::new(fx.v2_bomb.clone()));
}
