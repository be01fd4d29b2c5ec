//! Corrupt-input regression suite for BAMX shards and BAIX indexes: every
//! malformed byte pattern must surface as a typed error, never a panic or
//! an attacker-chosen allocation. Each named test records a concrete
//! corrupt-input panic found during the fault-injection audit (ISSUE 2).

use ngs_bamx::{
    write_bamx_file, write_bamx_file_versioned, Baix, BamxCompression, BamxFile, BamxVersion,
    ColumnSet,
};
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::sam;
use tempfile::tempdir;

fn header() -> SamHeader {
    SamHeader::from_references(vec![ReferenceSequence {
        name: b"chr1".to_vec(),
        length: 1_000_000,
    }])
}

fn records(n: usize) -> Vec<ngs_formats::record::AlignmentRecord> {
    (0..n)
        .map(|i| {
            let line = format!(
                "read{i}\t0\tchr1\t{}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII",
                100 + i * 7
            );
            sam::parse_record(line.as_bytes(), 1).unwrap()
        })
        .collect()
}

/// Audit finding #2: `Baix::load` trusted the entry count in the header
/// and computed `vec![0u8; n * 16]` — a corrupt count of `u64::MAX`
/// was a multiply-overflow / capacity-overflow panic (and any large
/// count was an attacker-chosen allocation). The count must be validated
/// against the actual file size first.
#[test]
fn baix_implausible_entry_count_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("bomb.baix");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ngs_bamx::baix::MAGIC);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd entry count
    std::fs::write(&path, &bytes).unwrap();
    assert!(Baix::load(&path).is_err());

    // A merely-huge (allocatable but bogus) count is equally rejected.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ngs_bamx::baix::MAGIC);
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(Baix::load(&path).is_err());
}

/// ISSUE 2 example case: a BAIX file cut inside its fixed header.
#[test]
fn baix_truncated_header_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("cut.baix");
    for cut in 0..13 {
        std::fs::write(&path, &b"BAIX\x01\x02\x00\x00\x00\x00\x00\x00\x00"[..cut]).unwrap();
        assert!(Baix::load(&path).is_err(), "cut at {cut}");
    }
}

/// A BAIX whose entry array stops short of the count in its header.
#[test]
fn baix_truncated_body_is_typed_error() {
    let dir = tempdir().unwrap();
    let bamx = dir.path().join("t.bamx");
    let baix = dir.path().join("t.baix");
    write_bamx_file(&bamx, &header(), &records(8), BamxCompression::Plain).unwrap();
    Baix::build(&BamxFile::open(&bamx).unwrap()).unwrap().save(&baix).unwrap();
    let good = std::fs::read(&baix).unwrap();
    for cut in [good.len() - 1, good.len() - 15, 14] {
        std::fs::write(&baix, &good[..cut]).unwrap();
        assert!(Baix::load(&baix).is_err(), "cut at {cut}");
    }
}

/// Audit finding #3: a BGZF-bodied BAMX whose record-count trailer claims
/// records but whose block area is empty made `read_raw_range` index
/// `block_offsets[0]` on an empty table — an index-out-of-bounds panic.
/// (ISSUE 2's "record length pointing past EOF" class.)
#[test]
fn bgzf_trailer_past_empty_body_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    // Start from a valid *empty* plain shard, then lie twice: flag the
    // body as BGZF (byte 5) and claim one record in the trailer.
    write_bamx_file(&path, &header(), &[], BamxCompression::Plain).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[5] = 1; // BamxCompression::Bgzf
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&1u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let f = match BamxFile::open(&path) {
        Ok(f) => f,
        Err(_) => return, // rejecting at open is equally acceptable
    };
    assert!(f.read_record(0).is_err());
    assert!(f.positions().is_err());
    assert!(Baix::build(&f).is_err());
}

/// A plain-body trailer that disagrees with the body size (the classic
/// "record count pointing past EOF") stays a typed error.
#[test]
fn plain_trailer_body_mismatch_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    write_bamx_file(&path, &header(), &records(4), BamxCompression::Plain).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&1_000_000u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(BamxFile::open(&path).is_err());
}

/// A BAMX prologue length pointing past EOF must be rejected by bounds
/// arithmetic, not by attempting the implied multi-gigabyte read.
#[test]
fn bamx_prologue_past_eof_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    write_bamx_file(&path, &header(), &records(4), BamxCompression::Plain).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(BamxFile::open(&path).is_err());
}

fn write_v2(dir: &std::path::Path, n: usize) -> std::path::PathBuf {
    let path = dir.join("t2.bamx");
    write_bamx_file_versioned(&path, &header(), &records(n), BamxCompression::Plain, BamxVersion::V2)
        .unwrap();
    path
}

/// Every prefix truncation of a v2 shard must be a typed error: the
/// trailer/footer geometry accounts for the file size exactly, so no cut
/// can look complete.
#[test]
fn bamx_v2_truncations_are_typed_errors() {
    let dir = tempdir().unwrap();
    let path = write_v2(dir.path(), 30);
    let good = std::fs::read(&path).unwrap();
    let cut_path = dir.path().join("cut.bamx");
    for cut in 0..good.len() {
        std::fs::write(&cut_path, &good[..cut]).unwrap();
        assert!(BamxFile::open(&cut_path).is_err(), "cut at {cut}");
    }
}

/// Single-byte corruption sweep over a v2 shard: open, full decode, the
/// positions projection, and index construction must return `Ok`/`Err`,
/// never panic. Flips inside the raw column streams may decode into
/// different records (the same unchecksummed-region caveat as a plain v1
/// body — manifest CRCs catch it in managed repositories).
#[test]
fn bamx_v2_single_byte_flips_never_panic() {
    let dir = tempdir().unwrap();
    let path = write_v2(dir.path(), 12);
    let good = std::fs::read(&path).unwrap();
    let bad_path = dir.path().join("bad2.bamx");
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0xFF;
        std::fs::write(&bad_path, &bad).unwrap();
        if let Ok(f) = BamxFile::open(&bad_path) {
            let _ = f.read_range(0, f.len());
            let _ = f.read_range_projected(0, f.len(), ColumnSet::POSITIONS);
            let _ = f.positions();
            let _ = Baix::build(&f);
        }
    }
}

/// A v2 records-per-block of zero or past the cap is rejected by
/// arithmetic before any block allocation.
#[test]
fn bamx_v2_implausible_block_size_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = write_v2(dir.path(), 8);
    let good = std::fs::read(&path).unwrap();
    // records_per_block lives right after magic(5)+flags(1)+plen(4)+
    // prologue+layout(12).
    let plen = u32::from_le_bytes([good[6], good[7], good[8], good[9]]) as usize;
    let rpb_at = 10 + plen + 12;
    for bogus in [0u32, u32::MAX, (1 << 20) + 1] {
        let mut bad = good.clone();
        bad[rpb_at..rpb_at + 4].copy_from_slice(&bogus.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(BamxFile::open(&path).is_err(), "rpb {bogus}");
    }
}

/// A v2 trailer whose record count disagrees with the per-block counts
/// (the v2 shape of "record count pointing past EOF") stays typed.
#[test]
fn bamx_v2_trailer_count_mismatch_is_typed_error() {
    let dir = tempdir().unwrap();
    let path = write_v2(dir.path(), 20);
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&1_000_000u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(BamxFile::open(&path).is_err());
}

/// Flipping any byte of the v2 footer index (block offsets, counts,
/// stream lengths) is caught by the footer CRC at open time.
#[test]
fn bamx_v2_footer_flips_rejected_at_open() {
    let dir = tempdir().unwrap();
    let path = write_v2(dir.path(), 40);
    let good = std::fs::read(&path).unwrap();
    let n = good.len();
    let footer_off =
        u64::from_le_bytes(good[n - 16..n - 8].try_into().unwrap()) as usize;
    let bad_path = dir.path().join("bad.bamx");
    for pos in footer_off..n - 28 {
        let mut bad = good.clone();
        bad[pos] ^= 0x01;
        std::fs::write(&bad_path, &bad).unwrap();
        assert!(BamxFile::open(&bad_path).is_err(), "footer flip at {pos}");
    }
}

/// Single-byte corruption sweep across a whole small shard: open and full
/// decode must return `Ok` or `Err`, never panic. (Flips in record bodies
/// may decode "successfully" into different records — that is fine; the
/// property under test is panic-freedom plus bounded allocation.)
#[test]
fn bamx_single_byte_flips_never_panic() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    write_bamx_file(&path, &header(), &records(6), BamxCompression::Plain).unwrap();
    let good = std::fs::read(&path).unwrap();
    let bad_path = dir.path().join("bad.bamx");
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0xFF;
        std::fs::write(&bad_path, &bad).unwrap();
        if let Ok(f) = BamxFile::open(&bad_path) {
            let _ = f.read_range(0, f.len());
            let _ = f.positions();
        }
    }
}

/// The DEFLATE bomb of `crates/bgzf/tests/corrupt_input.rs` (derivation
/// there): a 14-byte dynamic-block head, then 1032 bytes of output per
/// zero byte appended, then the end-of-block byte.
fn deflate_bomb(zero_bytes: usize) -> Vec<u8> {
    let mut s =
        vec![0xed, 0xc0, 0x81, 0x00, 0x00, 0x00, 0x00, 0x80, 0x20, 0xed, 0xf1, 0x17, 0xa9, 0x00];
    s.resize(14 + zero_bytes, 0);
    s.push(0x06);
    s
}

/// `(offset, length)` of the `qual` stream of block 0 of a v2 shard, read
/// off the documented framing: trailer = footer CRC u32 + n_blocks u64 +
/// footer offset u64 + n_records u64; footer entry = block offset u64 +
/// n_records u32 + first key u64 + eight stream lengths u32 in column
/// order (flags, pos, mate, qname, cigar, seq, qual, tags).
fn v2_qual_stream(shard: &[u8]) -> (usize, usize) {
    let n = shard.len();
    let footer = u64::from_le_bytes(shard[n - 16..n - 8].try_into().unwrap()) as usize;
    let block = u64::from_le_bytes(shard[footer..footer + 8].try_into().unwrap()) as usize;
    let lens: Vec<usize> = (0..8)
        .map(|k| {
            let at = footer + 20 + 4 * k;
            u32::from_le_bytes(shard[at..at + 4].try_into().unwrap()) as usize
        })
        .collect();
    (block + lens[..6].iter().sum::<usize>(), lens[6])
}

/// ISSUE 22 bugfix: `read_columns` passed a deflated column's `raw_len`
/// prefix to `inflate` purely as a capacity hint and compared lengths
/// afterwards, so a body that outran its prefix was inflated in full —
/// unbounded, for a stream that may be up to 4 GiB on disk. The decoder
/// now inflates into exactly `raw_len` bytes: a `qual` stream swapped for
/// a bomb (same on-disk length, honest-looking prefix, ~1 MB of output
/// per KiB of body) is a typed `Corrupt` at the first byte too many, with
/// the shard context and the stream's offset kept.
#[test]
fn bamx_v2_stream_outrunning_its_raw_len_is_typed_corrupt() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("bomb2.bamx");
    // Varied qualities, so the honest stream is long enough to host the bomb.
    let recs: Vec<_> = (0..600usize)
        .map(|i| {
            let qual: String =
                (0..10).map(|k| (b'#' + ((i * 7 + k * 13 + i * k) % 60) as u8) as char).collect();
            let line =
                format!("read{i}\t0\tchr1\t{}\t60\t10M\t*\t0\t0\tACGTACGTAC\t{qual}", 100 + i * 7);
            sam::parse_record(line.as_bytes(), 1).unwrap()
        })
        .collect();
    write_bamx_file_versioned(&path, &header(), &recs, BamxCompression::Plain, BamxVersion::V2).unwrap();
    let good = std::fs::read(&path).unwrap();
    let (at, len) = v2_qual_stream(&good);
    let raw_len = u32::from_le_bytes(good[at..at + 4].try_into().unwrap()) as usize;
    assert_eq!(raw_len, 600 * 11, "qual column: varint length + ten bytes per record");
    assert!(len > 4 + 15 + 100, "honest qual stream of {len} bytes cannot host the bomb");

    // Keep the prefix; replace the body by a bomb padded (after its final
    // block, where a decoder stops reading) to the same on-disk length.
    let mut bomb = deflate_bomb(100);
    bomb.resize(len - 4, 0);
    let mut bad = good.clone();
    bad[at + 4..at + len].copy_from_slice(&bomb);
    std::fs::write(&path, &bad).unwrap();

    let f = BamxFile::open(&path).expect("framing and footer are untouched");
    let err = f.read_range(0, f.len()).unwrap_err();
    match &err {
        ngs_formats::Error::Decode(d) => {
            assert_eq!(d.kind, ngs_formats::error::DecodeErrorKind::Corrupt, "{err}");
            assert_eq!(d.offset, at as u64, "{err}");
            assert!(d.context.ends_with("bomb2.bamx"), "{err}");
            assert!(d.detail.contains("'qual'") && d.detail.contains("outruns"), "{err}");
        }
        other => panic!("expected a typed decode error, got {other}"),
    }
    assert!(!err.is_transient());
    // Projections that skip the column never touch the bomb.
    assert_eq!(f.positions().unwrap().len(), 600);
    assert!(f.read_range_projected(0, f.len(), ColumnSet::POSITIONS).is_ok());

    // The mirror image: a body that ends short of its prefix.
    let mut short = good.clone();
    short[at..at + 4].copy_from_slice(&(raw_len as u32 + 1).to_le_bytes());
    std::fs::write(&path, &short).unwrap();
    let f = BamxFile::open(&path).unwrap();
    match f.read_range(0, f.len()).unwrap_err() {
        ngs_formats::Error::Decode(d) => {
            assert_eq!(d.kind, ngs_formats::error::DecodeErrorKind::Corrupt);
            assert!(d.detail.contains("short"), "{}", d.detail);
        }
        other => panic!("expected a typed decode error, got {other}"),
    }
}
