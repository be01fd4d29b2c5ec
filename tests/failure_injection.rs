//! Failure injection: every layer must reject corrupted inputs with an
//! error — never panic, never silently emit wrong records.

use std::io::Read;

use ngs_converter::{BamConverter, ConvertConfig, MemSource, SamConverter, TargetFormat};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

fn dataset(n: usize) -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_records: n,
        coordinate_sorted: true,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------------
// BGZF layer
// ---------------------------------------------------------------------------

#[test]
fn bgzf_detects_corruption_at_every_offset_region() {
    let payload = b"bgzf corruption probe ".repeat(200);
    let file = ngs_bgzf::compress_sequential(&payload, ngs_bgzf::Options::default());
    // Flip one bit in several structurally distinct places.
    for &offset in &[0usize, 3, 12, 17, 40, file.len() / 2, file.len() - 30] {
        let mut corrupt = file.clone();
        corrupt[offset] ^= 0x10;
        let result = ngs_bgzf::decompress_sequential(&corrupt);
        // Either an error, or (for flips in unused header bits) the exact
        // original payload — never a silently different payload.
        if let Ok(out) = result {
            assert_eq!(out, payload, "silent corruption at offset {offset}");
        }
    }
}

#[test]
fn bgzf_truncation_rejected() {
    let payload = vec![9u8; 100_000];
    let file = ngs_bgzf::compress_sequential(&payload, ngs_bgzf::Options::default());
    for cut in [1, 10, file.len() / 3, file.len() - 1] {
        assert!(
            ngs_bgzf::decompress_sequential(&file[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

// ---------------------------------------------------------------------------
// BAM layer
// ---------------------------------------------------------------------------

#[test]
fn bam_reader_rejects_corrupted_records() {
    let ds = dataset(200);
    let bytes = ds.to_bam_bytes().unwrap();

    // Decompress, flip bytes inside the record area, recompress: CRC will
    // pass (we recompress), so the *record decoder* must catch structure
    // violations — or the data decodes to different-but-valid records,
    // which the reader cannot distinguish; what it must never do is panic.
    let plain = ngs_bgzf::decompress_sequential(&bytes).unwrap();
    for &offset in &[100usize, 500, 2000, plain.len() - 50] {
        let mut corrupt = plain.clone();
        corrupt[offset] ^= 0xFF;
        let refile = ngs_bgzf::compress_sequential(&corrupt, ngs_bgzf::Options::default());
        let result = std::panic::catch_unwind(|| {
            let mut reader =
                ngs_formats::bam::BamReader::new(std::io::Cursor::new(&refile))?;
            let mut n = 0usize;
            while let Some(_rec) = reader.read_record()? {
                n += 1;
            }
            Ok::<usize, ngs_formats::Error>(n)
        });
        assert!(result.is_ok(), "panic on corrupted BAM at offset {offset}");
    }
}

#[test]
fn bam_reader_rejects_wrong_magic_and_truncation() {
    let ds = dataset(50);
    let bytes = ds.to_bam_bytes().unwrap();
    // Whole-file truncations.
    for cut in [5, 30, bytes.len() / 2] {
        let result = (|| -> ngs_formats::error::Result<usize> {
            let mut reader =
                ngs_formats::bam::BamReader::new(std::io::Cursor::new(&bytes[..cut]))?;
            let mut n = 0;
            while reader.read_record()?.is_some() {
                n += 1;
            }
            Ok(n)
        })();
        assert!(result.is_err(), "truncated BAM at {cut} must error");
    }
}

// ---------------------------------------------------------------------------
// SAM layer
// ---------------------------------------------------------------------------

#[test]
fn sam_converter_surfaces_parse_errors_from_any_rank() {
    let ds = dataset(300);
    let mut text = ds.to_sam_bytes();
    // Inject a malformed line near the end (hit by the last rank).
    let inject_at = text.len() - 1;
    text.splice(inject_at..inject_at, b"\ngarbage line without tabs".iter().copied());
    let src = MemSource::new(text);
    let dir = tempdir().unwrap();
    let result = SamConverter::new(ConvertConfig::with_ranks(4)).convert_source(
        &src,
        TargetFormat::Bed,
        dir.path(),
        "x",
    );
    assert!(result.is_err());
}

#[test]
fn sam_parse_error_reports_line_content_context() {
    let err = ngs_formats::sam::parse_record(b"r1\tNOTANUMBER\tchr1", 7).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 7"), "got {msg}");
}

// ---------------------------------------------------------------------------
// BAMX layer
// ---------------------------------------------------------------------------

#[test]
fn bamx_detects_trailer_and_body_mismatch() {
    let ds = dataset(100);
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    ngs_bamx::write_bamx_file(
        &path,
        &ds.header(),
        &ds.records,
        ngs_bamx::BamxCompression::Plain,
    )
    .unwrap();

    // Append junk: body size no longer matches the trailer count.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.splice(bytes.len() - 8..bytes.len() - 8, [0u8; 13]);
    std::fs::write(&path, &bytes).unwrap();
    assert!(ngs_bamx::BamxFile::open(&path).is_err());
}

#[test]
fn bamx_truncated_file_rejected() {
    let ds = dataset(60);
    let dir = tempdir().unwrap();
    let path = dir.path().join("t.bamx");
    ngs_bamx::write_bamx_file(
        &path,
        &ds.header(),
        &ds.records,
        ngs_bamx::BamxCompression::Plain,
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for cut in [3usize, 12, bytes.len() / 2] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(ngs_bamx::BamxFile::open(&path).is_err(), "cut {cut}");
    }
}

// ---------------------------------------------------------------------------
// Index layer
// ---------------------------------------------------------------------------

#[test]
fn indices_reject_garbage_files() {
    let dir = tempdir().unwrap();
    let p = dir.path().join("junk");
    std::fs::write(&p, b"not an index at all").unwrap();
    assert!(ngs_bamx::Baix::load(&p).is_err());
    assert!(ngs_bamx::BamIndex::load(&p).is_err());
    // Empty file too.
    std::fs::write(&p, b"").unwrap();
    assert!(ngs_bamx::Baix::load(&p).is_err());
    assert!(ngs_bamx::BamIndex::load(&p).is_err());
}

// ---------------------------------------------------------------------------
// End-to-end: corrupted inputs through the converters
// ---------------------------------------------------------------------------

#[test]
fn facade_fails_cleanly_on_binary_garbage() {
    let dir = tempdir().unwrap();
    let bad_sam = dir.path().join("bad.sam");
    // A "SAM" file of random bytes (not even valid lines).
    let noise: Vec<u8> = (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 9) as u8).collect();
    std::fs::write(&bad_sam, &noise).unwrap();
    let config = ConvertConfig::with_ranks(2);
    let sam = SamConverter::new(config.clone());
    assert!(sam.convert_file(&bad_sam, TargetFormat::Bed, dir.path().join("o")).is_err());

    let bad_bam = dir.path().join("bad.bam");
    std::fs::write(&bad_bam, &noise).unwrap();
    let bam = BamConverter::new(config);
    let out = dir.path().join("o2");
    let converted = bam
        .preprocess(&bad_bam, out.join("bamx"))
        .and_then(|prep| bam.convert_bamx(&prep.bamx_path, TargetFormat::Sam, &out));
    assert!(converted.is_err());
}

#[test]
fn bgzf_reader_is_safe_on_adversarial_bsize() {
    // Handcraft a block header claiming a tiny BSIZE that cuts into the
    // header itself; the reader must error, not loop or panic.
    let mut data = ngs_bgzf::compress_sequential(b"x", ngs_bgzf::Options::default());
    // BSIZE lives at offset 16..18 of the first block.
    data[16] = 1;
    data[17] = 0;
    let mut reader = ngs_bgzf::BgzfReader::new(std::io::Cursor::new(&data));
    let mut out = Vec::new();
    assert!(reader.read_to_end(&mut out).is_err());
}
