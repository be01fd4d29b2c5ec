//! Corrupt-input regression suite: every malformed BGZF byte stream must
//! surface as a typed [`ngs_bgzf::Error`], never a panic or an unbounded
//! allocation. Each named test records a concrete panic found during the
//! fault-injection audit (ISSUE 2) and pins the typed-error behaviour.

use std::io::Read;

use ngs_bgzf::block::{
    compress_block, decompress_block, decompress_block_into, EOF_MARKER, HEADER_SIZE, TRAILER_SIZE,
};
use ngs_bgzf::crc32::crc32;
use ngs_bgzf::inflate::Inflater;
use ngs_bgzf::Error;
use ngs_bgzf::deflate::Options;
use ngs_bgzf::{decompress_sequential, BgzfReader, BgzfWriter, ReadAheadReader};

/// Drains `file` through the read-ahead reader (two inflaters): the
/// bytes delivered, and the error that ended the stream if one did.
fn read_ahead(file: &[u8]) -> (Vec<u8>, Option<std::io::Error>) {
    let mut out = Vec::new();
    let err = ReadAheadReader::new(std::io::Cursor::new(file.to_vec()), 2).read_to_end(&mut out).err();
    (out, err)
}

fn sample_file(payload: &[u8]) -> Vec<u8> {
    use std::io::Write;
    let mut w = BgzfWriter::new(Vec::new());
    w.write_all(payload).unwrap();
    w.finish().unwrap()
}

/// Audit finding #1: the old whole-file parallel decode walked block
/// headers without checking that the announced BSIZE fits in the
/// remaining input, then sliced `data[off..off + size]` — a truncated
/// final block was a slice-out-of-range panic instead of an error. Its
/// successor, the read-ahead reader, reads each member through the same
/// walk as the streaming reader: typed error, every earlier byte first.
#[test]
fn truncated_final_block_is_typed_error_in_read_ahead() {
    let payload = b"block payload ".repeat(8_000);
    let file = sample_file(&payload);
    // Cut the file mid-block: the last header survives, its body does not.
    let truncated = &file[..file.len() - 40];
    let (out, err) = read_ahead(truncated);
    assert!(err.is_some());
    assert!(!out.is_empty() && payload.starts_with(&out), "whole members before the cut arrive");
    // The sequential path must agree (it always returned a typed error).
    assert!(decompress_sequential(truncated).is_err());
}

/// Audit finding #1 (variant): a block whose BSIZE field *lies* — pointing
/// past the end of the file — took the same panicking slice path.
#[test]
fn oversized_bsize_is_typed_error_in_read_ahead() {
    let mut file = sample_file(b"four score and seven years ago");
    // BSIZE-1 lives at bytes 16..18 of the first block header.
    let huge = (u16::MAX) .to_le_bytes();
    file[16] = huge[0];
    file[17] = huge[1];
    assert!(read_ahead(&file).1.is_some());
    assert!(decompress_sequential(&file).is_err());
}

/// A corrupt ISIZE trailer must not drive a multi-gigabyte allocation:
/// BGZF payloads are capped at 64 KiB, so any larger ISIZE is rejected
/// before the inflate buffer is reserved.
#[test]
fn implausible_isize_is_rejected_before_allocation() {
    let mut block = compress_block(b"trailer bomb", Options::default());
    let n = block.len();
    block[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decompress_block(&block).is_err());
}

/// Streaming reader over a mid-block truncation: typed I/O error, and the
/// reader stays usable as a value (no poisoned state, no panic).
#[test]
fn streaming_reader_truncation_is_typed_error() {
    let file = sample_file(&b"streaming bytes ".repeat(5_000));
    let cut = &file[..file.len() / 2];
    let mut r = BgzfReader::new(std::io::Cursor::new(cut));
    let mut out = Vec::new();
    assert!(r.read_to_end(&mut out).is_err());
}

/// Deterministic single-byte corruption sweep over a whole small file:
/// every position, every decode entry point — outcomes may be Ok (the
/// flip can be benign, e.g. in MTIME) or Err, but never a panic.
#[test]
fn single_byte_flips_never_panic() {
    let file = sample_file(&b"ACGTacgt\n".repeat(400));
    for pos in 0..file.len() {
        let mut bad = file.clone();
        bad[pos] ^= 0x55;
        let _ = decompress_sequential(&bad);
        let _ = read_ahead(&bad);
        let _ = ngs_bgzf::reader::validate(&bad);
        let mut r = BgzfReader::new(std::io::Cursor::new(&bad));
        let mut out = Vec::new();
        let _ = r.read_to_end(&mut out);
    }
}

/// Truncation sweep around every framing boundary of the first block.
#[test]
fn truncation_sweep_never_panics() {
    let file = sample_file(b"short payload");
    let interesting: Vec<usize> = (0..HEADER_SIZE + 4)
        .chain(file.len().saturating_sub(TRAILER_SIZE + 4)..file.len())
        .collect();
    for cut in interesting {
        let bad = &file[..cut];
        let _ = decompress_sequential(bad);
        let _ = read_ahead(bad);
        let _ = decompress_block(bad);
        let _ = ngs_bgzf::block::peek_block_size(bad);
    }
}

/// A hand-built DEFLATE bomb (cross-checked against zlib's inflate): one
/// dynamic block whose literal/length code gives symbol 285 (<len 258>)
/// the 1-bit code `0`, `x` the code `10` and end-of-block `11`, with a
/// single 1-bit distance code `0` for distance 1. `BOMB_HEAD` is the
/// header plus the literal `x` (105 bits, zero-padded to 14 bytes); from
/// there on every pair of zero bits is one more <258, 1> match, so each
/// zero byte appended expands to 1032 bytes; `BOMB_TAIL` is one last zero
/// bit (evening out the seven pad bits) and the end-of-block code.
const BOMB_HEAD: [u8; 14] =
    [0xed, 0xc0, 0x81, 0x00, 0x00, 0x00, 0x00, 0x80, 0x20, 0xed, 0xf1, 0x17, 0xa9, 0x00];
const BOMB_TAIL: u8 = 0x06;

fn deflate_bomb(zero_bytes: usize) -> Vec<u8> {
    let mut s = BOMB_HEAD.to_vec();
    s.resize(BOMB_HEAD.len() + zero_bytes, 0);
    s.push(BOMB_TAIL);
    s
}

/// What [`deflate_bomb`] inflates to: `x` plus 4 + 4·n matches of 258.
fn bomb_len(zero_bytes: usize) -> usize {
    1 + 258 * (4 + 4 * zero_bytes)
}

/// Frames `body` as one BGZF member with the given trailer fields.
fn bgzf_member(body: &[u8], crc: u32, isize: u32) -> Vec<u8> {
    let bsize = HEADER_SIZE + body.len() + TRAILER_SIZE;
    assert!(bsize <= 65536);
    let mut m = vec![0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0, 0xff, 6, 0, b'B', b'C', 2, 0];
    m.extend_from_slice(&((bsize - 1) as u16).to_le_bytes());
    m.extend_from_slice(body);
    m.extend_from_slice(&crc.to_le_bytes());
    m.extend_from_slice(&isize.to_le_bytes());
    m
}

/// The bomb is a real stream: declared honestly it decodes, through the
/// exact core and as a BGZF member.
#[test]
fn bomb_vector_is_a_valid_stream_when_declared_honestly() {
    let body = deflate_bomb(1);
    let plain = vec![b'x'; bomb_len(1)];
    assert_eq!(ngs_bgzf::inflate(&body, 0).unwrap(), plain);
    let member = bgzf_member(&body, crc32(&plain), plain.len() as u32);
    let (payload, used) = decompress_block(&member).unwrap();
    assert_eq!(payload, plain);
    assert_eq!(used, member.len());
}

/// ISSUE 22 bugfix: `decompress_block` rejected `ISIZE > 65536` up front
/// but compared the payload length only *after* inflating, so a ≤ 64 KiB
/// body of distance-1 258-byte matches was expanded ~1000× (≈ 67 MB here)
/// before the mismatch was seen. The decoder now stops at the declared
/// size: the error is the bounded core's, at the first byte too many,
/// whatever the ISIZE and through every entry point.
#[test]
fn bgzf_bomb_with_small_isize_stops_at_the_declared_size() {
    let body = deflate_bomb(65_000);
    assert!(bomb_len(65_000) > 67_000_000);
    for isize in [0u32, 1, 100, 65_280, 65_536] {
        // The CRC a forger would pick: that of the bytes ISIZE promises.
        let member = bgzf_member(&body, crc32(&vec![b'x'; isize as usize]), isize);
        assert!(
            matches!(decompress_block(&member), Err(Error::Corrupt("stream outruns its declared size"))),
            "ISIZE {isize}"
        );
        // The appending entry point leaves its buffer as it was.
        let mut out = b"kept".to_vec();
        assert!(decompress_block_into(&member, &mut Inflater::new(), &mut out).is_err());
        assert_eq!(out, b"kept");

        let mut file = compress_block(b"a good block first", Options::default());
        file.extend_from_slice(&member);
        file.extend_from_slice(&EOF_MARKER);
        assert!(decompress_sequential(&file).is_err());
        // Read-ahead: same bound (each inflater sizes its slice from
        // ISIZE), same error, the good member delivered first.
        let (delivered, err) = read_ahead(&file);
        assert_eq!(delivered, b"a good block first");
        let err = err.expect("the bomb member fails").downcast::<Error>().expect("codec error");
        assert!(matches!(err, Error::Corrupt("stream outruns its declared size")), "{err}");
        let mut r = BgzfReader::new(std::io::Cursor::new(&file));
        let mut sink = Vec::new();
        assert!(r.read_to_end(&mut sink).is_err());
        assert_eq!(sink, b"a good block first");
    }
}

/// The same bomb against the core itself, with the declared size a window
/// inside a larger canary buffer: not one byte beyond the declaration is
/// ever written.
#[test]
fn bomb_never_writes_more_than_the_declared_size() {
    let body = deflate_bomb(65_000);
    let mut buf = vec![0xA5u8; 70_000];
    let mut inflater = Inflater::new();
    for declared in [0usize, 1, 258, 259, 1_000, 65_280, 65_536] {
        buf.fill(0xA5);
        let r = inflater.inflate_exact(&body, &mut buf[..declared]);
        assert!(matches!(r, Err(Error::Corrupt(_))), "declared {declared}");
        assert!(buf[declared..].iter().all(|&b| b == 0xA5), "declared {declared}: wrote past the end");
    }
    // Declared too long instead: the stream ends short, also an error.
    let small = deflate_bomb(0);
    let mut long = vec![0u8; bomb_len(0) + 1];
    assert!(matches!(
        inflater.inflate_exact(&small, &mut long),
        Err(Error::Corrupt("stream ends short of its declared size"))
    ));
}
