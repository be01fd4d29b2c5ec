//! Golden vectors: byte arrays derived by hand from RFC 1951 (DEFLATE),
//! RFC 1952 (gzip) and the SAM specification §4 (BGZF), so the in-tree
//! codec is checked against something other than itself. Each stream was
//! assembled bit by bit from the RFC's tables (the derivation is in the
//! comment above it) and cross-checked against zlib 1.2.13's raw inflate
//! when it was written down.
//!
//! Two directions per vector: the bytes decode to the stated plaintext,
//! and whatever the encoder emits for that plaintext — at every strategy —
//! decodes back to it.
//!
//! Reading the derivations: header fields and extra bits are packed
//! LSB-first, Huffman codes MSB-first (RFC 1951 §3.1.1); a byte fills
//! from bit 0 upward.

use ngs_bgzf::block::{decompress_block, peek_block_size, EOF_MARKER};
use ngs_bgzf::crc32::{crc32, Crc32};
use ngs_bgzf::deflate::{deflate, Options, Strategy};
use ngs_bgzf::gzip;
use ngs_bgzf::inflate::{inflate, inflate_into, Inflater};

/// BFINAL=1, BTYPE=00, pad to the byte; LEN=0x0005, NLEN=0xFFFA; payload.
const STORED: [u8; 10] = [0x01, 0x05, 0x00, 0xfa, 0xff, b'h', b'e', b'l', b'l', b'o'];

/// Fixed block (BTYPE=01) for `a b c <len 3, dist 3>`: literals are
/// 8-bit codes `0x30 + byte` (`a` = 1001_0001), length 3 is symbol 257 =
/// 7-bit code 000_0001, distance 3 is the 5-bit code 00010, end of block
/// is 7 zero bits. First byte: bits 1,1,0 (BFINAL, BTYPE LSB-first) then
/// the top five bits of `a`'s code 1,0,0,1,0 → 0b0100_1011 = 0x4b.
const FIXED: [u8; 6] = [0x4b, 0x4c, 0x4a, 0x06, 0x22, 0x00];
const FIXED_PLAIN: &[u8] = b"abcabc";

/// Dynamic block (BTYPE=10), HLIT=266, HDIST=8, HCLEN=18. Literal/length
/// lengths: `a` 2; `b`, `r`, 256, 265 3; `c`, `d`, space, `!` 4 (Kraft sum
/// 1). Distance lengths: codes 6 and 7 one bit each. Body: the twelve
/// literals of "abracadabra ", then <len 11, dist 12> = symbol 265 with
/// extra bit 0 and distance code 6 (base 9) with two extra bits = 3, then
/// `!` and end of block.
const DYNAMIC: [u8; 26] = [
    0x4d, 0xc7, 0x31, 0x01, 0x00, 0x00, 0x08, 0x02, 0xc1, 0x2a, 0x1a, 0xed, 0xd1, 0x04, 0xf4, 0x1f,
    0x58, 0xd9, 0xee, 0x90, 0x39, 0x1e, 0x99, 0x29, 0x6f, 0x00,
];
const DYNAMIC_PLAIN: &[u8] = b"abracadabra abracadabra!";

/// Dynamic block whose literal/length code uses every length 1..=15:
/// `a` has a 1-bit code (0), `b` 2 bits (10), … `n` 14 bits, and `o` and
/// end-of-block the two 15-bit codes (1…10 and 1…11). A table-driven
/// decoder with a 10-bit primary index needs its second level for `k`
/// through `o` and for 256. HDIST=1 with
/// a zero-length code: no distance codes at all.
const LONG_CODES: [u8; 54] = [
    0x05, 0xe0, 0x41, 0x96, 0x24, 0x49, 0x92, 0x65, 0x59, 0xae, 0xf5, 0xbe, 0x0f, 0x48, 0x2c, 0x6a,
    0x1e, 0x59, 0xbd, 0xff, 0x59, 0x1f, 0xed, 0xde, 0xf7, 0xfb, 0xfb, 0xf7, 0xdf, 0xff, 0xfe, 0xef,
    0xff, 0xfd, 0x7f, 0xff, 0xbf, 0xff, 0xdf, 0xff, 0xf7, 0xff, 0xfe, 0xef, 0x7f, 0xff, 0xfd, 0xfb,
    0xfb, 0x7d, 0xef, 0x96, 0xff, 0x3f,
];
const LONG_CODES_PLAIN: &[u8] = b"abcdefghijklmnoonmlkjihgfedcba";

/// Fixed block: literal `x` (0x78 → code 1010_1000), then <len 10, dist 1>
/// = symbol 264 (7-bit code 000_1000) and distance code 0 (00000): the
/// copy overlaps its own output and replicates one byte ten times.
const RUN_DIST1: [u8; 4] = [0xab, 0x40, 0x00, 0x00];

/// Fixed block: `a b c` then the longest legal match, <len 258, dist 3> =
/// symbol 285 (8-bit code 1100_0101, no extra bits) and distance code 2.
const MATCH_258: [u8; 6] = [0x4b, 0x4c, 0x4a, 0x1e, 0x45, 0x00];

/// The farthest legal match. `FAR_HEAD` opens a non-final stored block of
/// LEN=0x8000 (NLEN=0x7FFF); 32 768 pattern bytes follow; `FAR_TAIL` is a
/// final fixed block holding <len 3, dist 32768> = symbol 257, distance
/// code 29 (11101, base 24577) with thirteen extra bits 8191, then end of
/// block.
const FAR_HEAD: [u8; 5] = [0x00, 0x00, 0x80, 0xff, 0x7f];
const FAR_TAIL: [u8; 5] = [0x03, 0xde, 0xff, 0x0f, 0x00];

/// Literal-only dynamic block: HLIT=257, HDIST=1 with a zero-length
/// distance code ("no distance codes used at all", RFC 1951 §3.2.7).
/// Lengths: `A`, `T` 2; `G`, `C`, space, 256 3.
const LITERAL_ONLY: [u8; 22] = [
    0x05, 0x80, 0x31, 0x0d, 0x00, 0x00, 0x00, 0x82, 0xaa, 0x58, 0x85, 0x79, 0x58, 0x80, 0xfe, 0x59,
    0xdc, 0x50, 0x4a, 0x86, 0x52, 0x0e,
];
const LITERAL_ONLY_PLAIN: &[u8] = b"GATTACA GATTACA";

/// Dynamic block with a single-code distance tree: HDIST=2, distance
/// lengths (0, 1) — one code, encoded "using one bit, not zero bits"
/// (§3.2.7), an incomplete set every inflater must accept. Literal/length
/// lengths: `a`, `b`, 256 and 260 (len 6) two bits each. Body: `a b`
/// <len 6, dist 2>, end of block.
const SINGLE_DIST: [u8; 16] = [
    0x25, 0xc1, 0x31, 0x11, 0x00, 0x00, 0x00, 0x40, 0xc0, 0xac, 0xf4, 0x0f, 0x61, 0x70, 0x8f, 0x0b,
];
const SINGLE_DIST_PLAIN: &[u8] = b"abababab";

/// Literal-only dynamic block long enough for the decoder's fast loop,
/// whose short codes pair in one multi-literal entry. HLIT=257, HDIST=1
/// (one zero length), HCLEN=18; code-length code lengths: 0, 3 and 18 two
/// bits, 1 and 2 three bits. Lengths sent: 18 + 86 (97 zeros), 1 (`a`),
/// 2 (`b`), 3 (`c`), 18 + 127 and 18 + 7 (156 zeros), 3 (end of block),
/// 0 (the distance code). Literal codes: `a` 0, `b` 10, `c` 110, end of
/// block 111. The header takes 110 bits; "abcb" is 0 10 110 10, exactly
/// eight bits, so from the header's last byte on every byte repeats: two
/// bits of one unit and six of the next, 0x96. The tail holds the last
/// six bits of the 80th unit and end of block.
const PAIRS_HEAD: [u8; 14] =
    [0x05, 0xc0, 0x01, 0x09, 0x00, 0x00, 0x00, 0xc2, 0xb0, 0xac, 0xbb, 0xfd, 0x3b, 0x88];
const PAIRS_UNIT: [u8; 1] = [0x96];
const PAIRS_UNITS: usize = 79;
const PAIRS_TAIL: [u8; 2] = [0xd6, 0x01];
const PAIRS_PLAIN: &[u8] = b"abcb";
const PAIRS_REPEAT: usize = 80;

/// Literal-only dynamic block long enough for the fast loop, with
/// `LONG_CODES`' code (`a` 1 bit, `b` 2, … `k` 11, … `o` and end of block
/// 15): pairs of `a` share an entry, and every `k` needs the second level
/// of a 10-bit primary table. HLIT=257, HDIST=1, HCLEN=19; code-length
/// code lengths: 0, 14, 15 and 17 five bits, 1–13 and 18 four bits.
/// Lengths sent: 18 + 86 (97 zeros), 1 through 15 (`a`–`o`), 18 + 127
/// and 17 + 3 (144 zeros), 15 (end of block), 0 (the distance code). The
/// header ends on a byte boundary (176 bits); "aaaaak" is five 0 bits
/// and 11111111110, sixteen bits, `e0 7f`; end of block is fifteen 1 bits.
const LONG_RUN_HEAD: [u8; 22] = [
    0x05, 0xe0, 0x51, 0x96, 0x24, 0x49, 0x92, 0x24, 0xcb, 0xae, 0x15, 0x90, 0x58, 0xd4, 0x3c, 0xb2,
    0x7a, 0xee, 0xdb, 0xff, 0xdf, 0x3b,
];
const LONG_RUN_UNIT: [u8; 2] = [0xe0, 0x7f];
const LONG_RUN_UNITS: usize = 60;
const LONG_RUN_TAIL: [u8; 2] = [0xff, 0x7f];
const LONG_RUN_PLAIN: &[u8] = b"aaaaak";
const LONG_RUN_REPEAT: usize = 60;

/// `head`, `units` copies of `unit`, `tail`.
fn periodic(head: &[u8], unit: &[u8], units: usize, tail: &[u8]) -> Vec<u8> {
    let mut s = head.to_vec();
    for _ in 0..units {
        s.extend_from_slice(unit);
    }
    s.extend_from_slice(tail);
    s
}

/// The BGZF end-of-file marker exactly as printed in the SAM
/// specification §4.1.2: an empty gzip member whose body is the fixed
/// block `03 00` (BFINAL=1, BTYPE=01, end of block).
const SPEC_EOF: [u8; 28] = [
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x06, 0x00, 0x42, 0x43, 0x02, 0x00,
    0x1b, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// A BGZF member assembled by hand around the `STORED` stream: gzip
/// header with FEXTRA, XLEN=6, subfield `BC` of SLEN 2 holding BSIZE−1 =
/// 18 + 10 + 8 − 1 = 35, the body, CRC-32("hello") = 0x3610A686, ISIZE 5.
const BGZF_HELLO: [u8; 36] = [
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x06, 0x00, b'B', b'C', 0x02, 0x00,
    0x23, 0x00, 0x01, 0x05, 0x00, 0xfa, 0xff, b'h', b'e', b'l', b'l', b'o', 0x86, 0xa6, 0x10, 0x36,
    0x05, 0x00, 0x00, 0x00,
];

fn far_pattern() -> Vec<u8> {
    (0..32_768u32).map(|i| (i * 7 + (i >> 8)) as u8).collect()
}

fn far_stream() -> Vec<u8> {
    let mut s = FAR_HEAD.to_vec();
    s.extend_from_slice(&far_pattern());
    s.extend_from_slice(&FAR_TAIL);
    s
}

/// `(name, stream, plaintext)` for every DEFLATE vector.
fn vectors() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let mut far_plain = far_pattern();
    far_plain.extend_from_within(..3);
    let mut match_258 = b"abc".to_vec();
    for i in 0..258 {
        match_258.push(match_258[i]);
    }
    vec![
        ("stored", STORED.to_vec(), b"hello".to_vec()),
        ("fixed", FIXED.to_vec(), FIXED_PLAIN.to_vec()),
        ("dynamic", DYNAMIC.to_vec(), DYNAMIC_PLAIN.to_vec()),
        ("15-bit codes", LONG_CODES.to_vec(), LONG_CODES_PLAIN.to_vec()),
        ("distance-1 run", RUN_DIST1.to_vec(), vec![b'x'; 11]),
        ("258-byte match", MATCH_258.to_vec(), match_258),
        ("32768-distance match", far_stream(), far_plain),
        ("literal-only dynamic", LITERAL_ONLY.to_vec(), LITERAL_ONLY_PLAIN.to_vec()),
        ("single-code distance tree", SINGLE_DIST.to_vec(), SINGLE_DIST_PLAIN.to_vec()),
        (
            "paired short literals",
            periodic(&PAIRS_HEAD, &PAIRS_UNIT, PAIRS_UNITS, &PAIRS_TAIL),
            PAIRS_PLAIN.repeat(PAIRS_REPEAT),
        ),
        (
            "long literal codes in a run",
            periodic(&LONG_RUN_HEAD, &LONG_RUN_UNIT, LONG_RUN_UNITS, &LONG_RUN_TAIL),
            LONG_RUN_PLAIN.repeat(LONG_RUN_REPEAT),
        ),
    ]
}

#[test]
fn every_vector_decodes_to_its_plaintext() {
    for (name, stream, plain) in vectors() {
        // With no size hint, with the exact size, and through the
        // appending entry point that reports the bytes consumed.
        assert_eq!(inflate(&stream, 0).unwrap(), plain, "{name}");
        assert_eq!(inflate(&stream, plain.len()).unwrap(), plain, "{name}");
        let mut out = b"prefix".to_vec();
        let used = inflate_into(&stream, &mut out).unwrap();
        assert_eq!(used, stream.len(), "{name}: consumed");
        assert_eq!(&out[..6], b"prefix", "{name}");
        assert_eq!(&out[6..], &plain[..], "{name}");
    }
}

#[test]
fn every_vector_decodes_into_exactly_its_declared_size() {
    // One decoder across all vectors: its scratch tables are rebuilt per
    // dynamic block and must carry nothing over.
    let mut inflater = Inflater::new();
    for (name, stream, plain) in vectors() {
        let mut out = vec![0u8; plain.len()];
        assert_eq!(inflater.inflate_exact(&stream, &mut out).unwrap(), stream.len(), "{name}");
        assert_eq!(out, plain, "{name}");
        // Declared one byte short or one byte long, the stream is corrupt.
        assert!(inflater.inflate_exact(&stream, &mut out[..plain.len() - 1]).is_err(), "{name}");
        let mut long = vec![0u8; plain.len() + 1];
        assert!(inflater.inflate_exact(&stream, &mut long).is_err(), "{name}");
    }
}

#[test]
fn every_truncation_of_every_vector_is_an_error() {
    for (name, stream, _) in vectors() {
        // The far-match vector is 32 KiB of stored bytes; cutting inside
        // them is one case, not 32 768.
        let cuts: Vec<usize> = if stream.len() > 1000 {
            vec![0, 3, 5, 100, stream.len() - 6, stream.len() - 3, stream.len() - 1]
        } else {
            (0..stream.len()).collect()
        };
        for cut in cuts {
            // Streams are byte-minimal, so dropping a whole byte always
            // drops at least one bit the decoder needs.
            assert!(inflate(&stream[..cut], 0).is_err(), "{name}: cut at {cut} decoded");
        }
    }
}

#[test]
fn encoder_output_for_every_plaintext_decodes_back() {
    for (name, _, plain) in vectors() {
        for strategy in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            for level in [1u8, 6, 9] {
                let c = deflate(&plain, Options { strategy, level });
                assert_eq!(inflate(&c, plain.len()).unwrap(), plain, "{name} {strategy:?} {level}");
            }
        }
        let c = deflate(&plain, Options::default());
        assert_eq!(inflate(&c, 0).unwrap(), plain, "{name} default");
    }
}

#[test]
fn bgzf_eof_member_is_the_specs_28_bytes() {
    assert_eq!(EOF_MARKER, SPEC_EOF);
    assert_eq!(peek_block_size(&SPEC_EOF).unwrap(), 28);
    let (payload, used) = decompress_block(&SPEC_EOF).unwrap();
    assert!(payload.is_empty());
    assert_eq!(used, 28);
    // It is also a plain RFC 1952 member.
    let (payload, used) = gzip::decompress_member(&SPEC_EOF).unwrap();
    assert!(payload.is_empty());
    assert_eq!(used, 28);
    // Its body alone is the two-byte empty fixed block.
    assert_eq!(inflate(&SPEC_EOF[18..20], 0).unwrap(), b"");
}

#[test]
fn hand_built_bgzf_member_decodes() {
    assert_eq!(peek_block_size(&BGZF_HELLO).unwrap(), BGZF_HELLO.len());
    let (payload, used) = decompress_block(&BGZF_HELLO).unwrap();
    assert_eq!(payload, b"hello");
    assert_eq!(used, BGZF_HELLO.len());
    let (payload, used) = gzip::decompress_member(&BGZF_HELLO).unwrap();
    assert_eq!(payload, b"hello");
    assert_eq!(used, BGZF_HELLO.len());
    // A wrong CRC or a wrong ISIZE in the trailer is refused.
    let mut bad = BGZF_HELLO;
    bad[28] ^= 1;
    assert!(decompress_block(&bad).is_err());
    let mut bad = BGZF_HELLO;
    bad[32] = 4;
    assert!(decompress_block(&bad).is_err());
    let mut bad = BGZF_HELLO;
    bad[32] = 6;
    assert!(decompress_block(&bad).is_err());
}

#[test]
fn crc32_check_values() {
    // The catalogue check value of CRC-32/ISO-HDLC, and the empty input.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"hello"), 0x3610_A686);
    // Lengths that are no multiple of 8 or 16: 43, 251 and 1031 bytes.
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    let ramp: Vec<u8> = (0..251u32).map(|i| i as u8).collect();
    assert_eq!(crc32(&ramp), 0x50B2_60D5);
    let mixed: Vec<u8> = (0..1031u32).map(|i| (i * 31 + 7) as u8).collect();
    assert_eq!(crc32(&mixed), 0xEF53_B7CF);
    // Any split of the input, at any alignment, gives the same value.
    for split in [0, 1, 7, 8, 9, 15, 16, 17, 511, 1030, 1031] {
        let mut h = Crc32::new();
        h.update(&mixed[..split]);
        h.update(&mixed[split..]);
        assert_eq!(h.finish(), 0xEF53_B7CF, "split at {split}");
    }
    // And from any starting alignment inside a buffer.
    for skip in 0..17 {
        let tail = &mixed[skip..];
        let mut bytewise = Crc32::new();
        for &b in tail {
            bytewise.update(&[b]);
        }
        assert_eq!(crc32(tail), bytewise.finish(), "skip {skip}");
    }
}
