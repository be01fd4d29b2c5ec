//! Property-based tests over the full compression stack: any byte string
//! must survive deflate → inflate, gzip member framing, and BGZF framing,
//! at every strategy/level.
//!
//! The table-driven decoder is also checked against a *differential
//! oracle*: [`reference`], a bit-at-a-time inflater that reads RFC 1951
//! literally and shares no code with the crate. On encoder output, on
//! literal-only blocks and on arbitrarily mutated or truncated streams
//! the two must agree — both `Ok` with equal bytes, or both `Err`.
//!
//! Finally [`CORPUS_PINS`] holds length + CRC-32 of the encoder's output
//! on a fixed corpus where matches pay, recorded before the matcher and
//! emitter were rebuilt: the rebuilt kernels must return the same parse.

use std::io::{Cursor, Read};

use proptest::prelude::*;

use ngs_bgzf::deflate::{deflate, Options, Strategy as BlockStrategy};
use ngs_bgzf::inflate::inflate;
use ngs_bgzf::ReadAheadReader;

/// Reads `r` to its end in `step`-byte reads: the bytes delivered, and
/// the kind and message of the error that ended the stream, if one did.
fn drain<R: Read>(mut r: R, step: usize) -> (Vec<u8>, Option<(std::io::ErrorKind, String)>) {
    let mut out = Vec::new();
    let mut buf = vec![0u8; step];
    loop {
        match r.read(&mut buf) {
            Ok(0) => return (out, None),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => return (out, Some((e.kind(), e.to_string()))),
        }
    }
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes.
        proptest::collection::vec(any::<u8>(), 0..4096),
        // Highly repetitive (exercises long matches / overlapping copies).
        (any::<u8>(), 0usize..20_000).prop_map(|(b, n)| vec![b; n]),
        // Text-like with limited alphabet (exercises dynamic Huffman).
        proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'\t'), Just(b'\n')], 0..8192),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip_dynamic(data in arb_payload()) {
        let c = deflate(&data, Options { strategy: BlockStrategy::Dynamic, level: 6 });
        prop_assert_eq!(inflate(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_fixed(data in arb_payload()) {
        let c = deflate(&data, Options { strategy: BlockStrategy::Fixed, level: 4 });
        prop_assert_eq!(inflate(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_stored(data in arb_payload()) {
        let c = deflate(&data, Options { strategy: BlockStrategy::Stored, level: 0 });
        prop_assert_eq!(inflate(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_levels(data in proptest::collection::vec(any::<u8>(), 0..2048), level in 0u8..=9) {
        let c = deflate(&data, Options::from_level(level));
        prop_assert_eq!(inflate(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn gzip_member_roundtrip(data in arb_payload()) {
        let member = ngs_bgzf::gzip::compress_member(&data, None, Options::default());
        let (out, used) = ngs_bgzf::gzip::decompress_member(&member).unwrap();
        prop_assert_eq!(out, data);
        prop_assert_eq!(used, member.len());
    }

    #[test]
    fn bgzf_file_roundtrip(data in arb_payload()) {
        let file = ngs_bgzf::compress_sequential(&data, Options::default());
        prop_assert!(ngs_bgzf::reader::validate(&file).unwrap());
        prop_assert_eq!(&drain(ReadAheadReader::new(Cursor::new(file.clone()), 2), 4096).0, &data);
        prop_assert_eq!(&ngs_bgzf::decompress_sequential(&file).unwrap(), &data);
    }

    /// The read-ahead reader is the streaming reader, threaded: on any
    /// member chain — encoder output, concatenated small members (more
    /// of them than the window holds), empty interior members, the EOF
    /// marker present or cut off, a flipped byte, a truncated tail — the
    /// consumer gets equal bytes and then either a clean end or the same
    /// error, at every worker count and with 1-byte reads.
    #[test]
    fn read_ahead_equals_streaming_reader(
        pieces in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..600), 0..40),
        tail in arb_payload(),
        eof_marker in any::<bool>(),
        flip in (any::<bool>(), any::<usize>(), 1u8..=255),
        cut in (any::<bool>(), any::<usize>()),
        workers in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        one_byte_reads in any::<bool>(),
    ) {
        let mut file = Vec::new();
        for piece in &pieces {
            file.extend_from_slice(&ngs_bgzf::block::compress_block(piece, Options::default()));
        }
        file.extend_from_slice(&ngs_bgzf::compress_sequential(&tail, Options::default()));
        if !eof_marker {
            file.truncate(file.len() - ngs_bgzf::block::EOF_MARKER.len());
        }
        if let (true, at, mask) = flip {
            if !file.is_empty() {
                let at = at % file.len();
                file[at] ^= mask;
            }
        }
        if let (true, at) = cut {
            file.truncate(at % (file.len() + 1));
        }
        let step = if one_byte_reads { 1 } else { 4096 };
        let expected = drain(ngs_bgzf::BgzfReader::new(Cursor::new(&file)), step);
        let got = drain(ReadAheadReader::new(Cursor::new(file.clone()), workers), step);
        prop_assert_eq!(got.0.len(), expected.0.len());
        prop_assert_eq!(got, expected);
    }

    /// Dropping the reader after any number of bytes — none, mid-member,
    /// with the window full and the walker blocked on it — returns: the
    /// helpers are woken and joined, nothing is left running.
    #[test]
    fn read_ahead_drop_mid_stream_terminates(
        members in 0usize..60,
        take in 0usize..4000,
        workers in 1usize..=4,
    ) {
        let mut file = Vec::new();
        for i in 0..members {
            file.extend_from_slice(&ngs_bgzf::block::compress_block(&[i as u8; 100], Options::default()));
        }
        let mut reader = ReadAheadReader::new(Cursor::new(file), workers);
        let mut buf = vec![0u8; take];
        let mut filled = 0;
        while filled < take {
            match reader.read(&mut buf[filled..]).unwrap() {
                0 => break,
                n => filled += n,
            }
        }
        prop_assert_eq!(filled, take.min(members * 100));
        drop(reader);
    }

    #[test]
    fn crc32_is_distributive_over_concatenation_checks(a in proptest::collection::vec(any::<u8>(), 0..512),
                                                       b in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Incremental hashing over two parts equals hashing the whole.
        let mut h = ngs_bgzf::crc32::Crc32::new();
        h.update(&a);
        h.update(&b);
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        prop_assert_eq!(h.finish(), ngs_bgzf::crc32::crc32(&whole));
    }

    #[test]
    fn huffman_lengths_satisfy_kraft(freqs in proptest::collection::vec(0u64..10_000, 2..200),
                                     limit in 5usize..=15) {
        let used = freqs.iter().filter(|&&f| f > 0).count();
        prop_assume!(used <= 1usize << limit);
        let lengths = ngs_bgzf::huffman::build_lengths(&freqs, limit);
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32))).sum();
        prop_assert!(kraft <= 1.0 + 1e-9);
        if used >= 2 {
            // Complete code when at least two symbols are in play.
            prop_assert!((kraft - 1.0).abs() < 1e-9, "kraft {kraft} used {used}");
        }
        for (i, &f) in freqs.iter().enumerate() {
            prop_assert_eq!(f > 0, lengths[i] > 0);
            prop_assert!((lengths[i] as usize) <= limit);
        }
    }

    #[test]
    fn decoder_agrees_with_reference_on_encoder_output(data in arb_payload(), level in 0u8..=9, fixed in any::<bool>()) {
        let opts = if fixed {
            Options { strategy: BlockStrategy::Fixed, level: level.max(1) }
        } else {
            Options::from_level(level)
        };
        let c = deflate(&data, opts);
        prop_assert_eq!(&reference::inflate(&c).unwrap().0, &data);
        assert_agrees_with_reference(&c)?;
    }

    #[test]
    fn decoder_agrees_with_reference_on_literal_only_blocks(data in arb_payload(), skew in 0u32..40) {
        let c = literal_only_stream(&data, skew);
        prop_assert_eq!(&reference::inflate(&c).unwrap().0, &data);
        assert_agrees_with_reference(&c)?;
    }

    /// Bytes after the stream — a gzip/BGZF trailer, the next member —
    /// keep a whole input word ahead to the end, so the last symbols and
    /// end of block are decoded by the fast loop: output and the consumed
    /// count still match the reference, which stops at the body's end.
    #[test]
    fn decoder_agrees_with_reference_when_bytes_follow_the_stream(
        data in arb_payload(),
        level in 0u8..=9,
        literal_only in any::<bool>(),
        skew in 0u32..40,
        trailer in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let mut c = if literal_only { literal_only_stream(&data, skew) } else { deflate(&data, Options::from_level(level)) };
        let body = c.len();
        c.extend_from_slice(&trailer);
        prop_assert_eq!(reference::inflate(&c), Some((data, body)));
        assert_agrees_with_reference(&c)?;
    }

    /// Literal-only streams whose code mixes pairable short codes with
    /// codes longer than the decoder's primary index, whole and cut inside
    /// the literal run: the exact decode at the declared size and ± 1
    /// agrees with the reference (`Ok` only whole and at the true size)
    /// and never writes past the size it was given.
    #[test]
    fn literal_runs_with_long_codes_cut_anywhere(
        base in any::<u8>(),
        order in any::<u64>(),
        skew in 0u32..40,
        cut in any::<u32>(),
    ) {
        let data = short_and_long_literals(base, order);
        let lengths = literal_only_lengths(&data, skew);
        prop_assert!(lengths.iter().any(|&l| l > 10), "no code needs a sub-table");
        prop_assert!(lengths.iter().any(|&l| l > 0 && l <= 5), "no short codes to pair");
        let c = literal_only_stream(&data, skew);
        assert_agrees_with_reference(&c)?;
        let cut = &c[..cut as usize % c.len()];
        assert_agrees_with_reference(cut)?;
        let mut inflater = ngs_bgzf::Inflater::new();
        for size in [data.len() - 1, data.len(), data.len() + 1] {
            let mut buf = vec![0x5Au8; size + 16];
            prop_assert!(inflater.inflate_exact(cut, &mut buf[..size]).is_err());
            prop_assert!(buf[size..].iter().all(|&b| b == 0x5A), "wrote past a declared size of {size}");
        }
    }

    #[test]
    fn decoder_agrees_with_reference_on_mutated_streams(
        data in arb_payload(),
        level in 1u8..=9,
        literal_only in any::<bool>(),
        flips in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..4),
        cut in any::<u32>(),
        truncate in any::<bool>(),
    ) {
        let mut c = if literal_only { literal_only_stream(&data, 7) } else { deflate(&data, Options::from_level(level)) };
        for (at, xor) in flips {
            let at = at as usize % c.len();
            c[at] ^= xor;
        }
        if truncate {
            c.truncate(cut as usize % (c.len() + 1));
        }
        assert_agrees_with_reference(&c)?;
    }
}

#[test]
fn bgzf_virtual_offsets_address_every_byte() {
    // Deterministic (non-proptest) heavier check: record voffsets while
    // writing, then seek back to each and verify the byte.
    use std::io::{Read, Write};
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
    let mut w = ngs_bgzf::BgzfWriter::new(Vec::new());
    let mut marks = Vec::new();
    for chunk in payload.chunks(1013) {
        marks.push(w.virtual_position());
        w.write_all(chunk).unwrap();
    }
    let file = w.finish().unwrap();
    let mut r = ngs_bgzf::BgzfReader::new(std::io::Cursor::new(&file));
    for (i, &v) in marks.iter().enumerate() {
        r.seek_virtual(v).unwrap();
        let mut b = [0u8; 1];
        r.read_exact(&mut b).unwrap();
        assert_eq!(b[0], payload[i * 1013], "mark {i}");
    }
}

/// Bit-at-a-time reference inflater: RFC 1951 read literally, in the
/// manner of zlib's `puff.c`. Slow and obviously right; kept in the test
/// so the crate's decoder is never its own oracle.
mod reference {
    const LBASE: [usize; 29] = [
        3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
        131, 163, 195, 227, 258,
    ];
    const LEXT: [u32; 29] =
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
    const DBASE: [usize; 30] = [
        1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
        2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
    ];
    const DEXT: [u32; 30] = [
        0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
        13, 13,
    ];
    const ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

    struct Bits<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl Bits<'_> {
        fn bit(&mut self) -> Option<u32> {
            let byte = *self.data.get(self.pos / 8)?;
            let b = (byte >> (self.pos % 8)) & 1;
            self.pos += 1;
            Some(b as u32)
        }
        fn bits(&mut self, n: u32) -> Option<u32> {
            let mut v = 0;
            for i in 0..n {
                v |= self.bit()? << i;
            }
            Some(v)
        }
    }

    /// Canonical code as counts per length + symbols in code order.
    struct Code {
        count: [u32; 16],
        symbols: Vec<u16>,
    }

    impl Code {
        /// `None` for an over-subscribed set; incomplete sets are legal
        /// here (decoding an unassigned code fails instead).
        fn new(lengths: &[u8]) -> Option<Code> {
            let mut count = [0u32; 16];
            for &l in lengths {
                count[l as usize] += 1;
            }
            count[0] = 0;
            let mut left = 1i64;
            for &c in &count[1..] {
                left = (left << 1) - c as i64;
                if left < 0 {
                    return None;
                }
            }
            let mut symbols = Vec::new();
            for len in 1..16u8 {
                symbols.extend((0..lengths.len()).filter(|&s| lengths[s] == len).map(|s| s as u16));
            }
            Some(Code { count, symbols })
        }

        fn decode(&self, r: &mut Bits<'_>) -> Option<u16> {
            let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
            for len in 1..16 {
                code |= r.bit()?;
                let count = self.count[len];
                if code < first + count {
                    return Some(self.symbols[(index + code - first) as usize]);
                }
                index += count;
                first = (first + count) << 1;
                code <<= 1;
            }
            None
        }
    }

    fn fixed() -> (Code, Code) {
        let mut l = [8u8; 288];
        l[144..256].fill(9);
        l[256..280].fill(7);
        (Code::new(&l).unwrap(), Code::new(&[5u8; 30]).unwrap())
    }

    fn dynamic(r: &mut Bits<'_>) -> Option<(Code, Code)> {
        let hlit = r.bits(5)? as usize + 257;
        let hdist = r.bits(5)? as usize + 1;
        let hclen = r.bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return None;
        }
        let mut cl = [0u8; 19];
        for &o in &ORDER[..hclen] {
            cl[o] = r.bits(3)? as u8;
        }
        let clc = Code::new(&cl)?;
        let mut lengths: Vec<u8> = Vec::new();
        while lengths.len() < hlit + hdist {
            let (value, repeat) = match clc.decode(r)? {
                s @ 0..=15 => (s as u8, 1),
                16 => (*lengths.last()?, 3 + r.bits(2)?),
                17 => (0, 3 + r.bits(3)?),
                _ => (0, 11 + r.bits(7)?),
            };
            lengths.extend(std::iter::repeat_n(value, repeat as usize));
        }
        if lengths.len() != hlit + hdist || lengths[256] == 0 {
            return None;
        }
        Some((Code::new(&lengths[..hlit])?, Code::new(&lengths[hlit..])?))
    }

    /// Decodes one complete stream; `(plaintext, input bytes consumed)`.
    pub fn inflate(data: &[u8]) -> Option<(Vec<u8>, usize)> {
        let mut r = Bits { data, pos: 0 };
        let mut out = Vec::new();
        loop {
            let last = r.bit()?;
            let (lit, dist) = match r.bits(2)? {
                0 => {
                    r.pos = r.pos.div_ceil(8) * 8;
                    let len = r.bits(16)?;
                    if len != !r.bits(16)? & 0xFFFF {
                        return None;
                    }
                    let start = r.pos / 8;
                    out.extend_from_slice(data.get(start..start + len as usize)?);
                    r.pos += 8 * len as usize;
                    if last == 1 {
                        break;
                    }
                    continue;
                }
                1 => fixed(),
                2 => dynamic(&mut r)?,
                _ => return None,
            };
            loop {
                match lit.decode(&mut r)? as usize {
                    s @ 0..=255 => out.push(s as u8),
                    256 => break,
                    s @ 257..=285 => {
                        let len = LBASE[s - 257] + r.bits(LEXT[s - 257])? as usize;
                        let d = dist.decode(&mut r)? as usize;
                        let d = DBASE.get(d)? + r.bits(DEXT[d])? as usize;
                        let from = out.len().checked_sub(d)?;
                        for k in 0..len {
                            out.push(out[from + k]);
                        }
                    }
                    _ => return None,
                }
            }
            if last == 1 {
                break;
            }
        }
        Some((out, r.pos.div_ceil(8)))
    }
}

/// Decoder under test ≡ the reference on `stream`: both `Ok` with equal
/// bytes and equal consumed count, or both `Err`. The bounded entry point
/// must agree as well: `Ok` exactly when the declared size is the size
/// the reference produces, and never a byte written beyond it.
fn assert_agrees_with_reference(stream: &[u8]) -> Result<(), TestCaseError> {
    let expect = reference::inflate(stream);
    let mut out = Vec::new();
    let got = ngs_bgzf::inflate::inflate_into(stream, &mut out);
    let mut inflater = ngs_bgzf::Inflater::new();
    let declared = expect.as_ref().map_or(out.len(), |(plain, _)| plain.len());
    for (size, fits) in [(declared, true), (declared + 1, false), (declared.saturating_sub(1), declared == 0)] {
        let mut buf = vec![0x5Au8; size + 16];
        let exact = inflater.inflate_exact(stream, &mut buf[..size]);
        prop_assert!(buf[size..].iter().all(|&b| b == 0x5A), "wrote past a declared size of {size}");
        match (&expect, exact) {
            (Some((plain, used)), Ok(consumed)) => {
                prop_assert!(fits, "declared {size}, reference produced {}", plain.len());
                prop_assert_eq!(&buf[..size], &plain[..]);
                prop_assert_eq!(consumed, *used);
            }
            (Some(_), Err(_)) => prop_assert!(!fits, "exact decode failed at the true size {size}"),
            (None, Ok(_)) => prop_assert!(false, "reference rejects, exact decode accepts"),
            (None, Err(_)) => {}
        }
    }
    match (expect, got) {
        (Some((plain, used)), Ok(consumed)) => {
            prop_assert_eq!(&out, &plain);
            prop_assert_eq!(consumed, used);
        }
        (None, Err(_)) => {}
        (Some((plain, _)), Err(e)) => {
            prop_assert!(false, "reference decodes {} bytes, decoder fails: {e}", plain.len());
        }
        (None, Ok(_)) => prop_assert!(false, "reference rejects, decoder yields {} bytes", out.len()),
    }
    Ok(())
}

/// Code lengths for [`literal_only_stream`]: the byte histogram of
/// `data`, exaggerated by `skew`, plus end-of-block.
fn literal_only_lengths(data: &[u8], skew: u32) -> Vec<u8> {
    let mut freq = vec![0u64; 257];
    for &b in data {
        freq[b as usize] += 1;
    }
    for (i, f) in freq.iter_mut().enumerate() {
        if *f > 0 && skew > 0 {
            *f <<= (i as u32 * 7 % (skew + 1)).min(40);
        }
    }
    freq[256] = 1;
    ngs_bgzf::huffman::build_lengths(&freq, 15)
}

/// A literal-only dynamic block built without the crate's encoder: code
/// lengths from the byte histogram (`skew` exaggerates it so long codes
/// appear), sent with a flat 4-bit code-length code and no run-lengths,
/// HDIST=1 with a zero-length distance code.
fn literal_only_stream(data: &[u8], skew: u32) -> Vec<u8> {
    use ngs_bgzf::bits::BitWriter;
    use ngs_bgzf::huffman::Encoder;
    let lengths = literal_only_lengths(data, skew);
    let enc = Encoder::from_lengths(&lengths).unwrap();
    let mut w = BitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b10, 2);
    w.write_bits(0, 5); // HLIT = 257
    w.write_bits(0, 5); // HDIST = 1
    w.write_bits(15, 4); // HCLEN = 19
    for &sym in &[16usize, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15] {
        w.write_bits(if sym < 16 { 4 } else { 0 }, 3);
    }
    // Sixteen 4-bit codes in symbol order: symbol s has canonical code s,
    // sent MSB-first.
    for &l in lengths.iter().chain(std::iter::once(&0u8)) {
        w.write_bits((l as u32).reverse_bits() >> 28, 4);
    }
    for &b in data {
        enc.encode(&mut w, b as usize);
    }
    enc.encode(&mut w, 256);
    w.into_bytes()
}

/// Symbol `k` of 0..24 about `4096 >> k` times (at least once), as
/// `base + k`, shuffled by `order`: the frequent symbols get codes of a
/// few bits that pair, the rare ones codes longer than ten bits.
fn short_and_long_literals(base: u8, order: u64) -> Vec<u8> {
    let mut data = Vec::new();
    for k in 0u8..24 {
        data.extend(std::iter::repeat_n(base.wrapping_add(k), (4096usize >> k).max(1)));
    }
    let mut g = Gen(order);
    for i in (1..data.len()).rev() {
        data.swap(i, g.below(i as u64 + 1) as usize);
    }
    data
}

/// Splitmix-style generator for the fixed corpus (no dependency on the
/// proptest runner's seeding, so the pins never move).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// SAM-like text: tab-separated fields with shared prefixes (matches pay).
fn corpus_sam_text(lines: usize) -> Vec<u8> {
    let mut g = Gen(1);
    let mut out = Vec::new();
    let mut pos = 10_000u64;
    for i in 0..lines {
        pos += g.below(40);
        let seq: String = (0..36).map(|_| b"ACGT"[g.below(4) as usize] as char).collect();
        let qual: String = (0..36).map(|_| (b'!' + 30 + g.below(10) as u8) as char).collect();
        out.extend_from_slice(
            format!(
                "read.{:07}\t{}\tchr{}\t{}\t{}\t36M\t=\t{}\t{}\t{}\t{}\tNM:i:{}\tRG:Z:grp1\n",
                i,
                [99, 147, 83, 163][g.below(4) as usize],
                1 + pos / 400_000,
                pos,
                20 + g.below(40),
                pos + 150 + g.below(100),
                186 + g.below(100),
                seq,
                qual,
                g.below(4),
            )
            .as_bytes(),
        );
    }
    out
}

/// BAM-like binary records: little-endian fixed fields, a NUL-terminated
/// name, 4-bit packed bases, raw qualities.
fn corpus_binary_records(n: usize) -> Vec<u8> {
    let mut g = Gen(2);
    let mut out = Vec::new();
    let mut pos = 5_000i32;
    for i in 0..n {
        pos += g.below(30) as i32;
        out.extend_from_slice(&(32 + 12 + 4 + 18 + 36u32).to_le_bytes());
        out.extend_from_slice(&0i32.to_le_bytes());
        out.extend_from_slice(&pos.to_le_bytes());
        out.extend_from_slice(&[12, 20 + g.below(40) as u8, 0x49, 0x12, 1, 0, 99, 0]);
        out.extend_from_slice(&36u32.to_le_bytes());
        out.extend_from_slice(&0i32.to_le_bytes());
        out.extend_from_slice(&(pos + 200).to_le_bytes());
        out.extend_from_slice(&236i32.to_le_bytes());
        out.extend_from_slice(format!("rd.{i:07}\0").as_bytes());
        out.extend_from_slice(&(36u32 << 4).to_le_bytes());
        out.extend((0..18).map(|_| [0x11u8, 0x12, 0x14, 0x18, 0x21, 0x22, 0x48, 0x88][g.below(8) as usize]));
        out.extend((0..36).map(|_| 30 + g.below(10) as u8));
    }
    out
}

/// `(name, bytes)` of the pinned corpus: inputs on which an LZ77 parse
/// clearly beats plain Huffman coding, from 100 B to beyond one window.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let text = corpus_sam_text(600);
    let mut mutated_fox = Vec::new();
    let mut g = Gen(3);
    for _ in 0..1500 {
        let mut s = b"the quick brown fox jumps over the lazy dog. ".to_vec();
        if g.below(3) == 0 {
            let at = g.below(s.len() as u64) as usize;
            s[at] = b'a' + g.below(26) as u8;
        }
        mutated_fox.extend_from_slice(&s);
    }
    vec![
        ("sam-text-100", text[..100].to_vec()),
        ("sam-text-1000", text[..1000].to_vec()),
        ("sam-text-8191", text[..8191].to_vec()),
        ("sam-text-8192", text[..8192].to_vec()),
        ("sam-text-all", text),
        ("binary-records", corpus_binary_records(500)),
        ("mutated-fox", mutated_fox),
        ("zeros-70000", vec![0u8; 70_000]),
        ("two-byte-period", b"ab".repeat(5_000)),
    ]
}

/// `(input, level, strategy is Fixed, output length, output CRC-32)`.
const CORPUS_PINS: &[(&str, u8, bool, usize, u32)] = &[
    ("sam-text-100", 1, false, 85, 0xCF79BC67),
    ("sam-text-100", 3, false, 85, 0xCF79BC67),
    ("sam-text-100", 5, false, 85, 0xCF79BC67),
    ("sam-text-100", 6, false, 85, 0xCF79BC67),
    ("sam-text-100", 8, false, 85, 0xCF79BC67),
    ("sam-text-100", 9, false, 85, 0xCF79BC67),
    ("sam-text-100", 6, true, 85, 0xCF79BC67),
    ("sam-text-1000", 1, false, 463, 0x3C244A0E),
    ("sam-text-1000", 3, false, 462, 0xB6794A85),
    ("sam-text-1000", 5, false, 461, 0x6C44B02B),
    ("sam-text-1000", 6, false, 461, 0x6C44B02B),
    ("sam-text-1000", 8, false, 461, 0x6C44B02B),
    ("sam-text-1000", 9, false, 461, 0x6C44B02B),
    ("sam-text-1000", 6, true, 604, 0x4162E9FC),
    ("sam-text-8191", 1, false, 3310, 0x7FEC280C),
    ("sam-text-8191", 3, false, 3271, 0x3108BE38),
    ("sam-text-8191", 5, false, 3188, 0x441C1F48),
    ("sam-text-8191", 6, false, 3188, 0x44A20EBC),
    ("sam-text-8191", 8, false, 3188, 0x44A20EBC),
    ("sam-text-8191", 9, false, 3188, 0x44A20EBC),
    ("sam-text-8191", 6, true, 4169, 0x82817358),
    ("sam-text-8192", 1, false, 3310, 0x17D5499B),
    ("sam-text-8192", 3, false, 3272, 0x5983EF3A),
    ("sam-text-8192", 5, false, 3188, 0x50E9FF1E),
    ("sam-text-8192", 6, false, 3188, 0x4ED8FE97),
    ("sam-text-8192", 8, false, 3188, 0x4ED8FE97),
    ("sam-text-8192", 9, false, 3188, 0x4ED8FE97),
    ("sam-text-8192", 6, true, 4169, 0x09792999),
    ("sam-text-all", 1, false, 32339, 0x5AC0801C),
    ("sam-text-all", 3, false, 31692, 0x6D0C4682),
    ("sam-text-all", 5, false, 30852, 0xCECBA186),
    ("sam-text-all", 6, false, 30614, 0x39EFF145),
    ("sam-text-all", 8, false, 30607, 0xD9BA4348),
    ("sam-text-all", 9, false, 30607, 0xD9BA4348),
    ("sam-text-all", 6, true, 38569, 0x1B63C929),
    ("binary-records", 1, false, 21818, 0x36E103E3),
    ("binary-records", 3, false, 21714, 0x45D11E93),
    ("binary-records", 5, false, 21382, 0x072C3D08),
    ("binary-records", 6, false, 21364, 0x44876CB9),
    ("binary-records", 8, false, 21356, 0xED576657),
    ("binary-records", 9, false, 21356, 0xED576657),
    ("binary-records", 6, true, 26403, 0xFE729B92),
    ("mutated-fox", 1, false, 2155, 0xC910122E),
    ("mutated-fox", 3, false, 2127, 0xCFC46169),
    ("mutated-fox", 5, false, 2035, 0xF15CD822),
    ("mutated-fox", 6, false, 1751, 0x9D58873F),
    ("mutated-fox", 8, false, 1661, 0x4361760F),
    ("mutated-fox", 9, false, 1490, 0xC9AFAEEE),
    ("mutated-fox", 6, true, 2316, 0xFC45AE05),
    ("zeros-70000", 1, false, 84, 0x31DF0ACC),
    ("zeros-70000", 3, false, 84, 0x31DF0ACC),
    ("zeros-70000", 5, false, 84, 0x31DF0ACC),
    ("zeros-70000", 6, false, 84, 0x31DF0ACC),
    ("zeros-70000", 8, false, 84, 0x31DF0ACC),
    ("zeros-70000", 9, false, 84, 0x31DF0ACC),
    ("zeros-70000", 6, true, 445, 0x811C545C),
    ("two-byte-period", 1, false, 28, 0x931A6DF6),
    ("two-byte-period", 3, false, 28, 0x931A6DF6),
    ("two-byte-period", 5, false, 28, 0x931A6DF6),
    ("two-byte-period", 6, false, 28, 0x931A6DF6),
    ("two-byte-period", 8, false, 28, 0x931A6DF6),
    ("two-byte-period", 9, false, 28, 0x931A6DF6),
    ("two-byte-period", 6, true, 68, 0xBDEE69BB),
];

fn pin_of(data: &[u8], level: u8, fixed: bool) -> (usize, u32) {
    let strategy = if fixed { BlockStrategy::Fixed } else { BlockStrategy::Dynamic };
    let c = deflate(data, Options { strategy, level });
    assert_eq!(inflate(&c, data.len()).unwrap(), data);
    (c.len(), ngs_bgzf::crc32::crc32(&c))
}

/// Prints the pin table (run with `--ignored --nocapture` to regenerate;
/// only ever legitimate when the *format* of the parse is meant to move).
#[test]
#[ignore]
fn print_corpus_pins() {
    for (name, data) in corpus() {
        for (level, fixed) in [(1u8, false), (3, false), (5, false), (6, false), (8, false), (9, false), (6, true)] {
            let (len, crc) = pin_of(&data, level, fixed);
            println!("    ({name:?}, {level}, {fixed}, {len}, 0x{crc:08X}),");
        }
    }
}

#[test]
fn encoder_output_on_the_pinned_corpus_is_unchanged() {
    let corpus = corpus();
    assert!(!CORPUS_PINS.is_empty());
    for &(name, level, fixed, len, crc) in CORPUS_PINS {
        let data = &corpus.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(pin_of(data, level, fixed), (len, crc), "{name} level {level} fixed {fixed}");
    }
}

/// Exhaustive single-byte damage over a few real streams (header bytes,
/// code-length runs, sub-table codes, match fields, the final bits):
/// decoder and reference agree at every position, every truncation.
#[test]
fn decoder_agrees_with_reference_under_every_single_byte_flip() {
    let text = corpus_sam_text(10);
    let skewed: Vec<u8> = (0..1000u32).map(|i| (i % (1 + i % 41)) as u8).collect();
    assert!(
        literal_only_lengths(&skewed, 33).iter().any(|&l| l > 10),
        "the skewed stream must reach the decoder's sub-tables"
    );
    let streams = [
        deflate(&text, Options::default()),
        deflate(&text, Options { strategy: BlockStrategy::Fixed, level: 6 }),
        deflate(&corpus_binary_records(12), Options::from_level(9)),
        literal_only_stream(&skewed, 33),
        literal_only_stream(&text[..300], 0),
    ];
    for (k, good) in streams.iter().enumerate() {
        for at in 0..good.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= xor;
                assert_agrees_with_reference(&bad)
                    .unwrap_or_else(|e| panic!("stream {k}, byte {at} ^ {xor:#04x}: {e:?}"));
            }
            assert_agrees_with_reference(&good[..at])
                .unwrap_or_else(|e| panic!("stream {k} cut at {at}: {e:?}"));
        }
    }
}
