//! The layout pass measures instead of decoding (DESIGN.md §16): for any
//! record, the four field lengths read off the raw BAM body, the ones
//! read off the SAM line, and the ones `BamxLayout::observe` takes from
//! the decoded record must agree — including when a foreign BAM writer
//! stored integer tags wider than they need to be. Damaged bodies and
//! lines must give a typed error or the decoder's answer, never a panic.

use proptest::prelude::*;

use ngs_bamx::BamxLayout;
use ngs_formats::cigar::{Cigar, CigarOp};
use ngs_formats::flags::Flags;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::{AlignmentRecord, FieldLengths};
use ngs_formats::{bam, sam};

fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 1 << 28 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 1 << 27 },
    ])
}

/// One tag as a BAM writer may store it: raw bytes, chosen type and all.
#[derive(Debug, Clone)]
struct RawTag(Vec<u8>);

fn raw_tag(key: [u8; 2], type_char: u8, value: &[u8]) -> RawTag {
    let mut bytes = vec![key[0], key[1], type_char];
    bytes.extend_from_slice(value);
    RawTag(bytes)
}

/// An integer tag stored in *any* of the six BAM integer types that can
/// hold it — `5` as an `i`, `300` as an `I` — not only the narrowest.
fn arb_int_tag() -> impl Strategy<Value = RawTag> {
    let value = prop_oneof![-130i64..130, -40_000i64..70_000, any::<i64>()];
    (0usize..6, value).prop_map(|(ty, raw)| match ty {
        0 => raw_tag(*b"I0", b'c', &(raw as i8).to_le_bytes()),
        1 => raw_tag(*b"I1", b'C', &(raw as u8).to_le_bytes()),
        2 => raw_tag(*b"I2", b's', &(raw as i16).to_le_bytes()),
        3 => raw_tag(*b"I3", b'S', &(raw as u16).to_le_bytes()),
        4 => raw_tag(*b"I4", b'i', &(raw as i32).to_le_bytes()),
        _ => raw_tag(*b"I5", b'I', &(raw as u32).to_le_bytes()),
    })
}

fn arb_array_tag() -> impl Strategy<Value = RawTag> {
    (0usize..7, proptest::collection::vec(any::<i32>(), 0..9)).prop_map(|(ty, values)| {
        let (subtype, width) = [(b'c', 1), (b'C', 1), (b's', 2), (b'S', 2), (b'i', 4), (b'I', 4), (b'f', 4)][ty];
        let mut bytes = vec![subtype];
        bytes.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in values {
            if subtype == b'f' {
                bytes.extend_from_slice(&(v as f32 / 8.0).to_le_bytes());
            } else {
                bytes.extend_from_slice(&v.to_le_bytes()[..width]);
            }
        }
        raw_tag(*b"XB", b'B', &bytes)
    })
}

/// Every BAM tag type.
fn arb_tag() -> impl Strategy<Value = RawTag> {
    let cstr = |key: [u8; 2], ty: u8| {
        move |s: String| {
            let mut bytes = s.into_bytes();
            bytes.push(0);
            raw_tag(key, ty, &bytes)
        }
    };
    prop_oneof![
        arb_int_tag(),
        arb_array_tag(),
        (b'!'..=b'~').prop_map(|c| raw_tag(*b"XA", b'A', &[c])),
        any::<i32>().prop_map(|v| raw_tag(*b"XF", b'f', &(v as f32 / 8.0).to_le_bytes())),
        "[ -~]{0,24}".prop_map(cstr(*b"XZ", b'Z')),
        "[0-9A-F]{0,6}".prop_map(|s| format!("{s}{s}")).prop_map(cstr(*b"XH", b'H')),
    ]
}

prop_compose! {
    /// Records covering the edge shapes: missing name, no CIGAR, no
    /// sequence, sequence without qualities.
    fn arb_bare_record()(
        qname in prop_oneof![Just(String::new()), "[!-)+-?A-~]{1,40}".prop_map(|s| s)],
        mapped in any::<bool>(),
        pos in 1i64..100_000_000,
        n_ops in 0usize..6,
        seq_len in 0usize..120,
        with_qual in any::<bool>(),
        seed in any::<u64>(),
    ) -> AlignmentRecord {
        let mut x = seed | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let ops = [CigarOp::Match, CigarOp::Insertion, CigarOp::Deletion, CigarOp::SoftClip];
        let cigar = Cigar((0..n_ops).map(|_| (1 + next() as u32 % 90, ops[next() % 4])).collect());
        let seq: Vec<u8> = (0..seq_len).map(|_| b"ACGTN"[next() % 5]).collect();
        let qual: Vec<u8> = if with_qual { seq.iter().map(|_| (next() % 42) as u8).collect() } else { Vec::new() };
        AlignmentRecord {
            qname: qname.into_bytes(),
            flag: if mapped { Flags(0) } else { Flags::UNMAPPED },
            rname: if mapped { b"chr2".to_vec() } else { b"*".to_vec() },
            pos: if mapped { pos } else { 0 },
            mapq: 30,
            cigar,
            rnext: b"*".to_vec(),
            pnext: 0,
            tlen: 0,
            seq,
            qual,
            tags: Vec::new(),
        }
    }
}

/// The BAM body of `record` with `tags` appended exactly as given.
fn body_with_raw_tags(record: &AlignmentRecord, tags: &[RawTag]) -> Vec<u8> {
    let mut buf = Vec::new();
    bam::encode_record(record, &header(), &mut buf).unwrap();
    let mut body = buf[4..].to_vec();
    for tag in tags {
        body.extend_from_slice(&tag.0);
    }
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lengths_from_bam_body_sam_line_and_decoded_record_agree(
        record in arb_bare_record(),
        tags in proptest::collection::vec(arb_tag(), 0..6),
    ) {
        let body = body_with_raw_tags(&record, &tags);
        let decoded = bam::decode_record(&body, &header()).unwrap();
        let expected = FieldLengths::of(&decoded).unwrap();

        prop_assert_eq!(bam::measure_record(&body).unwrap(), expected);

        let mut line = Vec::new();
        sam::write_record(&decoded, &mut line);
        prop_assert_eq!(sam::measure_record(&line, 1).unwrap(), expected, "{}", String::from_utf8_lossy(&line));

        // And the layout they feed is the layout `observe` builds.
        let mut observed = BamxLayout::empty();
        observed.observe(&decoded).unwrap();
        let mut measured = BamxLayout::empty();
        measured.observe_lengths(&expected).unwrap();
        prop_assert_eq!(measured, observed);
        // The tag block really was re-sized, not copied: what the BAMX
        // encoder will write is what was measured.
        prop_assert_eq!(bam::encode_tags(&decoded.tags).unwrap().len(), expected.tags);
    }

    /// Truncation and byte damage: measuring never panics, accepts
    /// everything the decoder accepts (with the decoder's lengths), and a
    /// body cut before its tag block is always an error.
    #[test]
    fn damaged_bodies_measure_to_an_error_or_the_decoders_answer(
        record in arb_bare_record(),
        tags in proptest::collection::vec(arb_tag(), 0..4),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
    ) {
        let tagless_len = body_with_raw_tags(&record, &[]).len();
        let mut body = body_with_raw_tags(&record, &tags);
        for (at, mask) in flips {
            let at = at % body.len();
            body[at] ^= mask;
        }
        for damaged in [&body[..], &body[..cut % (body.len() + 1)]] {
            let measured = bam::measure_record(damaged);
            if let Ok(decoded) = bam::decode_record(damaged, &header()) {
                prop_assert_eq!(measured.unwrap(), FieldLengths::of(&decoded).unwrap());
            }
        }
        // Undamaged but cut short of the tag block: always an error.
        let whole = body_with_raw_tags(&record, &tags);
        let short = &whole[..cut % tagless_len];
        prop_assert!(bam::measure_record(short).is_err(), "cut at {} of {}", short.len(), tagless_len);
    }

    /// The same for SAM text: a damaged line measures to an error or to
    /// what the parser says.
    #[test]
    fn damaged_lines_measure_to_an_error_or_the_parsers_answer(
        record in arb_bare_record(),
        tags in proptest::collection::vec(arb_tag(), 0..4),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
    ) {
        let decoded = bam::decode_record(&body_with_raw_tags(&record, &tags), &header()).unwrap();
        let mut line = Vec::new();
        sam::write_record(&decoded, &mut line);
        for (at, byte) in flips {
            let at = at % line.len();
            line[at] = byte;
        }
        for damaged in [&line[..], &line[..cut % (line.len() + 1)]] {
            let measured = sam::measure_record(damaged, 1);
            if let Ok(parsed) = sam::parse_record(damaged, 1) {
                prop_assert_eq!(measured.unwrap(), FieldLengths::of(&parsed).unwrap());
            }
        }
    }
}

/// What moved from pass 1 to pass 2: a body that is sound in shape but
/// bad in content measures fine and fails to decode.
#[test]
fn semantic_damage_passes_the_measure_and_fails_the_decode() {
    let line = b"r\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\tNM:i:1";
    let record = sam::parse_record(line, 1).unwrap();
    let mut body = body_with_raw_tags(&record, &[]);
    // The one CIGAR op sits after the 32 fixed bytes and the name "r\0":
    // op code 15 does not exist.
    body[34] |= 0x0F;
    assert!(bam::measure_record(&body).is_ok());
    assert!(bam::decode_record(&body, &header()).is_err());

    let bad_cigar = b"r\t0\tchr1\t100\t60\t4Q\t*\t0\t0\tACGT\tIIII";
    assert_eq!(sam::measure_record(bad_cigar, 1).unwrap().cigar_ops, 1);
    assert!(sam::parse_record(bad_cigar, 1).is_err());
    let bad_pos = b"r\t0\tchr1\tabc\t60\t4M\t*\t0\t0\tACGT\tIIII";
    assert!(sam::measure_record(bad_pos, 1).is_ok());
    assert!(sam::parse_record(bad_pos, 1).is_err());
}
