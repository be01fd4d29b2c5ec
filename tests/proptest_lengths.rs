//! The layout pass measures instead of decoding (DESIGN.md §16): for any
//! record, the four field lengths read off the raw BAM body, the ones
//! read off the SAM line, and the ones `BamxLayout::observe` takes from
//! the decoded record must agree — including when a foreign BAM writer
//! stored integer tags wider than they need to be. Damaged bodies and
//! lines must give a typed error or the decoder's answer, never a panic.

use proptest::prelude::*;

use ngs_bamx::BamxLayout;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::FieldLengths;
use ngs_formats::{bam, sam};

mod common;
use common::{arb_bare_record, arb_tag, body_with_raw_tags};

fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 1 << 28 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 1 << 27 },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lengths_from_bam_body_sam_line_and_decoded_record_agree(
        record in arb_bare_record(),
        tags in proptest::collection::vec(arb_tag(), 0..6),
    ) {
        let body = body_with_raw_tags(&record, &tags, &header());
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
        let tagless_len = body_with_raw_tags(&record, &[], &header()).len();
        let mut body = body_with_raw_tags(&record, &tags, &header());
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
        let whole = body_with_raw_tags(&record, &tags, &header());
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
        let decoded = bam::decode_record(&body_with_raw_tags(&record, &tags, &header()), &header()).unwrap();
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
    let mut body = body_with_raw_tags(&record, &[], &header());
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
