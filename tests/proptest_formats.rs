//! Property-based tests over the whole format stack: arbitrary records
//! must survive SAM text, BAM binary, and BAMX fixed-width round trips,
//! and Algorithm 1 must tile arbitrary line files for any rank count.
//! The text front-end's tokenizer rides along: the word-at-a-time byte
//! search equals a byte-by-byte one, and one record reused across lines
//! equals a fresh parse of each.

use proptest::prelude::*;

use ngs_bamx::{BamxLayout, Region};
use ngs_converter::{partition_serial, MemSource, Variant};
use ngs_formats::cigar::{Cigar, CigarOp};
use ngs_formats::flags::Flags;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;
use ngs_formats::search::find_byte;
use ngs_formats::tags::{Tag, TagValue};

fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 1 << 28 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 1 << 27 },
    ])
}

prop_compose! {
    fn arb_qname()(s in "[!-?A-~]{1,40}") -> Vec<u8> {
        // "*" alone is the reserved missing-name sentinel.
        if s == "*" { b"star".to_vec() } else { s.into_bytes() }
    }
}

prop_compose! {
    fn arb_seq_qual()(len in 1usize..150, seed in any::<u64>()) -> (Vec<u8>, Vec<u8>) {
        let bases = b"ACGTN";
        let mut s = Vec::with_capacity(len);
        let mut q = Vec::with_capacity(len);
        let mut x = seed | 1;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push(bases[(x >> 33) as usize % bases.len()]);
            q.push(((x >> 40) % 42) as u8);
        }
        (s, q)
    }
}

fn arb_tag() -> impl Strategy<Value = Tag> {
    prop_oneof![
        (any::<i32>()).prop_map(|v| Tag::new(*b"XI", TagValue::Int(v as i64))),
        ("[ -~&&[^\\\\]]{0,20}").prop_map(|s| Tag::new(*b"XZ", TagValue::String(s.into_bytes()))),
        (any::<u8>()).prop_map(|c| Tag::new(*b"XA", TagValue::Char(c.clamp(b'!', b'~')))),
        proptest::collection::vec(any::<i16>(), 0..8)
            .prop_map(|v| Tag::new(*b"XB", TagValue::Array(ngs_formats::TagArray::I16(v)))),
    ]
}

prop_compose! {
    fn arb_record()(
        qname in arb_qname(),
        mapped in any::<bool>(),
        chrom in 0usize..2,
        pos in 1i64..100_000_000,
        mapq in 0u8..=254,
        flag_bits in 0u16..0x800,
        (seq, qual) in arb_seq_qual(),
        tags in proptest::collection::vec(arb_tag(), 0..4),
    ) -> AlignmentRecord {
        let mut flag = Flags(flag_bits & !0x4); // clear unmapped; set below
        let names: [&[u8]; 2] = [b"chr1", b"chr2"];
        if mapped {
            AlignmentRecord {
                qname,
                flag,
                rname: names[chrom].to_vec(),
                pos,
                mapq,
                cigar: Cigar(vec![(seq.len() as u32, CigarOp::Match)]),
                rnext: b"*".to_vec(),
                pnext: 0,
                tlen: 0,
                seq,
                qual,
                tags,
            }
        } else {
            flag |= Flags::UNMAPPED;
            AlignmentRecord {
                qname,
                flag,
                rname: b"*".to_vec(),
                pos: 0,
                mapq: 0,
                cigar: Cigar::empty(),
                rnext: b"*".to_vec(),
                pnext: 0,
                tlen: 0,
                seq,
                qual,
                tags,
            }
        }
    }
}

/// Lines that leave something behind in a reused record if any field is
/// not overwritten: `*` QUAL, `*` CIGAR and no tags after lines that had
/// them, a long CIGAR, every tag slot retyped, a signed TLEN, and lines
/// that fail in a column, a tag, or after valid tags.
const EDGE_LINES: [&[u8]; 9] = [
    b"e1\t0\tchr1\t5\t60\t4M\t*\t0\t0\tACGT\t*",
    b"e2\t0\tchr1\t5\t60\t4M\t*\t0\t0\tACGT\tIIII\tXI:Z:str\tXZ:i:5\tXA:H:0F\tXB:f:1.5\tXQ:B:C,1,2",
    b"*\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*",
    b"e4\t0\tchr1\t5\t60\t1S2M3I4D5N6M7P8=9X1H\t=\t9\t+8\tACGTACGTACGTACGTACGTACGTACGTAC\t*",
    b"bad\tline",
    b"e5\t0\tchr1\t-5\t60\t4M\t*\t0\t0\tACGT\tIIII",
    b"e6\t0\tchr1\t5\t60\t4M\t*\t0\t0\tACGT\tIIII\tXZ:Z:ok\tXX:q:1",
    b"e7\t0\tchr1\t5\t60\t4M\t*\t0\t0\tACGT\tII",
    b"",
];

fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    let text = |r: &AlignmentRecord| {
        let mut line = Vec::new();
        sam::write_record(r, &mut line);
        line
    };
    prop_oneof![
        arb_record().prop_map(move |r| text(&r)),
        (arb_record(), proptest::collection::vec((any::<usize>(), any::<u8>()), 1..3)).prop_map(
            move |(r, flips)| {
                let mut line = text(&r);
                for (at, byte) in flips {
                    let at = at % line.len();
                    line[at] = byte;
                }
                line
            }
        ),
        (0..EDGE_LINES.len()).prop_map(|i| EDGE_LINES[i].to_vec()),
    ]
}

/// Every length 0..=64, the needle at every offset and absent, over
/// fillers that straddle it (needle ± 1) and bytes ≥ 0x80, with a second
/// needle after the first.
#[test]
fn find_byte_is_position_at_every_length_and_offset() {
    for needle in [0u8, 1, b'\t', b'\n', 0x7F, 0x80, 0xFF] {
        let fillers = [needle.wrapping_sub(1), needle.wrapping_add(1), 0x80, 0xFF, 0xC3];
        for len in 0..=64usize {
            let hay: Vec<u8> = (0..len).map(|i| fillers[i % fillers.len()]).collect();
            let hay: Vec<u8> = hay.into_iter().map(|b| if b == needle { b ^ 0x40 } else { b }).collect();
            assert_eq!(find_byte(&hay, needle), None, "needle {needle:#x} len {len}");
            for at in 0..len {
                let mut with = hay.clone();
                with[at] = needle;
                with[(at + 5).min(len - 1)] = needle;
                let expected = with.iter().position(|&b| b == needle);
                assert_eq!(expected, Some(at));
                assert_eq!(find_byte(&with, needle), expected, "needle {needle:#x} len {len} at {at}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn find_byte_is_position_on_arbitrary_bytes(
        hay in proptest::collection::vec(any::<u8>(), 0..200),
        needle in any::<u8>(),
        near in proptest::collection::vec((any::<usize>(), 0u8..3), 0..6),
    ) {
        // Plant the needle and its neighbours, so matches and near misses
        // both occur at arbitrary offsets.
        let mut hay = hay;
        for (at, delta) in near {
            if !hay.is_empty() {
                let at = at % hay.len();
                hay[at] = needle.wrapping_add(delta).wrapping_sub(1);
            }
        }
        prop_assert_eq!(find_byte(&hay, needle), hay.iter().position(|&b| b == needle));
    }

    /// One record parses a run of arbitrary lines — whole, damaged, or
    /// shaped to leave stale fields behind — and after each equals a
    /// fresh `parse_record` of that line, or fails with its error.
    #[test]
    fn a_reused_record_parses_every_line_as_a_fresh_one(
        lines in proptest::collection::vec(arb_line(), 1..16),
    ) {
        let mut reused = AlignmentRecord::default();
        for (line, line_no) in lines.iter().zip(1..) {
            match (sam::parse_record(line, line_no), sam::parse_record_into(line, line_no, &mut reused)) {
                (Ok(fresh), Ok(())) => prop_assert_eq!(&reused, &fresh, "{}", String::from_utf8_lossy(line)),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "{:?} vs {:?} on {}", a, b, String::from_utf8_lossy(line)),
            }
        }
    }

    #[test]
    fn sam_text_roundtrip(rec in arb_record()) {
        let mut line = Vec::new();
        ngs_formats::sam::write_record(&rec, &mut line);
        let parsed = ngs_formats::sam::parse_record(&line, 1).unwrap();
        prop_assert_eq!(parsed, rec);
    }

    #[test]
    fn bam_binary_roundtrip(rec in arb_record()) {
        let h = header();
        let mut buf = Vec::new();
        ngs_formats::bam::encode_record(&rec, &h, &mut buf).unwrap();
        let decoded = ngs_formats::bam::decode_record(&buf[4..], &h).unwrap();
        prop_assert_eq!(decoded, rec);
    }

    #[test]
    fn bamx_fixed_width_roundtrip(recs in proptest::collection::vec(arb_record(), 1..20)) {
        let h = header();
        let layout = BamxLayout::compute(&recs).unwrap();
        let mut buf = Vec::new();
        for r in &recs {
            ngs_bamx::record_codec::encode(r, &h, &layout, &mut buf).unwrap();
        }
        prop_assert_eq!(buf.len(), layout.record_size() * recs.len());
        for (i, r) in recs.iter().enumerate() {
            let slice = &buf[i * layout.record_size()..(i + 1) * layout.record_size()];
            let decoded = ngs_bamx::record_codec::decode(slice, &h, &layout).unwrap();
            prop_assert_eq!(&decoded, r);
        }
    }

    #[test]
    fn bamx_v1_v2_roundtrips_agree(
        recs in proptest::collection::vec(arb_record(), 1..40),
        rpb in 1u32..16,
    ) {
        use ngs_bamx::{write_bamx_file_versioned, BamxCompression, BamxFile, BamxVersion};
        let h = header();
        let dir = tempfile::tempdir().unwrap();
        let p1 = dir.path().join("a.bamx");
        let p2 = dir.path().join("b.bamx");
        write_bamx_file_versioned(&p1, &h, &recs, BamxCompression::Plain, BamxVersion::V1)
            .unwrap();
        // Small block sizes force multi-block shards and ragged tails.
        let layout = BamxLayout::compute(&recs).unwrap();
        let sink = std::io::BufWriter::new(std::fs::File::create(&p2).unwrap());
        let mut w = ngs_bamx::V2Writer::with_block_size(sink, h, layout, rpb).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();

        let f1 = BamxFile::open(&p1).unwrap();
        let f2 = BamxFile::open(&p2).unwrap();
        prop_assert_eq!(f1.version(), BamxVersion::V1);
        prop_assert_eq!(f2.version(), BamxVersion::V2);
        prop_assert_eq!(f1.len(), f2.len());
        // Both versions decode back to the source records, so any v1
        // shard re-encodes to v2 (and back) without loss.
        let d1 = f1.read_range(0, f1.len()).unwrap();
        let d2 = f2.read_range(0, f2.len()).unwrap();
        prop_assert_eq!(&d1, &recs);
        prop_assert_eq!(&d2, &recs);
        // The position projection agrees with the full decode.
        prop_assert_eq!(f1.positions().unwrap(), f2.positions().unwrap());
    }

    #[test]
    fn partition_tiles_arbitrary_line_files(
        lines in proptest::collection::vec("[a-z]{0,60}", 0..200),
        n in 1usize..24,
        forward in any::<bool>(),
    ) {
        let mut data = Vec::new();
        for l in &lines {
            data.extend_from_slice(l.as_bytes());
            data.push(b'\n');
        }
        let src = MemSource::new(data.clone());
        let variant = if forward { Variant::Forward } else { Variant::Backward };
        let ranges = partition_serial(&src, n, variant).unwrap();
        prop_assert_eq!(ranges.len(), n);
        // Tiling: concatenation reproduces the input.
        let mut rebuilt = Vec::new();
        for &(s, e) in &ranges {
            prop_assert!(s <= e);
            rebuilt.extend_from_slice(&data[s as usize..e as usize]);
        }
        prop_assert_eq!(rebuilt, data.clone());
        // Alignment: every interior boundary sits right after a newline.
        for w in ranges.windows(2) {
            let b = w[0].1;
            prop_assert_eq!(w[1].0, b);
            if b > 0 && b < data.len() as u64 {
                prop_assert_eq!(data[b as usize - 1], b'\n');
            }
        }
    }

    #[test]
    fn region_parse_display_roundtrip(start in 0i64..1_000_000, len in 1i64..1_000_000) {
        let h = header();
        let end = (start + len).min((1 << 28) as i64);
        prop_assume!(end > start);
        let r = Region::new("chr1", start, end).unwrap();
        let reparsed = Region::parse(&r.to_string(), &h).unwrap();
        prop_assert_eq!(reparsed, r);
    }
}
