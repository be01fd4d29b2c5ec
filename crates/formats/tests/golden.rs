//! Golden vectors for `ngs-formats`, every byte written out by hand from
//! the SAM specification (v1.6): one BAM record laid out field by field
//! (§4.2), the binning examples of §5.3, and one SAM line per column edge
//! — `*` SEQ and QUAL, `=` RNEXT, a signed TLEN, and every tag type with
//! its BAM encoding. None of the expected bytes comes from an encoder.

use ngs_formats::bam;
use ngs_formats::binning::reg2bin;
use ngs_formats::cigar::CigarOp;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::{AlignmentRecord, FieldLengths};
use ngs_formats::sam;
use ngs_formats::tags::{Tag, TagArray, TagValue};

/// Two references: chr1 (1000 bp) and chr2 (2000 bp).
fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 1000 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 2000 },
    ])
}

/// A paired read on chr2 with its mate 100 bp downstream, soft-clipped,
/// a negative TLEN, and one `Z` and one `i` tag.
const LINE: &str = "q7\t163\tchr2\t1001\t30\t2S3M\t=\t1101\t-105\tGATTA\t+,-./\tMD:Z:3\tXN:i:-2";

/// `LINE` as a BAM record (§4.2), `block_size` first.
fn bam_record() -> Vec<u8> {
    let mut r = Vec::new();
    r.extend_from_slice(&[60, 0, 0, 0]); // block_size: 32 fixed + 3 + 8 + 3 + 5 + 9
    r.extend_from_slice(&[1, 0, 0, 0]); // refID: chr2
    r.extend_from_slice(&[0xE8, 0x03, 0, 0]); // pos: 1001 − 1 = 1000
    r.push(3); // l_read_name: "q7" + NUL
    r.push(30); // mapq
    r.extend_from_slice(&[0x49, 0x12]); // bin: reg2bin(1000, 1003) = 4681 + 0
    r.extend_from_slice(&[2, 0]); // n_cigar_op
    r.extend_from_slice(&[0xA3, 0]); // flag 163
    r.extend_from_slice(&[5, 0, 0, 0]); // l_seq
    r.extend_from_slice(&[1, 0, 0, 0]); // next_refID: "=" is chr2
    r.extend_from_slice(&[0x4C, 0x04, 0, 0]); // next_pos: 1101 − 1 = 1100
    r.extend_from_slice(&[0x97, 0xFF, 0xFF, 0xFF]); // tlen −105
    r.extend_from_slice(b"q7\0"); // read_name
    r.extend_from_slice(&[0x24, 0, 0, 0]); // 2S: 2 << 4 | 4
    r.extend_from_slice(&[0x30, 0, 0, 0]); // 3M: 3 << 4 | 0
    r.extend_from_slice(&[0x41, 0x88, 0x10]); // G A | T T | A, pad: =ACMGRSVTWYHKDBN codes
    r.extend_from_slice(&[10, 11, 12, 13, 14]); // qual: "+,-./" − 33
    r.extend_from_slice(b"MDZ3\0"); // MD:Z:3
    r.extend_from_slice(&[b'X', b'N', b'c', 0xFE]); // XN:i:−2, narrowest type int8
    assert_eq!(r.len(), 64);
    r
}

#[test]
fn bam_record_decodes_to_the_fields_and_line_worked_out_by_hand() {
    let bytes = bam_record();
    let rec = bam::decode_record(&bytes[4..], &header()).unwrap();
    assert_eq!(rec.qname, b"q7");
    assert_eq!(rec.flag.0, 163);
    assert_eq!((&rec.rname[..], rec.pos, rec.mapq), (&b"chr2"[..], 1001, 30));
    assert_eq!(rec.cigar.0, [(2, CigarOp::SoftClip), (3, CigarOp::Match)]);
    assert_eq!((&rec.rnext[..], rec.pnext, rec.tlen), (&b"="[..], 1101, -105));
    assert_eq!(rec.seq, b"GATTA");
    assert_eq!(rec.qual, [10, 11, 12, 13, 14]);
    assert_eq!(
        rec.tags,
        [
            Tag::new(*b"MD", TagValue::String(b"3".to_vec())),
            Tag::new(*b"XN", TagValue::Int(-2)),
        ]
    );
    let mut line = Vec::new();
    sam::write_record(&rec, &mut line);
    assert_eq!(line, LINE.as_bytes());
}

#[test]
fn sam_line_encodes_to_the_bam_record_worked_out_by_hand() {
    let rec = sam::parse_record(LINE.as_bytes(), 1).unwrap();
    let mut out = Vec::new();
    bam::encode_record(&rec, &header(), &mut out).unwrap();
    assert_eq!(out, bam_record());
    assert_eq!(
        sam::measure_record(LINE.as_bytes(), 1).unwrap(),
        FieldLengths { qname: 2, cigar_ops: 2, seq: 5, tags: 9 }
    );
}

/// The unmapped, everything-missing record: refID and pos −1, bin
/// reg2bin(−1, 0) = 4680, no CIGAR, no bases.
#[test]
fn unmapped_record_with_star_seq_and_qual() {
    let line = b"u1\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*";
    let mut expected = vec![35, 0, 0, 0]; // block_size: 32 fixed + 3
    expected.extend_from_slice(&[0xFF; 4]); // refID −1
    expected.extend_from_slice(&[0xFF; 4]); // pos −1
    expected.extend_from_slice(&[3, 0]); // l_read_name, mapq
    expected.extend_from_slice(&[0x48, 0x12]); // bin 4680
    expected.extend_from_slice(&[0, 0]); // n_cigar_op
    expected.extend_from_slice(&[4, 0]); // flag: unmapped
    expected.extend_from_slice(&[0; 4]); // l_seq
    expected.extend_from_slice(&[0xFF; 8]); // next_refID, next_pos −1
    expected.extend_from_slice(&[0; 4]); // tlen
    expected.extend_from_slice(b"u1\0");

    let rec = sam::parse_record(line, 1).unwrap();
    assert!(rec.seq.is_empty() && rec.qual.is_empty() && rec.cigar.0.is_empty());
    let mut out = Vec::new();
    bam::encode_record(&rec, &header(), &mut out).unwrap();
    assert_eq!(out, expected);
    assert_eq!(bam::decode_record(&expected[4..], &header()).unwrap(), rec);
    let mut back = Vec::new();
    sam::write_record(&rec, &mut back);
    assert_eq!(back, line);
}

/// Bases without qualities: QUAL is stored as 0xFF per base (§4.2).
#[test]
fn star_qual_is_stored_as_0xff_per_base() {
    let rec = sam::parse_record(b"r\t0\tchr1\t5\t0\t3M\t*\t0\t0\tACG\t*", 1).unwrap();
    assert!(rec.qual.is_empty());
    let mut out = Vec::new();
    bam::encode_record(&rec, &header(), &mut out).unwrap();
    // Fixed 32 + "r\0" + one CIGAR word + two packed bytes, then QUAL.
    let qual_at = 4 + 32 + 2 + 4 + 2;
    assert_eq!(&out[qual_at - 2..qual_at], [0x12, 0x40]); // A C | G pad
    assert_eq!(&out[qual_at..], [0xFF; 3]);
}

/// TLEN is the one signed integer column (`[-+]?[0-9]+`); a `+` sign
/// is accepted and not written back.
#[test]
fn tlen_takes_either_sign() {
    for (text, value, written) in [("+8", 8, "8"), ("-8", -8, "-8"), ("8", 8, "8"), ("0", 0, "0")] {
        let line = |tlen: &str| format!("r\t0\tchr1\t5\t0\t3M\t=\t9\t{tlen}\tACG\t*");
        let rec = sam::parse_record(line(text).as_bytes(), 1).unwrap();
        assert_eq!(rec.tlen, value, "{text}");
        let mut back = Vec::new();
        sam::write_record(&rec, &mut back);
        assert_eq!(back, line(written).as_bytes());
    }
}

/// Every tag type, each array subtype at its extreme, and the integer
/// ladder: the parsed values and the BAM tag block, byte by byte.
#[test]
fn every_tag_type_parses_and_encodes_as_worked_out_by_hand() {
    let tags = "XA:A:!\tXI:i:-129\tXJ:i:200\tXK:i:40000\tXF:f:0.5\tXZ:Z:a b\tXH:H:0AFF\t\
                XB:B:c,-128,127\tXC:B:C,255\tXs:B:s,-32768\tXS:B:S,65535\t\
                Xi:B:i,-2147483648\tXU:B:I,4294967295\tXf:B:f,-1.5";
    let line = format!("t\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\t{tags}");
    let rec: AlignmentRecord = sam::parse_record(line.as_bytes(), 1).unwrap();
    let values: Vec<TagValue> = rec.tags.iter().map(|t| t.value.clone()).collect();
    assert_eq!(
        values,
        [
            TagValue::Char(b'!'),
            TagValue::Int(-129),
            TagValue::Int(200),
            TagValue::Int(40000),
            TagValue::Float(0.5),
            TagValue::String(b"a b".to_vec()),
            TagValue::Hex(b"0AFF".to_vec()),
            TagValue::Array(TagArray::I8(vec![-128, 127])),
            TagValue::Array(TagArray::U8(vec![255])),
            TagValue::Array(TagArray::I16(vec![-32768])),
            TagValue::Array(TagArray::U16(vec![65535])),
            TagValue::Array(TagArray::I32(vec![i32::MIN])),
            TagValue::Array(TagArray::U32(vec![u32::MAX])),
            TagValue::Array(TagArray::F32(vec![-1.5])),
        ]
    );

    let block: Vec<u8> = [
        &b"XAA!"[..],
        &[b'X', b'I', b's', 0x7F, 0xFF], // −129 needs int16
        &[b'X', b'J', b'C', 200],         // 200 fits uint8
        &[b'X', b'K', b'S', 0x40, 0x9C],  // 40000 fits uint16
        &[b'X', b'F', b'f', 0, 0, 0, 0x3F], // 0.5 = 0x3F000000
        b"XZZa b\0",
        b"XHH0AFF\0",
        &[b'X', b'B', b'B', b'c', 2, 0, 0, 0, 0x80, 0x7F],
        &[b'X', b'C', b'B', b'C', 1, 0, 0, 0, 0xFF],
        &[b'X', b's', b'B', b's', 1, 0, 0, 0, 0x00, 0x80],
        &[b'X', b'S', b'B', b'S', 1, 0, 0, 0, 0xFF, 0xFF],
        &[b'X', b'i', b'B', b'i', 1, 0, 0, 0, 0, 0, 0, 0x80],
        &[b'X', b'U', b'B', b'I', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
        &[b'X', b'f', b'B', b'f', 1, 0, 0, 0, 0, 0, 0xC0, 0xBF], // −1.5 = 0xBFC00000
    ]
    .concat();
    assert_eq!(bam::encode_tags(&rec.tags).unwrap(), block);
    assert_eq!(bam::encoded_tags_len(&rec.tags).unwrap(), block.len());
    assert_eq!(sam::measure_record(line.as_bytes(), 1).unwrap().tags, block.len());
    assert_eq!(bam::decode_tags(&block).unwrap(), rec.tags);

    let mut back = Vec::new();
    sam::write_record(&rec, &mut back);
    assert_eq!(back, line.as_bytes());
}

/// The binning examples (§5.3): a 16 kb leaf while the interval stays in
/// one, then 128 kb, 1 Mb, 8 Mb and 64 Mb bins, the root, and 4680 for
/// an unplaced read.
#[test]
fn reg2bin_follows_the_spec_levels() {
    let cases: [(i64, i64, u16); 11] = [
        (0, 1, 4681),
        (16383, 16384, 4681),
        (16384, 16385, 4682),
        (1000, 1003, 4681),
        (16383, 16385, 585),
        (0, 1 << 17, 585),
        (0, (1 << 17) + 1, 73),
        (0, (1 << 20) + 1, 9),
        (0, (1 << 23) + 1, 1),
        (0, (1 << 26) + 1, 0),
        (-1, 0, 4680),
    ];
    for (beg, end, bin) in cases {
        assert_eq!(reg2bin(beg, end), bin, "reg2bin({beg}, {end})");
    }
}
