//! Input strategies shared by the preprocessing proptests: BAM records
//! and tag blocks as any BAM writer may store them — every tag type,
//! integers in non-canonical widths, and the edge shapes of names,
//! CIGARs, sequences and qualities.

#![allow(dead_code)]

use proptest::prelude::*;

use ngs_formats::bam;
use ngs_formats::cigar::{Cigar, CigarOp};
use ngs_formats::flags::Flags;
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;

/// One tag as a BAM writer may store it: raw bytes, chosen type and all.
#[derive(Debug, Clone)]
pub struct RawTag(pub Vec<u8>);

pub fn raw_tag(key: [u8; 2], type_char: u8, value: &[u8]) -> RawTag {
    let mut bytes = vec![key[0], key[1], type_char];
    bytes.extend_from_slice(value);
    RawTag(bytes)
}

/// An integer tag stored in *any* of the six BAM integer types that can
/// hold it — `5` as an `i`, `300` as an `I` — not only the narrowest.
pub fn arb_int_tag() -> impl Strategy<Value = RawTag> {
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

pub fn arb_array_tag() -> impl Strategy<Value = RawTag> {
    (0usize..7, proptest::collection::vec(any::<i32>(), 0..9)).prop_map(|(ty, values)| {
        let (subtype, width) = [
            (b'c', 1),
            (b'C', 1),
            (b's', 2),
            (b'S', 2),
            (b'i', 4),
            (b'I', 4),
            (b'f', 4),
        ][ty];
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
pub fn arb_tag() -> impl Strategy<Value = RawTag> {
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
        "[0-9A-F]{0,6}"
            .prop_map(|s| format!("{s}{s}"))
            .prop_map(cstr(*b"XH", b'H')),
    ]
}

prop_compose! {
    /// Records covering the edge shapes: missing name, no CIGAR, no
    /// sequence, sequence without qualities.
    pub fn arb_bare_record()(
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
pub fn body_with_raw_tags(
    record: &AlignmentRecord,
    tags: &[RawTag],
    header: &SamHeader,
) -> Vec<u8> {
    let mut buf = Vec::new();
    bam::encode_record(record, header, &mut buf).unwrap();
    let mut body = buf[4..].to_vec();
    for tag in tags {
        body.extend_from_slice(&tag.0);
    }
    body
}
