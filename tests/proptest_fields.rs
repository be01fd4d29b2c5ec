//! Preprocessing builds no records (DESIGN.md §16): a BAM body is
//! transcoded straight to BAMX fields (`bam::view::transcode`) and a SAM
//! line parsed straight into them (`sam::parse_fields`). Either must give
//! exactly what the owned path gives — `bam::decode_record` or
//! `sam::parse_record`, then the writer's `write_record` — byte for byte
//! in v1 and v2 shards, and the same error on the same record when the
//! input is damaged.

use proptest::prelude::*;

use ngs_bamx::{AnyBamxWriter, BamxCompression, BamxLayout, BamxVersion};
use ngs_formats::bam::{self, view};
use ngs_formats::error::{Error, Result};
use ngs_formats::fields::{FieldsScratch, RefIds};
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;

mod common;
use common::{arb_bare_record, arb_tag, body_with_raw_tags, RawTag};

/// A dictionary that repeats a name (a refID of 2 round-trips to 0) and
/// holds the two names that mean something else as references: `*`
/// (none) and `=` (as a mate: the record's own reference).
fn header() -> SamHeader {
    let names: [&[u8]; 6] = [b"chr1", b"chr2", b"chr1", b"chr3", b"*", b"="];
    SamHeader::from_references(
        names
            .iter()
            .map(|n| ReferenceSequence {
                name: n.to_vec(),
                length: 1 << 28,
            })
            .collect(),
    )
}

/// The layout every test shard is written under: wide enough for any
/// generated record, so only content decides what is accepted.
fn roomy() -> BamxLayout {
    BamxLayout {
        max_qname: 300,
        max_cigar_ops: 16,
        max_seq: 200,
        max_tags: 4096,
    }
}

/// How a stored body departs from what `encode_record` writes.
#[derive(Debug, Clone)]
struct Stored {
    /// refID and mate refID as stored: in range, repeated, out of range.
    ref_id: i32,
    next_ref_id: i32,
    /// 0: the name as is; 1: empty (just the NUL); 2: `*`.
    name: u8,
    /// The low nibble of the last packed byte of an odd-length SEQ.
    pad: u8,
    /// 0: qualities as is; 1: all 0xFF; 2: some 0xFF.
    qual: u8,
}

fn arb_stored() -> impl Strategy<Value = Stored> {
    let id = || prop_oneof![Just(-1i32), 0i32..6, Just(6i32), Just(9i32), Just(-5i32)];
    (id(), id(), 0u8..3, 0u8..16, 0u8..3).prop_map(|(ref_id, next_ref_id, name, pad, qual)| {
        Stored {
            ref_id,
            next_ref_id,
            name,
            pad,
            qual,
        }
    })
}

/// The body of `record` + `tags`, then reshaped as `stored` says.
fn stored_body(record: &AlignmentRecord, tags: &[RawTag], stored: &Stored) -> Vec<u8> {
    let mut body = body_with_raw_tags(record, tags, &header());
    body[0..4].copy_from_slice(&stored.ref_id.to_le_bytes());
    body[20..24].copy_from_slice(&stored.next_ref_id.to_le_bytes());
    let l_read_name = body[8] as usize;
    let name: &[u8] = match stored.name {
        1 => b"",
        2 => b"*",
        _ => &record.qname,
    };
    if stored.name != 0 || !record.qname.is_empty() {
        let mut renamed = body[..32].to_vec();
        renamed.extend_from_slice(name);
        renamed.push(0);
        renamed.extend_from_slice(&body[32 + l_read_name..]);
        renamed[8] = (name.len() + 1) as u8;
        body = renamed;
    }
    let l_seq = record.seq.len();
    let seq_at = 32 + body[8] as usize + 4 * record.cigar.len();
    let qual_at = seq_at + l_seq.div_ceil(2);
    if l_seq % 2 == 1 {
        body[qual_at - 1] |= stored.pad;
    }
    match stored.qual {
        1 => body[qual_at..qual_at + l_seq].fill(0xFF),
        2 => body[qual_at..qual_at + l_seq]
            .iter_mut()
            .step_by(3)
            .for_each(|q| *q = 0xFF),
        _ => {}
    }
    body
}

/// A shard of `version`, and where writing it failed — `(index, error)`
/// of the first record refused — from `write` applied to each input.
fn shard<T>(
    version: BamxVersion,
    inputs: &[T],
    mut write: impl FnMut(&mut AnyBamxWriter<Vec<u8>>, &T) -> Result<()>,
) -> std::result::Result<Vec<u8>, (usize, String)> {
    let mut writer = AnyBamxWriter::new(
        version,
        Vec::new(),
        header(),
        roomy(),
        BamxCompression::Plain,
    )
    .unwrap();
    for (i, input) in inputs.iter().enumerate() {
        write(&mut writer, input).map_err(|e| (i, e.to_string()))?;
    }
    Ok(writer.finish().unwrap())
}

fn decoded_shard(
    version: BamxVersion,
    bodies: &[Vec<u8>],
) -> std::result::Result<Vec<u8>, (usize, String)> {
    shard(version, bodies, |w, body| {
        w.write_record(&bam::decode_record(body, &header())?)
    })
}

fn transcoded_shard(
    version: BamxVersion,
    bodies: &[Vec<u8>],
) -> std::result::Result<Vec<u8>, (usize, String)> {
    let refs = RefIds::new(&header());
    let mut scratch = FieldsScratch::default();
    shard(version, bodies, |w, body| {
        w.write_fields(&view::transcode(body, &refs, &mut scratch)?)
    })
}

const VERSIONS: [BamxVersion; 2] = [BamxVersion::V1, BamxVersion::V2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every tag type, integers stored wider than they need (5 as `i`,
    /// 300 as `I`), odd sequences with a non-zero pad nibble, all- and
    /// partly-0xFF qualities, empty and `*` names, refIDs out of range
    /// and repeated names: transcoded ≡ decoded, in both layouts.
    #[test]
    fn transcoded_bodies_write_the_shard_decoded_records_write(
        records in proptest::collection::vec(
            (arb_bare_record(), proptest::collection::vec(arb_tag(), 0..5), arb_stored()),
            1..6,
        ),
    ) {
        let bodies: Vec<Vec<u8>> =
            records.iter().map(|(record, tags, stored)| stored_body(record, tags, stored)).collect();
        for version in VERSIONS {
            prop_assert_eq!(transcoded_shard(version, &bodies), decoded_shard(version, &bodies), "{:?}", version);
        }
    }

    /// Cut and bit-flipped bodies: the same record fails with the same
    /// error, or both paths write the same bytes.
    #[test]
    fn damaged_bodies_fail_on_the_same_record_with_the_same_error(
        records in proptest::collection::vec(
            (arb_bare_record(), proptest::collection::vec(arb_tag(), 0..4), arb_stored()),
            1..4,
        ),
        victim in any::<usize>(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
    ) {
        let mut bodies: Vec<Vec<u8>> =
            records.iter().map(|(record, tags, stored)| stored_body(record, tags, stored)).collect();
        let body = &mut bodies[victim % records.len()];
        for (at, mask) in flips {
            let at = at % body.len();
            body[at] ^= mask;
        }
        body.truncate(cut % (body.len() + 1));
        for version in VERSIONS {
            prop_assert_eq!(transcoded_shard(version, &bodies), decoded_shard(version, &bodies), "{:?}", version);
        }
    }

    /// SAM text, whole or damaged: `parse_fields` + `write_fields` ≡
    /// `parse_record` + `write_record`, bytes and errors alike —
    /// including coordinates past i32 and tag integers BAM cannot hold.
    #[test]
    fn sam_lines_parse_into_the_fields_the_records_give(
        record in arb_bare_record(),
        tags in proptest::collection::vec(arb_tag(), 0..4),
        wide in prop_oneof![Just(None), Just(Some("XW:i:99999999999")), Just(Some("XW:i:-3000000000"))],
        far in any::<bool>(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
    ) {
        let mut record = bam::decode_record(&body_with_raw_tags(&record, &tags, &header()), &header()).unwrap();
        if far && record.pos > 0 {
            record.pos += i32::MAX as i64;
        }
        let mut line = Vec::new();
        sam::write_record(&record, &mut line);
        if let Some(tag) = wide {
            line.extend_from_slice(b"\t");
            line.extend_from_slice(tag.as_bytes());
        }
        let mut damaged = line.clone();
        for (at, byte) in flips {
            let at = at % damaged.len();
            damaged[at] = byte;
        }
        damaged.truncate(cut % (damaged.len() + 1));
        for text in [&line, &damaged] {
            let lines = [text.clone()];
            let refs = RefIds::new(&header());
            let mut scratch = FieldsScratch::default();
            for version in VERSIONS {
                let owned = shard(version, &lines, |w, l| w.write_record(&sam::parse_record(l, 1)?));
                let fields = shard(version, &lines, |w, l| w.write_fields(&sam::parse_fields(l, 1, &refs, &mut scratch)?));
                prop_assert_eq!(&fields, &owned, "{:?} {}", version, String::from_utf8_lossy(text));
            }
        }
    }
}

/// The SAM-only errors keep their kind: a bad FLAG is a SAM error naming
/// FLAG, the same from both parsers.
#[test]
fn sam_grammar_errors_are_sam_errors_on_both_paths() {
    let refs = RefIds::new(&header());
    let mut scratch = FieldsScratch::default();
    for line in [
        &b"r\t70000\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII"[..],
        b"r\t0\tchr1\t1\t60\t4Q\t*\t0\t0\tACGT\tIIII",
    ] {
        let owned = sam::parse_record(line, 4).unwrap_err();
        let fields = sam::parse_fields(line, 4, &refs, &mut scratch).unwrap_err();
        assert!(
            matches!(owned, Error::InvalidSam { line: 4, .. }),
            "{owned}"
        );
        assert_eq!(fields.to_string(), owned.to_string());
    }
}
