//! Golden vectors for the BAMX read side: one v1 record and one
//! single-record v2 shard, their bytes written out by hand from the
//! layouts documented in `record_codec.rs` (v1) and DESIGN.md §14 (v2),
//! not produced by an encoder. Each must read back as the fields and the
//! SAM line worked out by hand, and each length field, corrupted once,
//! must give a typed error.

use ngs_bamx::{record_codec, BamxFile, BamxLayout, ColumnSet};
use ngs_formats::error::{DecodeErrorKind, Error};
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::sam;
use ngs_formats::view::{Alignment, FieldsView};

/// The record both vectors hold:
/// `r1 99 chr1 100 60 3M1I = 200 150 ACGT ?@AB NM:i:2 XA:A:x`.
const SAM_LINE: &str = "r1\t99\tchr1\t100\t60\t3M1I\t=\t200\t150\tACGT\t?@AB\tNM:i:2\tXA:A:x";

/// Two references: chr1 (1000 bp) and chr2 (2000 bp).
fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 1000 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 2000 },
    ])
}

/// Slots: 4 name bytes, 2 CIGAR ops, 5 bases, 8 tag bytes.
const LAYOUT: BamxLayout = BamxLayout { max_qname: 4, max_cigar_ops: 2, max_seq: 5, max_tags: 8 };

/// The tag block: `NM` as `c` 2, `XA` as `A` 'x'.
const TAGS: [u8; 8] = [b'N', b'M', b'c', 2, b'X', b'A', b'A', b'x'];

/// The v1 record: 41 fixed bytes, then the five slots.
fn v1_record() -> Vec<u8> {
    let mut r = Vec::new();
    r.extend_from_slice(&[0x63, 0x00]); // flag 99
    r.push(60); // mapq
    r.push(0); // reserved
    r.extend_from_slice(&[0, 0, 0, 0]); // ref_id 0
    r.extend_from_slice(&[99, 0, 0, 0]); // pos0 99
    r.extend_from_slice(&[0, 0, 0, 0]); // next_ref_id 0
    r.extend_from_slice(&[199, 0, 0, 0]); // next_pos0 199
    r.extend_from_slice(&[150, 0, 0, 0, 0, 0, 0, 0]); // tlen 150
    r.extend_from_slice(&[2, 0]); // qname length
    r.extend_from_slice(&[2, 0]); // CIGAR ops
    r.extend_from_slice(&[4, 0, 0, 0]); // SEQ length
    r.extend_from_slice(&[8, 0, 0, 0]); // tag bytes
    r.push(1); // QUAL present
    assert_eq!(r.len(), 41);
    r.extend_from_slice(b"r1\0\0"); // qname slot (4)
    r.extend_from_slice(&[0x30, 0, 0, 0, 0x11, 0, 0, 0]); // 3M, 1I (2 × 4)
    r.extend_from_slice(&[0x12, 0x48, 0]); // A C | G T, pad (⌈5/2⌉)
    r.extend_from_slice(&[30, 31, 32, 33, 0]); // QUAL slot (5)
    r.extend_from_slice(&TAGS); // tag slot (8)
    assert_eq!(r.len(), LAYOUT.record_size());
    r
}

/// A DEFLATE stream holding `raw` in one stored block, behind the v2
/// `raw_len u32` prefix.
fn stored(raw: &[u8]) -> Vec<u8> {
    let len = raw.len() as u16;
    let mut s = (raw.len() as u32).to_le_bytes().to_vec();
    s.push(0x01); // BFINAL, BTYPE 00
    s.extend_from_slice(&len.to_le_bytes());
    s.extend_from_slice(&(!len).to_le_bytes());
    s.extend_from_slice(raw);
    s
}

/// The eight column streams of the one-record block, in on-disk order.
fn v2_columns() -> [Vec<u8>; 8] {
    [
        vec![0x63, 0x00, 60],          // flags: flag u16, mapq
        vec![0x00, 0xC6, 0x01],        // pos: zz(0 − 0), zz(99 − 0) = 198
        vec![0x00, 0x8E, 0x03, 0xAC, 0x02], // mate: zz(0), zz(199) = 398, zz(150) = 300
        stored(&[2, b'r', b'1']),      // qname: len, bytes
        vec![2, 0x30, 0x11],           // cigar: n_ops, words
        stored(&[4, 0x12, 0x48]),      // seq: bases, packed
        stored(&[4, 30, 31, 32, 33]),  // qual: len, bytes
        [&[8u8][..], &TAGS].concat(),  // tags: len, block
    ]
}

/// The BAM header block: magic, text, then the dictionary.
fn prologue(h: &SamHeader) -> Vec<u8> {
    let mut p = b"BAM\x01".to_vec();
    p.extend_from_slice(&(h.text.len() as u32).to_le_bytes());
    p.extend_from_slice(h.text.as_bytes());
    p.extend_from_slice(&(h.references.len() as u32).to_le_bytes());
    for r in &h.references {
        p.extend_from_slice(&(r.name.len() as u32 + 1).to_le_bytes());
        p.extend_from_slice(&r.name);
        p.push(0);
        p.extend_from_slice(&(r.length as u32).to_le_bytes());
    }
    p
}

/// A v2 shard of one block holding the record, columns as given.
fn v2_shard(columns: &[Vec<u8>; 8]) -> Vec<u8> {
    let prologue = prologue(&header());
    let mut f = b"BAMX\x02\x00".to_vec();
    f.extend_from_slice(&(prologue.len() as u32).to_le_bytes());
    f.extend_from_slice(&prologue);
    f.extend_from_slice(&[4, 0, 2, 0, 5, 0, 0, 0, 8, 0, 0, 0]); // layout
    f.extend_from_slice(&64u32.to_le_bytes()); // records per block
    let block_at = f.len() as u64;
    for c in columns {
        f.extend_from_slice(c);
    }
    let footer_at = f.len() as u64;
    let mut footer = block_at.to_le_bytes().to_vec();
    footer.extend_from_slice(&1u32.to_le_bytes()); // records
    footer.extend_from_slice(&99u64.to_le_bytes()); // first key: ref 0 (high word), pos0 99
    for c in columns {
        footer.extend_from_slice(&(c.len() as u32).to_le_bytes());
    }
    f.extend_from_slice(&footer);
    f.extend_from_slice(&ngs_bgzf::crc32::crc32(&footer).to_le_bytes());
    f.extend_from_slice(&1u64.to_le_bytes()); // blocks
    f.extend_from_slice(&footer_at.to_le_bytes());
    f.extend_from_slice(&1u64.to_le_bytes()); // records
    f
}

fn open(bytes: Vec<u8>) -> BamxFile {
    BamxFile::open_with(Box::new(bytes), "golden").unwrap()
}

/// What every view of the record must read as.
fn assert_is_the_record(view: &FieldsView<'_>) {
    let f = view.fields();
    assert_eq!((f.flag(), f.mapq(), f.ref_id(), f.pos0()), (99, 60, 0, 99));
    assert_eq!((f.next_ref_id(), f.next_pos0(), f.tlen()), (0, 199, 150));
    assert_eq!(f.qname(), b"r1");
    assert_eq!(f.cigar_words().collect::<Vec<_>>(), [0x30, 0x11]);
    assert_eq!((f.l_seq(), f.packed_seq()), (4, &[0x12, 0x48][..]));
    assert_eq!(f.qual(), Some(&[30, 31, 32, 33][..]));
    assert_eq!(f.tags(), TAGS);
    let mut line = Vec::new();
    sam::emit(view, &mut line);
    assert_eq!(String::from_utf8(line).unwrap(), SAM_LINE);
    assert_eq!(view.to_record(), sam::parse_record(SAM_LINE.as_bytes(), 1).unwrap());
}

#[test]
fn v1_record_reads_as_the_hand_derived_fields_and_line() {
    let h = header();
    let record = v1_record();
    let fields = record_codec::fields(&record, &h, &LAYOUT).unwrap();
    assert_is_the_record(&FieldsView::new(fields, &h));
    // The encoder writes the same bytes back.
    let mut encoded = Vec::new();
    record_codec::encode_fields(&fields, &LAYOUT, &mut encoded).unwrap();
    assert_eq!(encoded, record);
}

#[test]
fn v2_block_reads_as_the_hand_derived_fields_and_line() {
    let file = open(v2_shard(&v2_columns()));
    let mut seen = 0;
    file.for_each_fields(0, 1, ColumnSet::ALL, |view| {
        assert_is_the_record(&view);
        seen += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(seen, 1);
}

#[test]
fn each_v1_length_field_corrupted_is_a_typed_error() {
    let h = header();
    // (offset, value) of each length past its slot.
    for (at, bytes) in [(28, &[5u8, 0][..]), (30, &[3, 0]), (32, &[6, 0, 0, 0]), (36, &[9, 0, 0, 0])] {
        let mut record = v1_record();
        record[at..at + bytes.len()].copy_from_slice(bytes);
        let err = record_codec::fields(&record, &h, &LAYOUT).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidRecord(m) if m == "BAMX lengths exceed layout"),
            "offset {at}: {err}"
        );
    }
    // A tag length one short cuts the last tag.
    let mut record = v1_record();
    record[36] = 7;
    let err = record_codec::fields(&record, &h, &LAYOUT).unwrap_err();
    assert!(matches!(err, Error::InvalidBam(_)), "{err}");
    // A short buffer.
    let err = record_codec::fields(&record[..68], &h, &LAYOUT).unwrap_err();
    assert!(matches!(&err, Error::InvalidRecord(m) if m.contains("truncated")), "{err}");
}

#[test]
fn each_v2_length_field_corrupted_is_a_typed_error() {
    // (column, byte of its raw stream, value past the layout); the
    // deflated columns' raw bytes start after the 9-byte prefix and
    // stored-block header.
    for (column, at, value, what) in [
        (3, 9, 5, "name length exceeds the layout"),
        (4, 0, 3, "op count exceeds the layout"),
        (5, 9, 6, "base count exceeds the layout"),
        (6, 9, 6, "length exceeds the layout"),
        (7, 0, 9, "tag bytes exceed the layout"),
    ] {
        let mut columns = v2_columns();
        columns[column][at] = value;
        let file = open(v2_shard(&columns));
        let err = file.for_each_fields(0, 1, ColumnSet::ALL, |_| Ok(())).unwrap_err();
        match &err {
            Error::Decode(d) => {
                assert_eq!(d.kind, DecodeErrorKind::Corrupt, "column {column}: {err}");
                assert!(d.detail.contains(what), "column {column}: {err}");
            }
            other => panic!("column {column}: untyped {other}"),
        }
        assert_eq!(
            file.read_range(0, 1).unwrap_err().to_string(),
            err.to_string(),
            "column {column}: the owned read disagrees"
        );
    }
}
