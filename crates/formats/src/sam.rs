//! SAM text format: parsing alignment lines into [`AlignmentRecord`]s
//! (or straight into BAMX-form [`RecordFields`]) and serializing records
//! back to text.

use std::io::{BufRead, Write};

use crate::bam::{self, encoded_tags_len};
use crate::cigar::{itoa_buffer, parse_ops_into, write_i64, write_u64, Cigar, CigarOp};
use crate::error::{Error, Result};
use crate::fields::{cigar_words_into, pos0_of, FieldsScratch, RecordFields, RefIds};
use crate::flags::Flags;
use crate::header::SamHeader;
use crate::record::{AlignmentRecord, FieldLengths};
use crate::seq;
use crate::tags::Tag;
use crate::view::Alignment;

/// Parses one tab-delimited SAM alignment line (no trailing newline).
///
/// `line_no` is used only for error reporting.
pub fn parse_record(line: &[u8], line_no: u64) -> Result<AlignmentRecord> {
    let mut ops = Vec::new();
    let line = split_line(line, line_no, &mut ops)?;
    let mut tags = Vec::new();
    for field in line.tags {
        tags.push(parse_tag(field, line_no)?);
    }
    Ok(AlignmentRecord {
        // "*" is the reserved "unavailable" name; normalize to empty,
        // matching the BAM decoder so records agree across formats.
        qname: if line.qname == b"*" { Vec::new() } else { line.qname.to_vec() },
        flag: Flags(line.flag),
        rname: line.rname.to_vec(),
        pos: line.pos,
        mapq: line.mapq,
        cigar: Cigar(ops),
        rnext: line.rnext.to_vec(),
        pnext: line.pnext,
        tlen: line.tlen,
        seq: line.seq.to_vec(),
        qual: phred(line.qual).collect(),
        tags,
    })
}

/// Parses one SAM alignment line straight into BAMX-form fields — no
/// record is built: SEQ is packed from the text, QUAL is the text − 33,
/// CIGAR becomes BAM words and each tag is encoded as BAM stores it,
/// all into `scratch`; names resolve through `refs`.
///
/// Accepts and rejects exactly the lines [`parse_record`] followed by
/// [`RecordFields::from_record`] does, with the same first error: every
/// error of the SAM grammar, in field order, then an unknown RNAME or
/// RNEXT, a tag integer BAM cannot hold, and a POS or PNEXT outside the
/// i32 domain.
pub fn parse_fields<'a>(
    line: &'a [u8],
    line_no: u64,
    refs: &RefIds,
    scratch: &'a mut FieldsScratch,
) -> Result<RecordFields<'a>> {
    let FieldsScratch { ops, cigar, seq: packed, qual, tags } = scratch;
    ops.clear();
    let line = split_line(line, line_no, ops)?;
    tags.clear();
    let mut unencodable = None;
    for field in line.tags {
        let tag = parse_tag(field, line_no)?;
        // Every tag must still parse: a later grammar error comes first.
        if unencodable.is_none() {
            unencodable = bam::encode_tag(&tag, tags).err();
        }
    }
    let ref_id = refs.resolve(line.rname)?;
    let next_ref_id = refs.resolve_mate(line.rnext, ref_id)?;
    if let Some(e) = unencodable {
        return Err(e);
    }
    let pos0 = pos0_of("POS", line.pos)?;
    let next_pos0 = pos0_of("PNEXT", line.pnext)?;
    cigar_words_into(ops.iter().copied(), cigar);
    packed.clear();
    seq::pack_into(line.seq, packed);
    qual.clear();
    qual.extend(phred(line.qual));
    Ok(RecordFields {
        flag: line.flag,
        mapq: line.mapq,
        ref_id,
        pos0,
        next_ref_id,
        next_pos0,
        tlen: line.tlen,
        qname: if line.qname.is_empty() { b"*" } else { line.qname },
        cigar,
        l_seq: line.seq.len(),
        seq: packed,
        // Empty qualities are absent, as on an owned record.
        qual: (!qual.is_empty()).then_some(&qual[..]),
        tags,
    })
}

/// The tab-separated columns of a line, as `split` on `\t` yields them.
struct Columns<'a>(Option<&'a [u8]>);

impl<'a> Iterator for Columns<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.0?;
        match rest.iter().position(|&b| b == b'\t') {
            Some(i) => {
                self.0 = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.0 = None;
                Some(rest)
            }
        }
    }
}

/// One alignment line split into its eleven mandatory columns, with the
/// integer columns parsed and range-checked, CIGAR parsed into the
/// caller's buffer and QUAL checked, and the optional tag columns left
/// to the caller. The one SAM field grammar: [`parse_record`] and
/// [`parse_fields`] both read lines through it, so they accept the same
/// lines and report the same first error.
struct Line<'a> {
    qname: &'a [u8],
    flag: u16,
    rname: &'a [u8],
    pos: i64,
    mapq: u8,
    rnext: &'a [u8],
    pnext: i64,
    tlen: i64,
    /// The bases; empty for `*`.
    seq: &'a [u8],
    /// The qualities as Phred+33 text, every byte checked; empty for `*`.
    qual: &'a [u8],
    tags: Columns<'a>,
}

fn split_line<'a>(line: &'a [u8], line_no: u64, ops: &mut Vec<(u32, CigarOp)>) -> Result<Line<'a>> {
    let mut columns = Columns(Some(line));
    let mut next = |name: &'static str| {
        columns.next().ok_or_else(|| Error::sam(line_no, format!("missing field {name}")))
    };
    let qname = next("QNAME")?;
    let flag_text = next("FLAG")?;
    let rname = next("RNAME")?;
    let pos_text = next("POS")?;
    let mapq_text = next("MAPQ")?;
    let cigar_text = next("CIGAR")?;
    let rnext = next("RNEXT")?;
    let pnext_text = next("PNEXT")?;
    let tlen_text = next("TLEN")?;
    let seq_text = next("SEQ")?;
    let qual_text = next("QUAL")?;

    let flag = u16::try_from(parse_int(flag_text, line_no, "FLAG")?)
        .map_err(|_| Error::sam(line_no, "FLAG out of range"))?;
    let pos = parse_int(pos_text, line_no, "POS")?;
    let mapq = u8::try_from(parse_int(mapq_text, line_no, "MAPQ")?)
        .map_err(|_| Error::sam(line_no, "MAPQ out of range"))?;
    parse_ops_into(cigar_text, ops).map_err(|e| Error::sam(line_no, format!("{e}")))?;
    let pnext = parse_int(pnext_text, line_no, "PNEXT")?;
    let tlen = parse_int(tlen_text, line_no, "TLEN")?;

    let seq = if seq_text == b"*" { &[][..] } else { seq_text };
    let qual = if qual_text == b"*" { &[][..] } else { qual_text };
    // SAM stores Phred+33.
    if qual.iter().any(|&c| c < 33) {
        return Err(Error::sam(line_no, "QUAL character below '!'"));
    }
    if !seq.is_empty() && !qual.is_empty() && seq.len() != qual.len() {
        return Err(Error::sam(line_no, "SEQ and QUAL lengths differ"));
    }
    Ok(Line { qname, flag, rname, pos, mapq, rnext, pnext, tlen, seq, qual, tags: columns })
}

/// Raw Phred qualities of checked Phred+33 text.
fn phred(qual: &[u8]) -> impl Iterator<Item = u8> + '_ {
    qual.iter().map(|&c| c - 33)
}

fn parse_tag(field: &[u8], line_no: u64) -> Result<Tag> {
    Tag::parse_sam(field).map_err(|e| Error::sam(line_no, format!("{e}")))
}

/// Measures one SAM alignment line (no trailing newline) without parsing
/// it: QNAME and SEQ by length, CIGAR by counting operator characters,
/// and each tag field through [`Tag::parse_sam`] — the one tag grammar —
/// sized as the BAM encoder will store it. Agrees with
/// `FieldLengths::of(&parse_record(..)?)` on every line [`parse_record`]
/// accepts; integers, CIGAR syntax, bases and qualities are not looked
/// at, so a line that is bad only in those passes here and fails in
/// [`parse_record`].
pub fn measure_record(line: &[u8], line_no: u64) -> Result<FieldLengths> {
    let mut fields = Columns(Some(line));
    let mut next = |name: &'static str| {
        fields.next().ok_or_else(|| Error::sam(line_no, format!("missing field {name}")))
    };
    let qname = next("QNAME")?.len().max(1);
    for name in ["FLAG", "RNAME", "POS", "MAPQ"] {
        next(name)?;
    }
    let cigar = next("CIGAR")?;
    for name in ["RNEXT", "PNEXT", "TLEN"] {
        next(name)?;
    }
    let seq = next("SEQ")?;
    next("QUAL")?;

    let mut tags = 0usize;
    for field in fields {
        tags += Tag::parse_sam(field)
            .and_then(|tag| encoded_tags_len(std::slice::from_ref(&tag)))
            .map_err(|e| Error::sam(line_no, format!("{e}")))?;
    }
    Ok(FieldLengths {
        qname,
        cigar_ops: if cigar == b"*" {
            0
        } else {
            cigar.iter().filter(|c| !c.is_ascii_digit()).count()
        },
        seq: if seq == b"*" { 0 } else { seq.len() },
        tags,
    })
}

fn parse_int(text: &[u8], line_no: u64, field: &str) -> Result<i64> {
    if text.is_empty() {
        return Err(Error::sam(line_no, format!("empty {field}")));
    }
    let (neg, digits) = if text[0] == b'-' { (true, &text[1..]) } else { (false, text) };
    if digits.is_empty() {
        return Err(Error::sam(line_no, format!("bad integer in {field}")));
    }
    let mut v: i64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return Err(Error::sam(line_no, format!("bad integer in {field}")));
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((c - b'0') as i64))
            .ok_or_else(|| Error::sam(line_no, format!("integer overflow in {field}")))?;
    }
    Ok(if neg { -v } else { v })
}

/// Serializes `record` as one SAM line (without trailing newline) into
/// `out`. The buffer is appended to, not cleared.
pub fn write_record(record: &AlignmentRecord, out: &mut Vec<u8>) {
    emit(record, out);
}

/// [`write_record`] for any [`Alignment`]: the one SAM line formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) {
    let mut buf = itoa_buffer();
    let push_star_or = |out: &mut Vec<u8>, bytes: &[u8]| {
        if bytes.is_empty() {
            out.push(b'*');
        } else {
            out.extend_from_slice(bytes);
        }
    };

    push_star_or(out, a.qname());
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, u64::from(a.flag().0)));
    out.push(b'\t');
    push_star_or(out, a.rname());
    out.push(b'\t');
    out.extend_from_slice(write_i64(&mut buf, a.pos()));
    out.push(b'\t');
    out.extend_from_slice(write_u64(&mut buf, u64::from(a.mapq())));
    out.push(b'\t');
    a.write_cigar(out);
    out.push(b'\t');
    push_star_or(out, a.rnext());
    out.push(b'\t');
    out.extend_from_slice(write_i64(&mut buf, a.pnext()));
    out.push(b'\t');
    out.extend_from_slice(write_i64(&mut buf, a.tlen()));
    out.push(b'\t');
    if a.seq_len() == 0 {
        out.push(b'*');
    } else {
        a.push_seq(out);
    }
    out.push(b'\t');
    if a.qual().is_empty() {
        out.push(b'*');
    } else {
        a.push_qual33(false, out);
    }
    for (key, value) in a.tags() {
        out.push(b'\t');
        value.write_sam(key, out);
    }
}

/// Streaming SAM reader: consumes header lines eagerly, then yields one
/// record per alignment line.
pub struct SamReader<R> {
    inner: R,
    header: SamHeader,
    line: Vec<u8>,
    line_no: u64,
}

impl<R: BufRead> SamReader<R> {
    /// Wraps `inner` and parses the header block.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut header_text = String::new();
        let mut line = Vec::new();
        let mut line_no = 0u64;
        loop {
            let buf = inner.fill_buf()?;
            if buf.is_empty() || buf[0] != b'@' {
                break;
            }
            line.clear();
            inner.read_until(b'\n', &mut line)?;
            line_no += 1;
            header_text.push_str(&String::from_utf8_lossy(&line));
        }
        let header = SamHeader::parse(&header_text)?;
        Ok(SamReader { inner, header, line, line_no })
    }

    /// The parsed header.
    pub fn header(&self) -> &SamHeader {
        &self.header
    }

    /// Reads the next record; `None` at EOF.
    pub fn read_record(&mut self) -> Result<Option<AlignmentRecord>> {
        loop {
            self.line.clear();
            let n = self.inner.read_until(b'\n', &mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let mut end = self.line.len();
            while end > 0 && (self.line[end - 1] == b'\n' || self.line[end - 1] == b'\r') {
                end -= 1;
            }
            if end == 0 {
                continue; // skip blank lines
            }
            return parse_record(&self.line[..end], self.line_no).map(Some);
        }
    }

    /// Iterator-style adapter.
    pub fn records(&mut self) -> impl Iterator<Item = Result<AlignmentRecord>> + '_ {
        std::iter::from_fn(move || self.read_record().transpose())
    }
}

/// Streaming SAM writer.
pub struct SamWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> SamWriter<W> {
    /// Wraps `inner` and writes `header` text immediately.
    pub fn new(mut inner: W, header: &SamHeader) -> Result<Self> {
        inner.write_all(header.text.as_bytes())?;
        Ok(SamWriter { inner, buf: Vec::with_capacity(1024) })
    }

    /// Writes one record (newline-terminated).
    pub fn write_record(&mut self, record: &AlignmentRecord) -> Result<()> {
        self.buf.clear();
        write_record(record, &mut self.buf);
        self.buf.push(b'\n');
        self.inner.write_all(&self.buf)?;
        Ok(())
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LINE: &str = "read1\t99\tchr1\t12345\t60\t90M\t=\t12500\t245\tACGTACGTAC\tIIIIIIIIII\tNM:i:2\tRG:Z:grp1";

    #[test]
    fn measure_agrees_with_parse_and_looks_at_lengths_only() {
        let of_parsed = |line: &[u8]| FieldLengths::of(&parse_record(line, 1).unwrap()).unwrap();
        assert_eq!(measure_record(LINE.as_bytes(), 1).unwrap(), of_parsed(LINE.as_bytes()));
        assert_eq!(
            measure_record(LINE.as_bytes(), 1).unwrap(),
            FieldLengths { qname: 5, cigar_ops: 1, seq: 10, tags: (3 + 1) + (3 + 5) }
        );
        let stars = b"*\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*";
        assert_eq!(measure_record(stars, 1).unwrap(), of_parsed(stars));
        assert_eq!(measure_record(stars, 1).unwrap(), FieldLengths { qname: 1, cigar_ops: 0, seq: 0, tags: 0 });
        let ops = b"r\t0\tchr1\t1\t60\t10M2I300D7M\t*\t0\t0\tACGT\t*\tXI:i:70000\tXB:B:s,1,2,3";
        assert_eq!(measure_record(ops, 1).unwrap(), of_parsed(ops));
        assert_eq!(measure_record(ops, 1).unwrap().cigar_ops, 4);

        // Too few fields and malformed tags are errors here too, with the
        // line number; a bad integer is left for the parser to report.
        assert!(matches!(measure_record(b"r\t0\tchr1", 9), Err(Error::InvalidSam { line: 9, .. })));
        let bad_tag = b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t*\tNM:q:1";
        assert!(matches!(measure_record(bad_tag, 3), Err(Error::InvalidSam { line: 3, .. })));
        let wide_int = b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t*\tXI:i:99999999999";
        assert!(measure_record(wide_int, 1).is_err());
        let bad_flag = b"r\tx\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t*";
        assert!(measure_record(bad_flag, 1).is_ok());
        assert!(parse_record(bad_flag, 1).is_err());
    }

    #[test]
    fn parse_and_serialize_roundtrip() {
        let rec = parse_record(LINE.as_bytes(), 1).unwrap();
        assert_eq!(rec.qname, b"read1");
        assert_eq!(rec.flag.0, 99);
        assert_eq!(rec.rname, b"chr1");
        assert_eq!(rec.pos, 12345);
        assert_eq!(rec.mapq, 60);
        assert_eq!(rec.cigar.to_string(), "90M");
        assert_eq!(rec.rnext, b"=");
        assert_eq!(rec.pnext, 12500);
        assert_eq!(rec.tlen, 245);
        assert_eq!(rec.seq, b"ACGTACGTAC");
        assert_eq!(rec.qual, vec![40; 10]); // 'I' = 73 - 33
        assert_eq!(rec.tags.len(), 2);

        let mut out = Vec::new();
        write_record(&rec, &mut out);
        assert_eq!(out, LINE.as_bytes());
    }

    #[test]
    fn unmapped_record_roundtrip() {
        let line = "read2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*";
        let rec = parse_record(line.as_bytes(), 1).unwrap();
        assert!(rec.is_unmapped());
        assert!(rec.seq.is_empty());
        assert!(rec.qual.is_empty());
        let mut out = Vec::new();
        write_record(&rec, &mut out);
        assert_eq!(out, line.as_bytes());
    }

    #[test]
    fn negative_tlen() {
        let line = "r\t147\tchr1\t500\t60\t10M\t=\t100\t-410\tACGTACGTAC\t!!!!!!!!!!";
        let rec = parse_record(line.as_bytes(), 1).unwrap();
        assert_eq!(rec.tlen, -410);
        let mut out = Vec::new();
        write_record(&rec, &mut out);
        assert_eq!(out, line.as_bytes());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_record(b"too\tfew\tfields", 1).is_err());
        assert!(parse_record("r\tx\tchr1\t1\t60\t*\t*\t0\t0\t*\t*".as_bytes(), 1).is_err());
        assert!(parse_record("r\t0\tchr1\t1\t999\t*\t*\t0\t0\t*\t*".as_bytes(), 1).is_err());
        assert!(parse_record("r\t0\tchr1\t1\t60\t*\t*\t0\t0\tACGT\tII".as_bytes(), 1).is_err());
    }

    /// Regression: FLAG was cast to u16 unchecked, so `70000` read as
    /// 4464, `-1` as every flag bit and `65536` as 0.
    #[test]
    fn flag_outside_u16_is_an_error_not_a_wrap() {
        for flag in ["70000", "-1", "65536"] {
            let line = format!("r\t{flag}\tchr1\t1\t60\t*\t*\t0\t0\t*\t*");
            let err = parse_record(line.as_bytes(), 3).unwrap_err();
            assert!(matches!(&err, Error::InvalidSam { line: 3, msg } if msg.contains("FLAG")), "{err}");
        }
        let max = parse_record(b"r\t65535\tchr1\t1\t60\t*\t*\t0\t0\t*\t*", 1).unwrap();
        assert_eq!(max.flag.0, 65535);
    }

    #[test]
    fn reader_with_header() {
        let text = "@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\nr2\t16\tchr1\t10\t60\t4M\t*\t0\t0\tTTTT\tIIII\n";
        let mut reader = SamReader::new(Cursor::new(text)).unwrap();
        assert_eq!(reader.header().reference_count(), 1);
        let r1 = reader.read_record().unwrap().unwrap();
        assert_eq!(r1.qname, b"r1");
        let r2 = reader.read_record().unwrap().unwrap();
        assert_eq!(r2.qname, b"r2");
        assert!(r2.flag.is_reverse());
        assert!(reader.read_record().unwrap().is_none());
    }

    #[test]
    fn reader_headerless() {
        let text = "r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let mut reader = SamReader::new(Cursor::new(text)).unwrap();
        assert_eq!(reader.header().reference_count(), 0);
        assert!(reader.read_record().unwrap().is_some());
    }

    #[test]
    fn reader_skips_blank_lines_and_handles_crlf() {
        let text = "r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\r\n\nr2\t0\tchr1\t2\t60\t4M\t*\t0\t0\tACGT\tIIII";
        let mut reader = SamReader::new(Cursor::new(text)).unwrap();
        let r1 = reader.read_record().unwrap().unwrap();
        assert_eq!(r1.qname, b"r1");
        assert_eq!(r1.seq, b"ACGT");
        let r2 = reader.read_record().unwrap().unwrap();
        assert_eq!(r2.qname, b"r2");
        assert!(reader.read_record().unwrap().is_none());
    }

    #[test]
    fn writer_roundtrip() {
        let header = SamHeader::parse("@SQ\tSN:chr1\tLN:1000\n").unwrap();
        let rec = parse_record(LINE.as_bytes(), 1).unwrap();
        let mut w = SamWriter::new(Vec::new(), &header).unwrap();
        w.write_record(&rec).unwrap();
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("@SQ"));
        assert!(text.ends_with(&format!("{LINE}\n")));

        let mut reader = SamReader::new(Cursor::new(text)).unwrap();
        let rec2 = reader.read_record().unwrap().unwrap();
        assert_eq!(rec2, rec);
    }

    #[test]
    fn records_iterator() {
        let text = "r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\nr2\t0\tchr1\t2\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let mut reader = SamReader::new(Cursor::new(text)).unwrap();
        let names: Vec<_> =
            reader.records().map(|r| String::from_utf8(r.unwrap().qname).unwrap()).collect();
        assert_eq!(names, vec!["r1", "r2"]);
    }
}
