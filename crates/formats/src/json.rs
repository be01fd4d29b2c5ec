//! Newline-delimited JSON emission of alignment records (one object per
//! line). Hand-rolled with full string escaping — the converter treats
//! JSON as just another line-oriented target format.

use crate::record::AlignmentRecord;
use crate::tags::{TagArray, TagValueRef};
use crate::view::Alignment;

/// Appends one JSON object (newline-terminated) describing `rec`.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one JSON formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    fn star_or(bytes: &[u8]) -> &[u8] {
        if bytes.is_empty() {
            b"*"
        } else {
            bytes
        }
    }
    out.push(b'{');
    write_key(out, "qname");
    write_string(out, star_or(a.qname()));
    out.push(b',');
    write_key(out, "flag");
    write_int(out, i64::from(a.flag().0));
    out.push(b',');
    write_key(out, "rname");
    write_string(out, star_or(a.rname()));
    out.push(b',');
    write_key(out, "pos");
    write_int(out, a.pos());
    out.push(b',');
    write_key(out, "mapq");
    write_int(out, i64::from(a.mapq()));
    out.push(b',');
    write_key(out, "cigar");
    write_string_with(out, |out| a.write_cigar(out));
    out.push(b',');
    write_key(out, "rnext");
    write_string(out, star_or(a.rnext()));
    out.push(b',');
    write_key(out, "pnext");
    write_int(out, a.pnext());
    out.push(b',');
    write_key(out, "tlen");
    write_int(out, a.tlen());
    out.push(b',');
    write_key(out, "seq");
    if a.seq_len() == 0 {
        write_string(out, b"*");
    } else {
        write_string_with(out, |out| a.push_seq(out));
    }
    out.push(b',');
    write_key(out, "qual");
    if a.qual().is_empty() {
        write_string(out, b"*");
    } else {
        write_string_with(out, |out| a.push_qual33(false, out));
    }
    let mut tags = a.tags().peekable();
    if tags.peek().is_some() {
        out.push(b',');
        write_key(out, "tags");
        out.push(b'{');
        for (i, (key, value)) in tags.enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_string(out, &key);
            out.push(b':');
            write_tag_value(out, &value);
        }
        out.push(b'}');
    }
    out.extend_from_slice(b"}\n");
    true
}

fn write_key(out: &mut Vec<u8>, key: &str) {
    out.push(b'"');
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
}

fn write_int(out: &mut Vec<u8>, v: i64) {
    let mut buf = crate::cigar::itoa_buffer();
    out.extend_from_slice(crate::cigar::write_i64(&mut buf, v));
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        out.extend_from_slice(format!("{v}").as_bytes());
        // Ensure valid JSON number tokens: `1` is fine, but Rust never
        // prints `1.` or `inf` for finite values, so nothing to fix.
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Writes a JSON string literal with escaping for control characters,
/// quotes, backslashes, and non-ASCII bytes (emitted as \u00XX, treating
/// input as Latin-1 — alignment data is ASCII in practice).
pub fn write_string(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(b'"');
    escape_into(out, bytes);
    out.push(b'"');
}

/// [`write_string`] of the bytes `fill` appends, written in place and
/// re-escaped only when they hold a byte that needs it.
fn write_string_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    out.push(b'"');
    let start = out.len();
    fill(out);
    if out[start..].iter().any(|&b| needs_escape(b)) {
        let raw = out.split_off(start);
        escape_into(out, &raw);
    }
    out.push(b'"');
}

fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0x00..=0x1F | 0x7F..=0xFF)
}

fn escape_into(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            0x00..=0x1F | 0x7F..=0xFF => {
                out.extend_from_slice(format!("\\u{:04x}", b as u32).as_bytes())
            }
            _ => out.push(b),
        }
    }
}

fn write_tag_value(out: &mut Vec<u8>, v: &TagValueRef<'_>) {
    match v {
        TagValueRef::Char(c) => write_string(out, &[*c]),
        TagValueRef::Int(i) => write_int(out, *i),
        TagValueRef::Float(f) => write_f64(out, *f as f64),
        TagValueRef::String(s) | TagValueRef::Hex(s) => write_string(out, s),
        TagValueRef::Array(a) => {
            out.push(b'[');
            macro_rules! write_nums {
                ($v:expr) => {
                    for (i, item) in $v.iter().enumerate() {
                        if i > 0 {
                            out.push(b',');
                        }
                        out.extend_from_slice(format!("{item}").as_bytes());
                    }
                };
            }
            match a.as_ref() {
                TagArray::I8(v) => write_nums!(v),
                TagArray::U8(v) => write_nums!(v),
                TagArray::I16(v) => write_nums!(v),
                TagArray::U16(v) => write_nums!(v),
                TagArray::I32(v) => write_nums!(v),
                TagArray::U32(v) => write_nums!(v),
                TagArray::F32(v) => write_nums!(v),
            }
            out.push(b']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam;

    #[test]
    fn basic_object() {
        let r = sam::parse_record(
            b"read1\t99\tchr1\t100\t60\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:2\tRG:Z:g1",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with('{'));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"qname\":\"read1\""));
        assert!(text.contains("\"flag\":99"));
        assert!(text.contains("\"pos\":100"));
        assert!(text.contains("\"tags\":{\"NM\":2,\"RG\":\"g1\"}"));
    }

    #[test]
    fn escaping() {
        let mut out = Vec::new();
        write_string(&mut out, b"a\"b\\c\nd\te\x01f\x80");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u0080\""
        );
    }

    #[test]
    fn values_written_in_place_are_escaped_when_needed() {
        // QUAL text `"\` (Phred 1 and 59) must be escaped; the bases need not.
        let r = sam::parse_record(b"r\t0\tchr1\t1\t60\t2M\t*\t0\t0\tAC\t\"\\", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(r#""seq":"AC","qual":"\"\\""#), "{text}");
    }

    #[test]
    fn array_tags() {
        let r = sam::parse_record(
            b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\tXB:B:s,-5,300\tXF:B:f,1.5,-2",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"XB\":[-5,300]"));
        assert!(text.contains("\"XF\":[1.5,-2]"));
    }

    #[test]
    fn unmapped_stars() {
        let r = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"rname\":\"*\""));
        assert!(text.contains("\"cigar\":\"*\""));
        assert!(text.contains("\"seq\":\"*\""));
        assert!(text.contains("\"qual\":\"*\""));
    }

    #[test]
    fn output_is_one_line_per_record() {
        let r = sam::parse_record(b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
