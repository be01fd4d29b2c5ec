//! YAML emission of alignment records: each record is one `-`-led block
//! mapping, so a converted file is a single YAML sequence document.

use crate::record::AlignmentRecord;
use crate::tags::{TagArray, TagValueRef};
use crate::view::Alignment;

/// Appends one YAML sequence item describing `rec`.
pub fn write_alignment(rec: &AlignmentRecord, out: &mut Vec<u8>) -> bool {
    emit(rec, out)
}

/// [`write_alignment`] for any [`Alignment`]: the one YAML formatter.
pub fn emit(a: &impl Alignment, out: &mut Vec<u8>) -> bool {
    fn star_or(bytes: &[u8]) -> &[u8] {
        if bytes.is_empty() {
            b"*"
        } else {
            bytes
        }
    }
    write_scalar_field(out, b"- ", "qname", |out| out.extend_from_slice(star_or(a.qname())));
    write_int_field(out, "flag", i64::from(a.flag().0));
    write_scalar_field(out, b"  ", "rname", |out| out.extend_from_slice(star_or(a.rname())));
    write_int_field(out, "pos", a.pos());
    write_int_field(out, "mapq", i64::from(a.mapq()));
    write_scalar_field(out, b"  ", "cigar", |out| a.write_cigar(out));
    write_scalar_field(out, b"  ", "rnext", |out| out.extend_from_slice(star_or(a.rnext())));
    write_int_field(out, "pnext", a.pnext());
    write_int_field(out, "tlen", a.tlen());
    write_scalar_field(out, b"  ", "seq", |out| {
        if a.seq_len() == 0 {
            out.push(b'*');
        } else {
            a.push_seq(out);
        }
    });
    write_scalar_field(out, b"  ", "qual", |out| {
        if a.qual().is_empty() {
            out.push(b'*');
        } else {
            a.push_qual33(false, out);
        }
    });
    let mut tags = a.tags().peekable();
    if tags.peek().is_some() {
        out.extend_from_slice(b"  tags:\n");
        for (key, value) in tags {
            out.extend_from_slice(b"    ");
            out.extend_from_slice(&key);
            out.extend_from_slice(b": ");
            write_tag_value(out, &value);
            out.push(b'\n');
        }
    }
    true
}

fn write_int_field(out: &mut Vec<u8>, key: &str, v: i64) {
    out.extend_from_slice(b"  ");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b": ");
    let mut buf = crate::cigar::itoa_buffer();
    out.extend_from_slice(crate::cigar::write_i64(&mut buf, v));
    out.push(b'\n');
}

/// Writes `key: value` for the value `fill` appends, written in place
/// and rewritten as a quoted scalar only when it needs quoting.
fn write_scalar_field(out: &mut Vec<u8>, lead: &[u8], key: &str, fill: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(lead);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b": ");
    let start = out.len();
    fill(out);
    if needs_quoting(&out[start..]) {
        let raw = out.split_off(start);
        write_scalar(out, &raw);
    }
    out.push(b'\n');
}

/// Writes a YAML scalar, quoting when the value could be misinterpreted
/// (leading indicator characters, embedded specials, or non-printables).
pub fn write_scalar(out: &mut Vec<u8>, value: &[u8]) {
    if needs_quoting(value) {
        out.push(b'"');
        for &b in value {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0x00..=0x1F | 0x7F..=0xFF => {
                    out.extend_from_slice(format!("\\x{b:02x}").as_bytes())
                }
                _ => out.push(b),
            }
        }
        out.push(b'"');
    } else {
        out.extend_from_slice(value);
    }
}

fn needs_quoting(value: &[u8]) -> bool {
    if value.is_empty() {
        return true;
    }
    let first = value[0];
    if matches!(
        first,
        b'!' | b'&' | b'*' | b'-' | b'?' | b':' | b',' | b'[' | b']' | b'{' | b'}' | b'#' | b'|'
            | b'>' | b'@' | b'`' | b'"' | b'\'' | b'%' | b' ' | b'='
    ) {
        return true;
    }
    value
        .iter()
        .any(|&b| matches!(b, b':' | b'#' | b'"' | b'\\') || !(0x20..0x7F).contains(&b))
        || value.ends_with(b" ")
}

fn write_tag_value(out: &mut Vec<u8>, v: &TagValueRef<'_>) {
    match v {
        TagValueRef::Char(c) => write_scalar(out, &[*c]),
        TagValueRef::Int(i) => {
            let mut buf = crate::cigar::itoa_buffer();
            out.extend_from_slice(crate::cigar::write_i64(&mut buf, *i));
        }
        TagValueRef::Float(f) => out.extend_from_slice(format!("{f}").as_bytes()),
        TagValueRef::String(s) | TagValueRef::Hex(s) => write_scalar(out, s),
        TagValueRef::Array(a) => {
            out.push(b'[');
            macro_rules! write_nums {
                ($v:expr) => {
                    for (i, item) in $v.iter().enumerate() {
                        if i > 0 {
                            out.extend_from_slice(b", ");
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
    fn block_structure() {
        let r = sam::parse_record(
            b"read1\t99\tchr1\t100\t60\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:2",
            1,
        )
        .unwrap();
        let mut out = Vec::new();
        assert!(write_alignment(&r, &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("- qname: read1\n"), "got: {text}");
        assert!(text.contains("  flag: 99\n"));
        assert!(text.contains("  rnext: \"=\""), "rnext must be quoted: {text}");
        assert!(text.contains("  tags:\n    NM: 2\n"));
    }

    #[test]
    fn star_values_quoted() {
        let r = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        // '*' is a YAML alias indicator and must be quoted.
        assert!(text.contains("rname: \"*\""));
        assert!(text.contains("seq: \"*\""));
    }

    #[test]
    fn scalar_quoting_rules() {
        let check = |input: &[u8], expect: &str| {
            let mut out = Vec::new();
            write_scalar(&mut out, input);
            assert_eq!(String::from_utf8(out).unwrap(), expect, "input {input:?}");
        };
        check(b"plain", "plain");
        check(b"", "\"\"");
        check(b"-lead", "\"-lead\"");
        check(b"has:colon", "\"has:colon\"");
        check(b"back\\slash", "\"back\\\\slash\"");
        check(b"qu\"ote", "\"qu\\\"ote\"");
        check(b"\x01", "\"\\x01\"");
    }

    #[test]
    fn quality_always_quoted_safely() {
        // '!' (Phred 0) starts a YAML tag indicator; make sure it's quoted.
        let r = sam::parse_record(b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t!!II", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("qual: \"!!II\""), "got {text}");
    }

    #[test]
    fn two_records_form_sequence() {
        let r = sam::parse_record(b"r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII", 1).unwrap();
        let mut out = Vec::new();
        write_alignment(&r, &mut out);
        write_alignment(&r, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("- qname:").count(), 2);
    }
}
