//! Optional alignment tags (`TAG:TYPE:VALUE` columns in SAM, the tag block
//! in BAM).

use std::borrow::Cow;
use std::fmt;

use crate::cigar::{itoa_buffer, write_i64};
use crate::error::{Error, Result};

/// Element type of a `B`-array tag.
#[derive(Debug, Clone, PartialEq)]
pub enum TagArray {
    /// `c`: signed 8-bit.
    I8(Vec<i8>),
    /// `C`: unsigned 8-bit.
    U8(Vec<u8>),
    /// `s`: signed 16-bit.
    I16(Vec<i16>),
    /// `S`: unsigned 16-bit.
    U16(Vec<u16>),
    /// `i`: signed 32-bit.
    I32(Vec<i32>),
    /// `I`: unsigned 32-bit.
    U32(Vec<u32>),
    /// `f`: 32-bit float.
    F32(Vec<f32>),
}

impl TagArray {
    /// The SAM/BAM subtype character.
    pub fn subtype(&self) -> u8 {
        match self {
            TagArray::I8(_) => b'c',
            TagArray::U8(_) => b'C',
            TagArray::I16(_) => b's',
            TagArray::U16(_) => b'S',
            TagArray::I32(_) => b'i',
            TagArray::U32(_) => b'I',
            TagArray::F32(_) => b'f',
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            TagArray::I8(v) => v.len(),
            TagArray::U8(v) => v.len(),
            TagArray::I16(v) => v.len(),
            TagArray::U16(v) => v.len(),
            TagArray::I32(v) => v.len(),
            TagArray::U32(v) => v.len(),
            TagArray::F32(v) => v.len(),
        }
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A tag value.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValue {
    /// `A`: a single printable character.
    Char(u8),
    /// `i` (and the BAM-only narrower widths): an integer.
    Int(i64),
    /// `f`: a float.
    Float(f32),
    /// `Z`: a printable string.
    String(Vec<u8>),
    /// `H`: hex-encoded bytes.
    Hex(Vec<u8>),
    /// `B`: a numeric array.
    Array(TagArray),
}

impl TagValue {
    /// The SAM type character.
    pub fn type_char(&self) -> u8 {
        match self {
            TagValue::Char(_) => b'A',
            TagValue::Int(_) => b'i',
            TagValue::Float(_) => b'f',
            TagValue::String(_) => b'Z',
            TagValue::Hex(_) => b'H',
            TagValue::Array(_) => b'B',
        }
    }
}

/// One optional tag: a two-character key plus a typed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    /// Two-character tag name, e.g. `NM`.
    pub key: [u8; 2],
    /// Typed value.
    pub value: TagValue,
}

impl Tag {
    /// Convenience constructor.
    pub fn new(key: [u8; 2], value: TagValue) -> Self {
        Tag { key, value }
    }

    /// Parses a SAM tag column such as `NM:i:3`.
    pub fn parse_sam(field: &[u8]) -> Result<Tag> {
        if field.len() < 5 || field[2] != b':' || field[4] != b':' {
            return Err(Error::InvalidTag(format!(
                "malformed tag field {:?}",
                String::from_utf8_lossy(field)
            )));
        }
        let key = [field[0], field[1]];
        let type_char = field[3];
        let val = &field[5..];
        let value = match type_char {
            b'A' => {
                if val.len() != 1 {
                    return Err(Error::InvalidTag("A tag must be one character".into()));
                }
                TagValue::Char(val[0])
            }
            b'i' => TagValue::Int(parse_i64(val)?),
            b'f' => TagValue::Float(parse_f32(val)?),
            b'Z' => TagValue::String(val.to_vec()),
            b'H' => {
                if !val.len().is_multiple_of(2) || !val.iter().all(u8::is_ascii_hexdigit) {
                    return Err(Error::InvalidTag("H tag must be even-length hex".into()));
                }
                TagValue::Hex(val.to_vec())
            }
            b'B' => TagValue::Array(parse_array(val)?),
            other => {
                return Err(Error::InvalidTag(format!("unknown tag type '{}'", other as char)))
            }
        };
        Ok(Tag { key, value })
    }

    /// Writes the SAM text form (`KEY:TYPE:VALUE`) into `out`.
    pub fn write_sam(&self, out: &mut Vec<u8>) {
        TagValueRef::from(&self.value).write_sam(self.key, out);
    }
}

/// A tag value borrowed from an owned [`TagValue`] or straight from a BAM
/// tag block ([`crate::bam::tags`]): what the emitters render, so each
/// tag rendering exists once for both record forms.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValueRef<'a> {
    /// `A`: a single character.
    Char(u8),
    /// Any integer width.
    Int(i64),
    /// `f`: a float.
    Float(f32),
    /// `Z`: a string.
    String(&'a [u8]),
    /// `H`: hex text.
    Hex(&'a [u8]),
    /// `B`: a numeric array (decoded on demand off a BAM block; arrays
    /// are rare).
    Array(Cow<'a, TagArray>),
}

impl<'a> From<&'a TagValue> for TagValueRef<'a> {
    fn from(v: &'a TagValue) -> Self {
        match v {
            TagValue::Char(c) => TagValueRef::Char(*c),
            TagValue::Int(i) => TagValueRef::Int(*i),
            TagValue::Float(f) => TagValueRef::Float(*f),
            TagValue::String(s) => TagValueRef::String(s),
            TagValue::Hex(s) => TagValueRef::Hex(s),
            TagValue::Array(a) => TagValueRef::Array(Cow::Borrowed(a)),
        }
    }
}

impl TagValueRef<'_> {
    /// The owned value.
    pub fn to_owned(&self) -> TagValue {
        match self {
            TagValueRef::Char(c) => TagValue::Char(*c),
            TagValueRef::Int(i) => TagValue::Int(*i),
            TagValueRef::Float(f) => TagValue::Float(*f),
            TagValueRef::String(s) => TagValue::String(s.to_vec()),
            TagValueRef::Hex(s) => TagValue::Hex(s.to_vec()),
            TagValueRef::Array(a) => TagValue::Array(a.clone().into_owned()),
        }
    }

    fn type_char(&self) -> u8 {
        match self {
            TagValueRef::Char(_) => b'A',
            TagValueRef::Int(_) => b'i',
            TagValueRef::Float(_) => b'f',
            TagValueRef::String(_) => b'Z',
            TagValueRef::Hex(_) => b'H',
            TagValueRef::Array(_) => b'B',
        }
    }

    /// Writes the SAM text form of tag `key` (`KEY:TYPE:VALUE`) into `out`.
    pub fn write_sam(&self, key: [u8; 2], out: &mut Vec<u8>) {
        out.extend_from_slice(&key);
        out.push(b':');
        out.push(self.type_char());
        out.push(b':');
        match self {
            TagValueRef::Char(c) => out.push(*c),
            TagValueRef::Int(i) => {
                let mut buf = itoa_buffer();
                out.extend_from_slice(write_i64(&mut buf, *i));
            }
            TagValueRef::Float(f) => out.extend_from_slice(format_float(*f).as_bytes()),
            TagValueRef::String(s) | TagValueRef::Hex(s) => out.extend_from_slice(s),
            TagValueRef::Array(a) => write_array_sam(a, out),
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut v = Vec::new();
        self.write_sam(&mut v);
        f.write_str(&String::from_utf8_lossy(&v))
    }
}

fn parse_i64(text: &[u8]) -> Result<i64> {
    std::str::from_utf8(text)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::InvalidTag(format!("bad integer {:?}", String::from_utf8_lossy(text))))
}

fn parse_f32(text: &[u8]) -> Result<f32> {
    std::str::from_utf8(text)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::InvalidTag(format!("bad float {:?}", String::from_utf8_lossy(text))))
}

/// Formats a float the way SAM expects (shortest representation).
pub(crate) fn format_float(f: f32) -> String {
    // Ryu-style shortest formatting comes for free with Display.
    format!("{f}")
}

fn parse_array(val: &[u8]) -> Result<TagArray> {
    if val.is_empty() {
        return Err(Error::InvalidTag("empty B array".into()));
    }
    let subtype = val[0];
    let body = if val.len() > 1 {
        if val[1] != b',' {
            return Err(Error::InvalidTag("B array missing comma".into()));
        }
        &val[2..]
    } else {
        &[][..]
    };
    let items: Vec<&[u8]> =
        if body.is_empty() { Vec::new() } else { body.split(|&b| b == b',').collect() };

    macro_rules! collect_ints {
        ($t:ty, $variant:ident) => {{
            let mut v: Vec<$t> = Vec::with_capacity(items.len());
            for it in &items {
                let n = parse_i64(it)?;
                let cast = n as $t;
                if cast as i64 != n {
                    return Err(Error::InvalidTag(format!("array element {n} out of range")));
                }
                v.push(cast);
            }
            TagArray::$variant(v)
        }};
    }

    Ok(match subtype {
        b'c' => collect_ints!(i8, I8),
        b'C' => collect_ints!(u8, U8),
        b's' => collect_ints!(i16, I16),
        b'S' => collect_ints!(u16, U16),
        b'i' => collect_ints!(i32, I32),
        b'I' => {
            let mut v = Vec::with_capacity(items.len());
            for it in &items {
                let n = parse_i64(it)?;
                if !(0..=u32::MAX as i64).contains(&n) {
                    return Err(Error::InvalidTag(format!("array element {n} out of range")));
                }
                v.push(n as u32);
            }
            TagArray::U32(v)
        }
        b'f' => {
            let mut v = Vec::with_capacity(items.len());
            for it in &items {
                v.push(parse_f32(it)?);
            }
            TagArray::F32(v)
        }
        other => {
            return Err(Error::InvalidTag(format!("unknown array subtype '{}'", other as char)))
        }
    })
}

fn write_array_sam(a: &TagArray, out: &mut Vec<u8>) {
    out.push(a.subtype());
    macro_rules! write_items {
        ($v:expr) => {
            for item in $v {
                out.push(b',');
                out.extend_from_slice(format!("{item}").as_bytes());
            }
        };
    }
    match a {
        TagArray::I8(v) => write_items!(v),
        TagArray::U8(v) => write_items!(v),
        TagArray::I16(v) => write_items!(v),
        TagArray::U16(v) => write_items!(v),
        TagArray::I32(v) => write_items!(v),
        TagArray::U32(v) => write_items!(v),
        TagArray::F32(v) => write_items!(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) {
        let tag = Tag::parse_sam(text.as_bytes()).unwrap();
        assert_eq!(tag.to_string(), text, "roundtrip of {text}");
    }

    #[test]
    fn parse_int_tag() {
        let t = Tag::parse_sam(b"NM:i:3").unwrap();
        assert_eq!(t.key, *b"NM");
        assert_eq!(t.value, TagValue::Int(3));
        roundtrip("NM:i:3");
        roundtrip("NM:i:-17");
    }

    #[test]
    fn parse_char_string_hex() {
        roundtrip("XT:A:U");
        roundtrip("RG:Z:sample-1.lane3");
        roundtrip("MD:Z:90");
        roundtrip("XH:H:1AFF");
        assert!(Tag::parse_sam(b"XH:H:1AF").is_err()); // odd-length hex
        assert!(Tag::parse_sam(b"XH:H:XY").is_err()); // non-hex
    }

    #[test]
    fn parse_float_tag() {
        let t = Tag::parse_sam(b"XS:f:1.5").unwrap();
        assert_eq!(t.value, TagValue::Float(1.5));
        roundtrip("XS:f:1.5");
    }

    #[test]
    fn parse_arrays() {
        roundtrip("XB:B:c,-1,0,1");
        roundtrip("XB:B:C,0,255");
        roundtrip("XB:B:s,-300,300");
        roundtrip("XB:B:S,0,65535");
        roundtrip("XB:B:i,-70000,70000");
        roundtrip("XB:B:I,0,4000000000");
        roundtrip("XB:B:f,1.5,-2.25");
    }

    #[test]
    fn array_range_checks() {
        assert!(Tag::parse_sam(b"XB:B:c,200").is_err());
        assert!(Tag::parse_sam(b"XB:B:C,-1").is_err());
        assert!(Tag::parse_sam(b"XB:B:I,-1").is_err());
        assert!(Tag::parse_sam(b"XB:B:q,1").is_err());
    }

    #[test]
    fn malformed_fields() {
        assert!(Tag::parse_sam(b"N:i:3").is_err());
        assert!(Tag::parse_sam(b"NMi3").is_err());
        assert!(Tag::parse_sam(b"NM:x:3").is_err());
        assert!(Tag::parse_sam(b"XT:A:UU").is_err());
        assert!(Tag::parse_sam(b"NM:i:abc").is_err());
    }

    #[test]
    fn empty_string_tag_is_legal() {
        let t = Tag::parse_sam(b"RG:Z:").unwrap();
        assert_eq!(t.value, TagValue::String(Vec::new()));
    }
}
