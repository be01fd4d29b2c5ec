//! Error type shared across the codec layers.

use std::fmt;

/// Errors produced while encoding or decoding DEFLATE/gzip/BGZF data.
#[derive(Debug)]
pub enum Error {
    /// The input ended before a complete structure could be decoded.
    UnexpectedEof,
    /// A Huffman code description was invalid.
    InvalidHuffman(&'static str),
    /// The compressed stream violates the format.
    Corrupt(&'static str),
    /// A gzip/BGZF header field had an unexpected value.
    BadHeader(&'static str),
    /// CRC-32 of the decompressed payload did not match the trailer.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Decompressed size did not match the ISIZE trailer field.
    SizeMismatch { expected: u32, actual: u32 },
    /// An underlying I/O error.
    Io(std::io::Error),
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            Error::InvalidHuffman(msg) => write!(f, "invalid Huffman code set: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt DEFLATE stream: {msg}"),
            Error::BadHeader(msg) => write!(f, "bad gzip/BGZF header: {msg}"),
            Error::ChecksumMismatch { expected, actual } => {
                write!(f, "CRC-32 mismatch: expected {expected:#010x}, got {actual:#010x}")
            }
            Error::SizeMismatch { expected, actual } => {
                write!(f, "ISIZE mismatch: expected {expected}, got {actual}")
            }
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// A codec error crossing a [`std::io::Read`] boundary. I/O errors pass
/// through as themselves; anything structural travels *inside* an
/// `InvalidData` error (same message as before), so the far side can
/// `downcast` it back and keep "the bytes are wrong" apart from "the
/// read failed".
impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        match e {
            Error::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
        }
    }
}
