//! Error type for format parsing and serialization.

use std::fmt;

/// What class of malformation a [`DecodeError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The magic bytes identifying the format were wrong.
    BadMagic,
    /// The input ended before a structure it promised.
    Truncated,
    /// A field value contradicts another part of the input.
    Corrupt,
    /// A length or count field is beyond any plausible value (allocation
    /// bombs are rejected under this kind before any buffer is reserved).
    Implausible,
    /// An artifact's on-disk bytes stop short of what its manifest entry
    /// promises (or the artifact is missing entirely) — the signature of a
    /// write interrupted before publication completed (DESIGN.md §7.5).
    Torn,
    /// An artifact disagrees with its manifest entry (checksum or layout
    /// fingerprint), or the manifest's own trailing checksum fails.
    ManifestMismatch,
}

impl fmt::Display for DecodeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecodeErrorKind::BadMagic => "bad magic",
            DecodeErrorKind::Truncated => "truncated",
            DecodeErrorKind::Corrupt => "corrupt",
            DecodeErrorKind::Implausible => "implausible field",
            DecodeErrorKind::Torn => "torn artifact",
            DecodeErrorKind::ManifestMismatch => "manifest mismatch",
        })
    }
}

/// A structured decode failure: what went wrong, at which byte offset, and
/// in which shard or file. Decode paths over untrusted bytes (BAMX shards,
/// BAIX indexes) return this instead of panicking — see DESIGN.md §7.
#[derive(Debug)]
pub struct DecodeError {
    /// The malformation class (drives retry-vs-quarantine decisions).
    pub kind: DecodeErrorKind,
    /// Byte offset into the source where the malformation was detected.
    pub offset: u64,
    /// Which shard/file the bytes came from (path or logical name).
    pub context: String,
    /// Human-readable description of the specific violation.
    pub detail: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at byte {} of {}: {}",
            self.kind, self.offset, self.context, self.detail
        )
    }
}

/// Errors produced while reading or writing sequence data formats.
#[derive(Debug)]
pub enum Error {
    /// A SAM text line violated the format.
    InvalidSam { line: u64, msg: String },
    /// A BAM binary structure violated the format.
    InvalidBam(String),
    /// A record referenced a sequence absent from the header dictionary.
    UnknownReference(String),
    /// A CIGAR string was malformed.
    InvalidCigar(String),
    /// An optional tag was malformed.
    InvalidTag(String),
    /// A FASTA/FASTQ/BED structure violated the format.
    InvalidRecord(String),
    /// Malformed bytes in a random-access binary structure (BAMX/BAIX),
    /// with offset and shard context.
    Decode(DecodeError),
    /// The BGZF/compression layer failed.
    Compression(ngs_bgzf::Error),
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A server shed the request under load control (admission queue
    /// full, deadline expired, or hot-shard fairness — DESIGN.md §13).
    /// Nothing is wrong with the request or the data: retryable after
    /// `retry_after`, and never a reason to quarantine a shard.
    Overloaded {
        /// Server-suggested back-off before resubmitting.
        retry_after: std::time::Duration,
    },
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSam { line, msg } => write!(f, "invalid SAM at line {line}: {msg}"),
            Error::InvalidBam(msg) => write!(f, "invalid BAM: {msg}"),
            Error::UnknownReference(name) => write!(f, "unknown reference sequence: {name}"),
            Error::InvalidCigar(msg) => write!(f, "invalid CIGAR: {msg}"),
            Error::InvalidTag(msg) => write!(f, "invalid tag: {msg}"),
            Error::InvalidRecord(msg) => write!(f, "invalid record: {msg}"),
            Error::Decode(e) => write!(f, "decode error: {e}"),
            Error::Compression(e) => write!(f, "compression error: {e}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Overloaded { retry_after } => {
                write!(f, "server overloaded; retry after {retry_after:?}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Compression(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    /// A codec error that crossed a [`std::io::Read`] boundary (a BGZF
    /// reader under a BAM parser) comes back as
    /// [`Error::Compression`], so a corrupt member stays structural and
    /// only a genuine read failure is [`Error::Io`] — the split
    /// [`Error::is_transient`] rests on.
    fn from(e: std::io::Error) -> Self {
        match e.downcast::<ngs_bgzf::Error>() {
            Ok(codec) => Error::Compression(codec),
            Err(e) => Error::Io(e),
        }
    }
}

impl From<ngs_bgzf::Error> for Error {
    fn from(e: ngs_bgzf::Error) -> Self {
        Error::Compression(e)
    }
}

impl Error {
    /// Helper for SAM parse errors.
    pub fn sam(line: u64, msg: impl Into<String>) -> Self {
        Error::InvalidSam { line, msg: msg.into() }
    }

    /// Helper for structured decode errors.
    pub fn decode(
        kind: DecodeErrorKind,
        offset: u64,
        context: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Error::Decode(DecodeError {
            kind,
            offset,
            context: context.into(),
            detail: detail.into(),
        })
    }

    /// True when the failure is plausibly transient (a retry against the
    /// same bytes may succeed): I/O errors, including those surfaced
    /// through the compression layer, and load-control rejections
    /// ([`Error::Overloaded`] — the server will recover). Structural
    /// malformation is *not* transient — the bytes themselves are wrong,
    /// so callers should quarantine rather than retry (DESIGN.md §7).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::Io(_) | Error::Compression(ngs_bgzf::Error::Io(_)) | Error::Overloaded { .. }
        )
    }
}
