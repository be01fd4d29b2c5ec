//! # ngs-bgzf
//!
//! A from-scratch implementation of the compression substrate that BAM
//! processing depends on:
//!
//! * [`crc32`] — CRC-32 (gzip trailer checksum);
//! * [`bits`] — LSB-first bit I/O;
//! * [`huffman`] — canonical, length-limited Huffman coding;
//! * [`mod@inflate`] / [`mod@deflate`] — full DEFLATE codec (RFC 1951), all three
//!   block types in both directions;
//! * [`gzip`] — gzip member framing (RFC 1952);
//! * [`block`] — BGZF block framing (SAM/BAM specification §4), including
//!   the `BC`/`BSIZE` extra subfield and the end-of-file marker;
//! * [`voffset`] — BGZF virtual offsets used by indexes;
//! * [`reader`] / [`writer`] — streaming BGZF I/O (seekable by virtual
//!   offset) plus whole-buffer (de)compression;
//! * [`readahead`] — the sequential reader: members inflated on helper
//!   threads ahead of the consumer, in order, through a bounded window.
//!
//! The paper ("Removing Sequential Bottlenecks in Analysis of
//! Next-Generation Sequencing Data", IPPS 2014) relied on BamTools and
//! zlib for this layer; rebuilding it keeps the reproduction self-contained
//! and lets the BAM converter measure true end-to-end costs.
//!
//! ## Quick example
//!
//! ```
//! use std::io::{Read, Write};
//!
//! let mut w = ngs_bgzf::BgzfWriter::new(Vec::new());
//! w.write_all(b"alignment data").unwrap();
//! let file = w.finish().unwrap();
//!
//! let mut r = ngs_bgzf::BgzfReader::new(std::io::Cursor::new(&file));
//! let mut out = Vec::new();
//! r.read_to_end(&mut out).unwrap();
//! assert_eq!(out, b"alignment data");
//! ```

pub mod bits;
pub mod block;
pub mod crc32;
pub mod deflate;
pub mod error;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod lz77;
mod obs;
pub mod read_at;
pub mod readahead;
pub mod reader;
pub mod voffset;
pub mod writer;

pub use deflate::{deflate, Options, Strategy};
pub use error::{Error, Result};
pub use inflate::{inflate, Inflater};
pub use read_at::ReadAt;
pub use readahead::ReadAheadReader;
pub use reader::{decompress_sequential, BgzfReader};
pub use voffset::VirtualOffset;
pub use writer::{compress_sequential, BgzfWriter};
