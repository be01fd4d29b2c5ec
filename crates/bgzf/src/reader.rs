//! Streaming BGZF reader with virtual-offset seeking.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read, Seek, SeekFrom};

use crate::block::{decompress_block_into, has_eof_marker, peek_block_size, HEADER_SIZE};
use crate::error::Result;
use crate::inflate::Inflater;
use crate::voffset::VirtualOffset;

/// Reads a BGZF stream block by block, exposing the decompressed bytes via
/// [`Read`], and supporting random access via [`VirtualOffset`] when the
/// underlying source is [`Seek`].
pub struct BgzfReader<R> {
    inner: R,
    /// Compressed offset of the block currently buffered.
    block_coffset: u64,
    /// Compressed offset of the *next* block.
    next_coffset: u64,
    /// Decompressed payload of the current block.
    payload: Vec<u8>,
    /// Read cursor within `payload`.
    cursor: usize,
    /// Scratch buffer for compressed block bytes.
    scratch: Vec<u8>,
    /// Decoder tables, reused across blocks.
    inflater: Inflater,
    eof: bool,
}

impl<R: Read> BgzfReader<R> {
    /// Wraps `inner`, which must be positioned at a block boundary.
    pub fn new(inner: R) -> Self {
        BgzfReader {
            inner,
            block_coffset: 0,
            next_coffset: 0,
            payload: Vec::new(),
            cursor: 0,
            scratch: Vec::with_capacity(65536),
            inflater: Inflater::new(),
            eof: false,
        }
    }

    /// The virtual offset of the next byte [`Read`] would return.
    pub fn virtual_position(&self) -> VirtualOffset {
        if self.cursor == self.payload.len() {
            // At a block boundary the canonical position is the next block.
            VirtualOffset::new(self.next_coffset, 0)
        } else {
            VirtualOffset::new(self.block_coffset, self.cursor as u16)
        }
    }

    /// Loads the next block into `payload`. Returns false at EOF.
    fn load_next_block(&mut self) -> Result<bool> {
        if self.eof {
            return Ok(false);
        }
        if !read_member(&mut self.inner, &mut self.scratch)? {
            self.eof = true;
            return Ok(false);
        }
        // Empty the payload first: a failed block must not leave the
        // previous one readable.
        self.payload.clear();
        self.cursor = 0;
        let bsize = decompress_block_into(&self.scratch, &mut self.inflater, &mut self.payload)?;
        debug_assert_eq!(bsize, self.scratch.len());
        self.block_coffset = self.next_coffset;
        self.next_coffset += bsize as u64;
        // A zero-length payload is the EOF marker (or an empty block);
        // keep reading so empty interior blocks are transparent.
        Ok(true)
    }

    /// Ensures at least one unread byte is buffered. Returns false at EOF.
    fn fill(&mut self) -> Result<bool> {
        while self.cursor == self.payload.len() {
            if !self.load_next_block()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// Reads the next member's compressed bytes — fixed header, `BSIZE`,
/// then the rest — into `member` (replacing its contents). Returns false
/// at a clean end of input. The one member walk, shared by
/// [`BgzfReader`] and the read-ahead reader so both stop on the same
/// byte with the same error.
pub(crate) fn read_member<R: Read>(r: &mut R, member: &mut Vec<u8>) -> Result<bool> {
    member.clear();
    member.resize(HEADER_SIZE, 0);
    match read_exact_or_eof(r, member)? {
        0 => return Ok(false),
        n if n < HEADER_SIZE => return Err(crate::error::Error::UnexpectedEof),
        _ => {}
    }
    let bsize = peek_block_size(member)?;
    member.resize(bsize, 0);
    r.read_exact(&mut member[HEADER_SIZE..])?;
    Ok(true)
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

impl<R: Read> Read for BgzfReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if !self.fill()? {
            return Ok(0);
        }
        let avail = &self.payload[self.cursor..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.cursor += n;
        Ok(n)
    }
}

impl<R: Read + Seek> BgzfReader<R> {
    /// Repositions the reader at `voffset`.
    pub fn seek_virtual(&mut self, voffset: VirtualOffset) -> Result<()> {
        self.inner.seek(SeekFrom::Start(voffset.coffset()))?;
        self.next_coffset = voffset.coffset();
        self.payload.clear();
        self.cursor = 0;
        self.eof = false;
        if voffset.uoffset() > 0 {
            if !self.load_next_block()? {
                return Err(crate::error::Error::UnexpectedEof);
            }
            if voffset.uoffset() as usize > self.payload.len() {
                return Err(crate::error::Error::Corrupt("uoffset beyond block payload"));
            }
            self.cursor = voffset.uoffset() as usize;
        }
        Ok(())
    }
}

/// Sequentially decompresses an entire in-memory BGZF file.
pub fn decompress_sequential(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut inflater = Inflater::new();
    let mut pos = 0usize;
    while pos < data.len() {
        pos += decompress_block_into(&data[pos..], &mut inflater, &mut out)?;
    }
    Ok(out)
}

/// Validates that `data` looks like a complete BGZF file (well-formed block
/// chain terminated by the EOF marker).
pub fn validate(data: &[u8]) -> Result<bool> {
    let mut pos = 0usize;
    while pos < data.len() {
        let bsize = peek_block_size(&data[pos..])?;
        if pos + bsize > data.len() {
            return Err(crate::error::Error::UnexpectedEof);
        }
        pos += bsize;
    }
    Ok(has_eof_marker(data))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::writer::{compress_parallel, BgzfWriter};
    use std::io::Cursor;

    fn sample_file(payload: &[u8]) -> Vec<u8> {
        let mut w = BgzfWriter::new(Vec::new());
        w.write_all(payload).unwrap();
        w.finish().unwrap()
    }

    use std::io::Write;

    #[test]
    fn streaming_read_roundtrip() {
        let payload = b"0123456789".repeat(40_000); // spans multiple blocks
        let file = sample_file(&payload);
        let mut r = BgzfReader::new(Cursor::new(&file));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn virtual_seek_roundtrip() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let file = sample_file(&payload);

        // Record the virtual offset at byte 150_000 by reading to it.
        let mut r = BgzfReader::new(Cursor::new(&file));
        let mut skip = vec![0u8; 150_000];
        r.read_exact(&mut skip).unwrap();
        let v = r.virtual_position();
        let mut rest1 = Vec::new();
        r.read_to_end(&mut rest1).unwrap();

        let mut r2 = BgzfReader::new(Cursor::new(&file));
        r2.seek_virtual(v).unwrap();
        let mut rest2 = Vec::new();
        r2.read_to_end(&mut rest2).unwrap();
        assert_eq!(rest1, rest2);
        assert_eq!(rest1, &payload[150_000..]);
    }

    #[test]
    fn whole_buffer_decode_matches_the_payload() {
        let payload = b"parallel bgzf block decode ".repeat(30_000);
        let file = compress_parallel(&payload, crate::deflate::Options::default());
        assert_eq!(decompress_sequential(&file).unwrap(), payload);
    }

    #[test]
    fn validate_accepts_finished_file() {
        let file = sample_file(b"data");
        assert!(validate(&file).unwrap());
    }

    #[test]
    fn validate_rejects_missing_eof() {
        let file = sample_file(b"data");
        // Strip the EOF marker.
        let stripped = &file[..file.len() - crate::block::EOF_MARKER.len()];
        assert!(!validate(stripped).unwrap());
    }

    #[test]
    fn empty_file_reads_empty() {
        let file = sample_file(b"");
        let mut r = BgzfReader::new(Cursor::new(&file));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert!(out.is_empty());
    }
}
