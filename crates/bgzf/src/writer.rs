//! Streaming BGZF writer plus a whole-buffer compressor.

use std::io::{self, Write};

use crate::block::{compress_block, EOF_MARKER, MAX_PAYLOAD};
use crate::deflate::Options;
use crate::voffset::VirtualOffset;

/// Buffers writes into ≤[`MAX_PAYLOAD`]-byte payloads and emits one BGZF
/// block per payload. `finish()` appends the EOF marker.
pub struct BgzfWriter<W> {
    inner: Option<W>,
    buf: Vec<u8>,
    opts: Options,
    /// Compressed bytes emitted so far.
    coffset: u64,
    finished: bool,
}

impl<W: Write> BgzfWriter<W> {
    /// Wraps `inner` with default compression options.
    pub fn new(inner: W) -> Self {
        Self::with_options(inner, Options::default())
    }

    /// Wraps `inner` with explicit options.
    pub fn with_options(inner: W, opts: Options) -> Self {
        BgzfWriter {
            inner: Some(inner),
            buf: Vec::with_capacity(MAX_PAYLOAD),
            opts,
            coffset: 0,
            finished: false,
        }
    }

    /// The virtual offset the next written byte will have.
    pub fn virtual_position(&self) -> VirtualOffset {
        VirtualOffset::new(self.coffset, self.buf.len() as u16)
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let block = compress_block(&self.buf, self.opts);
        self.inner.as_mut().expect("writer already finished").write_all(&block)?;
        self.coffset += block.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes pending data, writes the EOF marker, and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_block()?;
        let mut inner = self.inner.take().expect("writer already finished");
        inner.write_all(&EOF_MARKER)?;
        inner.flush()?;
        self.finished = true;
        Ok(inner)
    }
}

impl<W: Write> Write for BgzfWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = MAX_PAYLOAD - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == MAX_PAYLOAD {
                self.flush_block()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Note: flushing mid-stream ends the current block early, which is
        // legal BGZF (blocks may be any size up to the cap).
        self.flush_block()?;
        self.inner.as_mut().expect("writer already finished").flush()
    }
}

impl<W> Drop for BgzfWriter<W> {
    fn drop(&mut self) {
        debug_assert!(
            self.finished || self.buf.is_empty(),
            "BgzfWriter dropped with buffered data; call finish()"
        );
    }
}

/// Compresses `data` into a complete BGZF file (EOF marker included),
/// one block after another.
pub fn compress_sequential(data: &[u8], opts: Options) -> Vec<u8> {
    let mut out = Vec::new();
    for c in data.chunks(MAX_PAYLOAD.max(1)) {
        out.extend_from_slice(&compress_block(c, opts));
    }
    out.extend_from_slice(&EOF_MARKER);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{decompress_sequential, validate};

    #[test]
    fn writer_produces_valid_file() {
        let mut w = BgzfWriter::new(Vec::new());
        w.write_all(b"hello bgzf").unwrap();
        let file = w.finish().unwrap();
        assert!(validate(&file).unwrap());
        assert_eq!(decompress_sequential(&file).unwrap(), b"hello bgzf");
    }

    #[test]
    fn writer_spans_blocks() {
        let payload = vec![0x42u8; MAX_PAYLOAD * 3 + 17];
        let mut w = BgzfWriter::new(Vec::new());
        w.write_all(&payload).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(decompress_sequential(&file).unwrap(), payload);
    }

    #[test]
    fn virtual_positions_monotone() {
        let mut w = BgzfWriter::new(Vec::new());
        let mut last = w.virtual_position();
        for _ in 0..1000 {
            w.write_all(&[0u8; 997]).unwrap();
            let v = w.virtual_position();
            assert!(v >= last);
            last = v;
        }
        w.finish().unwrap();
    }

    #[test]
    fn empty_file_is_just_eof_marker() {
        let w = BgzfWriter::new(Vec::new());
        let file = w.finish().unwrap();
        assert_eq!(file, EOF_MARKER);
        assert!(validate(&file).unwrap());
    }

    #[test]
    fn mid_stream_flush_is_legal() {
        let mut w = BgzfWriter::new(Vec::new());
        w.write_all(b"part one|").unwrap();
        w.flush().unwrap();
        w.write_all(b"part two").unwrap();
        let file = w.finish().unwrap();
        assert_eq!(decompress_sequential(&file).unwrap(), b"part one|part two");
    }
}
