//! Byte sources: uniform positioned-read access over files and in-memory
//! buffers, so the partitioner and converters run identically on both.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use ngs_formats::error::Result;

/// Positioned (thread-safe, `&self`) byte access.
pub trait ByteSource: Send + Sync {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (0 at/after EOF).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// True for zero-length sources.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads exactly `len` bytes at `offset`.
    fn read_exact_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            let n = self.read_at(offset + filled as u64, &mut buf[filled..])?;
            if n == 0 {
                return Err(ngs_formats::Error::InvalidRecord(
                    "unexpected EOF in byte source".into(),
                ));
            }
            filled += n;
        }
        Ok(buf)
    }
}

/// An in-memory byte source.
#[derive(Debug, Clone)]
pub struct MemSource(pub Arc<Vec<u8>>);

impl MemSource {
    /// Wraps a buffer.
    pub fn new(data: Vec<u8>) -> Self {
        MemSource(Arc::new(data))
    }
}

impl ByteSource for MemSource {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let data = &self.0;
        if offset >= data.len() as u64 {
            return Ok(0);
        }
        let start = offset as usize;
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }
}

/// A file-backed byte source using `pread` (safe for concurrent ranks).
pub struct FileSource {
    file: File,
    len: u64,
}

impl FileSource {
    /// Opens `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileSource { file, len })
    }
}

impl ByteSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        Ok(self.file.read_at(buf, offset)?)
    }
}

/// A source whose reads fail with `fail()` past three quarters of its
/// bytes: a disk that dies part-way through a file.
#[cfg(test)]
pub(crate) struct FailsPastThreeQuarters(MemSource, fn() -> ngs_formats::error::Error);

#[cfg(test)]
impl ByteSource for FailsPastThreeQuarters {
    fn len(&self) -> u64 {
        self.0.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if (offset + buf.len() as u64).min(self.len()) > self.len() / 4 * 3 {
            return Err((self.1)());
        }
        self.0.read_at(offset, buf)
    }
}

/// Runs `call` at 4 ranks with each Algorithm 1 variant over `sam`
/// behind a [`FailsPastThreeQuarters`], failing with a transient and
/// with a structural error, and asserts that it returns that error
/// itself — not a peer's "rank N disconnected" — instead of hanging.
#[cfg(test)]
pub(crate) fn assert_a_failed_read_ends_the_world(
    sam: Vec<u8>,
    call: fn(&FailsPastThreeQuarters, crate::ConvertConfig, &Path) -> Result<()>,
) {
    use ngs_formats::error::Error;
    let transient = || Error::Io(std::io::Error::other("injected"));
    let structural = || Error::InvalidRecord("injected".into());
    let sam = Arc::new(sam);
    for variant in [crate::Variant::Forward, crate::Variant::Backward] {
        for fail in [transient, structural] {
            let source = FailsPastThreeQuarters(MemSource(Arc::clone(&sam)), fail);
            let config = crate::ConvertConfig { variant, ..crate::ConvertConfig::with_ranks(4) };
            let (done, finished) = std::sync::mpsc::channel();
            let caller = std::thread::spawn(move || {
                let dir = tempfile::tempdir().unwrap();
                done.send(call(&source, config, dir.path())).unwrap();
            });
            let got = finished.recv_timeout(std::time::Duration::from_secs(60));
            let got = got.unwrap_or_else(|_| panic!("{variant:?}: the world hung")).unwrap_err();
            caller.join().unwrap();
            assert_eq!(got.to_string(), fail().to_string(), "{variant:?}");
            assert_eq!(got.is_transient(), fail().is_transient(), "{variant:?}: {got}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    #[test]
    fn mem_source_reads() {
        let s = MemSource::new(b"hello world".to_vec());
        assert_eq!(s.len(), 11);
        let mut buf = [0u8; 5];
        assert_eq!(s.read_at(6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        assert_eq!(s.read_at(11, &mut buf).unwrap(), 0);
        assert_eq!(s.read_at(9, &mut buf).unwrap(), 2);
    }

    #[test]
    fn file_source_reads() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("f.txt");
        std::fs::write(&path, b"0123456789").unwrap();
        let s = FileSource::open(&path).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.read_exact_at(3, 4).unwrap(), b"3456");
    }

    #[test]
    fn read_exact_past_eof_errors() {
        let s = MemSource::new(b"abc".to_vec());
        assert!(s.read_exact_at(1, 5).is_err());
    }
}
