//! Shared converter runtime pieces: configuration, reports, header
//! scanning, and the per-rank buffered output writer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use ngs_formats::error::Result;
use ngs_formats::header::SamHeader;

use crate::partition::Variant;
use crate::source::ByteSource;

/// Converter runtime configuration.
#[derive(Debug, Clone)]
pub struct ConvertConfig {
    /// Number of ranks (the paper's "processors").
    pub ranks: usize,
    /// Read-buffer size per rank and pass over SAM text. Small enough
    /// that M ranks' buffers stay well under a shard's memory; larger
    /// reads are not faster (DESIGN.md §16).
    pub read_buffer: usize,
    /// Output write-buffer size per rank.
    pub write_buffer: usize,
    /// Boundary-adjustment variant for Algorithm 1.
    pub variant: Variant,
}

impl Default for ConvertConfig {
    fn default() -> Self {
        ConvertConfig {
            ranks: 4,
            read_buffer: 256 << 10,
            write_buffer: 1 << 20,
            variant: Variant::Forward,
        }
    }
}

impl ConvertConfig {
    /// A config with `ranks` ranks and defaults elsewhere.
    pub fn with_ranks(ranks: usize) -> Self {
        ConvertConfig { ranks, ..Default::default() }
    }
}

/// Per-rank statistics.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Input records parsed.
    pub records_in: u64,
    /// Target objects emitted (≤ records_in; some formats skip records).
    pub records_out: u64,
    /// Input bytes consumed.
    pub bytes_in: u64,
    /// Output bytes written.
    pub bytes_out: u64,
    /// Wall time of this rank's work loop.
    pub elapsed: Duration,
}

/// Whole-conversion report.
#[derive(Debug, Clone, Default)]
pub struct ConvertReport {
    /// Time spent in preprocessing (zero when not applicable).
    pub preprocess_time: Duration,
    /// Time spent partitioning.
    pub partition_time: Duration,
    /// Makespan of the parallel conversion phase.
    pub convert_time: Duration,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankStats>,
    /// Paths of the files produced.
    pub outputs: Vec<PathBuf>,
}

impl ConvertReport {
    /// Total records parsed across ranks.
    pub fn records_in(&self) -> u64 {
        self.per_rank.iter().map(|r| r.records_in).sum()
    }

    /// Total target objects emitted.
    pub fn records_out(&self) -> u64 {
        self.per_rank.iter().map(|r| r.records_out).sum()
    }

    /// Total output bytes.
    pub fn bytes_out(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_out).sum()
    }

    /// End-to-end time (preprocess + partition + convert).
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.partition_time + self.convert_time
    }
}

/// Scans the SAM header (`@`-prefixed lines) from the start of a source.
/// Returns the parsed header and the byte offset of the first alignment
/// line.
pub fn scan_sam_header<S: ByteSource + ?Sized>(source: &S) -> Result<(SamHeader, u64)> {
    let mut text = Vec::new();
    let mut pos = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let mut at_line_start = true;
    let mut in_header_line = false;
    'outer: while pos < source.len() {
        let n = source.read_at(pos, &mut buf)?;
        if n == 0 {
            break;
        }
        for (i, &b) in buf[..n].iter().enumerate() {
            if at_line_start {
                if b == b'@' {
                    in_header_line = true;
                } else {
                    pos += i as u64;
                    break 'outer;
                }
                at_line_start = false;
            }
            if in_header_line {
                text.push(b);
            }
            if b == b'\n' {
                at_line_start = true;
                in_header_line = false;
            }
        }
        if !at_line_start || in_header_line || buf[..n].last() != Some(&b'\n') {
            // Continue scanning from the next chunk; `pos` advances by n.
        }
        pos += n as u64;
        if pos >= source.len() {
            break;
        }
        // Loop continues; if the first byte of the next chunk starts a
        // non-header line we exit there.
    }
    let header = SamHeader::parse(&String::from_utf8_lossy(&text))?;
    Ok((header, pos.min(source.len())))
}

/// Per-rank output file with buffered writes and byte accounting.
pub struct RankOutput {
    writer: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
}

impl RankOutput {
    /// Creates `dir/stem.partNNNN.ext`.
    pub fn create(dir: &Path, stem: &str, rank: usize, ext: &str, buffer: usize) -> Result<Self> {
        let path = dir.join(format!("{stem}.part{rank:04}.{ext}"));
        let file = File::create(&path)?;
        Ok(RankOutput { writer: BufWriter::with_capacity(buffer, file), path, bytes: 0 })
    }

    /// Writes bytes.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.writer.write_all(data)?;
        self.bytes += data.len() as u64;
        Ok(())
    }

    /// Flushes and returns `(path, bytes_written)`.
    pub fn finish(mut self) -> Result<(PathBuf, u64)> {
        self.writer.flush()?;
        Ok((self.path, self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;

    #[test]
    fn scan_header_basic() {
        let text = b"@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 1);
        assert_eq!(offset, 31);
        assert_eq!(&text[offset as usize..offset as usize + 2], b"r1");
    }

    #[test]
    fn scan_headerless() {
        let text = b"r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 0);
        assert_eq!(offset, 0);
    }

    #[test]
    fn scan_header_only_file() {
        let text = b"@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 1);
        assert_eq!(offset, text.len() as u64);
    }

    #[test]
    fn scan_header_spanning_chunks() {
        // Header longer than the 64 KiB scan chunk.
        let mut text = String::from("@HD\tVN:1.6\n");
        for i in 0..3000 {
            text.push_str(&format!("@SQ\tSN:contig{i}\tLN:1000\n"));
        }
        let body_at = text.len() as u64;
        text.push_str("r1\t0\tcontig0\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n");
        let src = MemSource::new(text.into_bytes());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 3000);
        assert_eq!(offset, body_at);
    }

    #[test]
    fn report_aggregation() {
        let mut report = ConvertReport::default();
        for rank in 0..3 {
            report.per_rank.push(RankStats {
                rank,
                records_in: 10,
                records_out: 8,
                bytes_in: 100,
                bytes_out: 80,
                elapsed: Duration::from_millis(5),
            });
        }
        assert_eq!(report.records_in(), 30);
        assert_eq!(report.records_out(), 24);
        assert_eq!(report.bytes_out(), 240);
    }

    #[test]
    fn rank_output_accounting() {
        let dir = tempfile::tempdir().unwrap();
        let mut out = RankOutput::create(dir.path(), "x", 3, "bed", 4096).unwrap();
        out.write_all(b"hello\n").unwrap();
        let (path, bytes) = out.finish().unwrap();
        assert_eq!(bytes, 6);
        assert!(path.to_string_lossy().contains("x.part0003.bed"));
        assert_eq!(std::fs::read(path).unwrap(), b"hello\n");
    }
}
