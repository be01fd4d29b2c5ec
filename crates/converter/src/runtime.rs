//! Shared converter runtime pieces: configuration, reports, header
//! scanning, and the per-rank buffered output writer.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ngs_cluster::{first_cause, RankTimes};
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
    /// Wall time of the conversion phase.
    pub convert_time: Duration,
    /// Simulated-cluster time of the conversion phase (DESIGN.md §4b):
    /// the serial sections' wall time plus the largest per-rank on-CPU
    /// time — what the phase would take with a core per rank.
    pub busy: Duration,
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

    /// End-to-end wall time (preprocess + convert).
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.convert_time
    }
}

/// The report of a call that started at `start` and ran one rank world,
/// timed in `times`; the error that ended the world wins
/// ([`first_cause`]).
pub(crate) fn collect_report(
    start: Instant,
    results: Vec<Result<(RankStats, PathBuf)>>,
    times: &RankTimes,
) -> Result<ConvertReport> {
    let mut report = ConvertReport::default();
    (report.per_rank, report.outputs) = first_cause(results)?.into_iter().unzip();
    report.convert_time = start.elapsed();
    report.busy = busy_time(start, [times]);
    Ok(report)
}

/// Busy time (DESIGN.md §4b) of a call that started at `start` and ran
/// the rank worlds timed in `worlds`: its wall time outside the worlds
/// plus each world's makespan.
pub(crate) fn busy_time<'a>(
    start: Instant,
    worlds: impl IntoIterator<Item = &'a RankTimes>,
) -> Duration {
    let (wall, makespan) = worlds
        .into_iter()
        .fold((Duration::ZERO, Duration::ZERO), |(w, m), t| (w + t.wall, m + t.makespan()));
    start.elapsed().saturating_sub(wall) + makespan
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

/// Write buffer of the single-file outputs (`ngs-tools`' merges,
/// `ngsp collate|sort|markdup`, `converter::baseline`): `BufWriter`'s
/// default, as when they opened their own files.
pub const SINGLE_FILE_BUFFER: usize = 8 << 10;

/// The one way a conversion creates an output file: a buffered writer
/// that counts the bytes it is handed.
///
/// The constructor *replaces* a regular file at the path instead of
/// truncating it: the file is unlinked first (`NotFound` is not an
/// error) and a new one is created with `O_EXCL`. On ext4, truncating a
/// file that holds data frees its blocks inside `open()` and, through
/// the replace-via-truncate heuristic, makes `close()` start writeback
/// of the new data; unlink-then-create pays neither, and the bytes
/// written are the same (DESIGN.md §19). So a hard link, a read-only
/// file or a symlink to a regular file at the path is replaced, not
/// written through: the hard link's other names and the symlink's
/// target keep their old bytes, and a symlink with no target is
/// replaced too. Anything else is opened, truncated, as before: a
/// device or FIFO, or a symlink to one (`--out /dev/null`,
/// `/dev/stdout`), is written to, and a directory is an error. If a
/// path is re-created between the unlink and the create, the create
/// fails rather than follow it. Output files carry no durability
/// promise (nothing is synced); durable artifacts go through
/// `ngs_bamx::repo::ShardRepo` instead.
pub struct RankOutput {
    writer: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
}

impl RankOutput {
    /// Replaces `dir/stem.partNNNN.ext` — the per-rank part file.
    pub fn create(dir: &Path, stem: &str, rank: usize, ext: &str, buffer: usize) -> Result<Self> {
        Self::replace(dir.join(format!("{stem}.part{rank:04}.{ext}")), buffer)
    }

    /// Replaces the file at `path` (see the type's documentation) with an
    /// empty one written through a `buffer`-byte buffer.
    pub fn replace(path: impl Into<PathBuf>, buffer: usize) -> Result<Self> {
        let path = path.into();
        // `metadata` follows symlinks: unlink only a regular file, or a
        // symlink with no target.
        let regular = match path.metadata() {
            Ok(meta) => meta.is_file(),
            Err(e) if e.kind() == ErrorKind::NotFound => true,
            Err(e) => return Err(e.into()),
        };
        let file = if regular {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
            std::fs::OpenOptions::new().write(true).create_new(true).open(&path)?
        } else {
            File::create(&path)?
        };
        Ok(RankOutput { writer: BufWriter::with_capacity(buffer, file), path, bytes: 0 })
    }

    /// Flushes and returns `(path, bytes_written)`.
    pub fn finish(mut self) -> Result<(PathBuf, u64)> {
        self.writer.flush()?;
        Ok((self.path, self.bytes))
    }
}

impl Write for RankOutput {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let n = self.writer.write(data)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn write_all(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(data)?;
        self.bytes += data.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Asserts a call's busy time is positive and within its wall time.
#[cfg(test)]
pub(crate) fn assert_busy_within_wall(busy: Duration, wall: Duration) {
    assert!(busy > Duration::ZERO && busy <= wall, "busy {busy:?}, wall {wall:?}");
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
