//! The warm-up oracle: every output of every distinct operation is
//! compared byte-for-byte with the sequential reference before anything
//! is timed.
//!
//! Both sides are streamed through small fixed buffers: the oracle runs
//! in the measuring process, and holding a 17 MB output beside its
//! reference would make `peak_rss_mb` a measurement of the oracle.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{Baix, BamxFile};
use ngs_formats::sam;
use ngs_query::QueryOutcome;

use crate::fixture::BATCH_INPUT;
use crate::ops::{Ctx, Detail, Done};
use crate::BenchResult;

/// Bytes compared per step, and records decoded per step.
const CHUNK: usize = 64 * 1024;
const RECORD_BATCH: u64 = 1_024;

/// A reference file that produced bytes are held against, in order.
struct Reference {
    reader: BufReader<File>,
    scratch: Vec<u8>,
    offset: u64,
}

impl Reference {
    fn open(path: &Path) -> BenchResult<Self> {
        Ok(Reference {
            reader: BufReader::with_capacity(CHUNK, File::open(path)?),
            scratch: vec![0; CHUNK],
            offset: 0,
        })
    }

    /// Skips the `@` header lines of a SAM text reference.
    fn skip_sam_header(&mut self) -> BenchResult<()> {
        let mut line = Vec::new();
        while self.reader.fill_buf()?.first() == Some(&b'@') {
            line.clear();
            self.reader.read_until(b'\n', &mut line)?;
        }
        Ok(())
    }

    /// The next `produced.len()` reference bytes must equal `produced`.
    fn feed(&mut self, produced: &[u8]) -> BenchResult<()> {
        for piece in produced.chunks(CHUNK) {
            let want = &mut self.scratch[..piece.len()];
            if self.reader.read_exact(want).is_err() || want != piece {
                return Err(format!(
                    "output differs from the sequential reference within {} bytes of offset {}",
                    piece.len(),
                    self.offset
                )
                .into());
            }
            self.offset += piece.len() as u64;
        }
        Ok(())
    }

    /// Feeds a produced file.
    fn feed_file(&mut self, path: &Path) -> BenchResult<()> {
        let mut file = File::open(path)?;
        let mut piece = vec![0; CHUNK];
        loop {
            let n = file.read(&mut piece)?;
            if n == 0 {
                return Ok(());
            }
            self.feed(&piece[..n])?;
        }
    }

    /// The reference must be used up.
    fn finish(mut self) -> BenchResult<()> {
        if self.reader.fill_buf()?.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "output ends at offset {}, the reference goes on",
                self.offset
            )
            .into())
        }
    }
}

/// Checks the outputs of distinct operation `id` against its reference.
/// `Err` carries what differed.
pub fn verify(ctx: &Ctx, id: usize, done: &Done) -> BenchResult<()> {
    let compared = match &done.detail {
        // Shards, concatenated in rank order, decode to the input records:
        // re-emitted as SAM text they equal the body of the SAM input.
        Detail::Published(dir, stems) => {
            let mut reference = Reference::open(&ctx.fx.sam(BATCH_INPUT))?;
            reference.skip_sam_header()?;
            let repo = ShardRepo::open(dir.clone())?;
            let mut text = Vec::new();
            for stem in stems {
                repo.verify_artifact(&format!("{stem}.bamx"))?;
                repo.verify_artifact(&format!("{stem}.baix"))?;
                let bamx = BamxFile::open(dir.join(format!("{stem}.bamx")))?;
                let baix = Baix::load(dir.join(format!("{stem}.baix")))?;
                if baix.len() as u64 != bamx.len() {
                    return Err(format!("BAIX of {stem} indexes {} records", baix.len()).into());
                }
                for lo in (0..bamx.len()).step_by(RECORD_BATCH as usize) {
                    text.clear();
                    for record in bamx.read_range(lo, (lo + RECORD_BATCH).min(bamx.len()))? {
                        sam::write_record(&record, &mut text);
                        text.push(b'\n');
                    }
                    reference.feed(&text)?;
                }
            }
            reference.finish()
        }
        // Rank parts, concatenated, equal the one-rank output.
        Detail::Report(report) => {
            let mut reference = Reference::open(&ctx.fx.reference(id))?;
            report
                .outputs
                .iter()
                .try_for_each(|part| reference.feed_file(part))?;
            reference.finish()
        }
        // A served conversion equals one-shot one-rank `convert_partial`;
        // served coverage equals a histogram over the BAM-decoded records.
        Detail::Served(QueryOutcome::Converted { output, .. }) => {
            let mut reference = Reference::open(&ctx.fx.reference(id))?;
            reference.feed_file(output)?;
            reference.finish()
        }
        Detail::Served(QueryOutcome::Coverage { bins, .. }) => {
            let mut reference = Reference::open(&ctx.fx.reference(id))?;
            let mut piece = Vec::with_capacity(CHUNK);
            for batch in bins.chunks(CHUNK / std::mem::size_of::<f64>()) {
                piece.clear();
                batch
                    .iter()
                    .for_each(|b| piece.extend_from_slice(&b.to_le_bytes()));
                reference.feed(&piece)?;
            }
            reference.finish()
        }
    };
    compared.map_err(|e| format!("{} (op {id}): {e}", ctx.ops[id].label()))?;
    if done.counts.bytes_out == 0 || done.counts.records_in == 0 {
        return Err(format!(
            "{} (op {id}): empty operation {:?}",
            ctx.ops[id].label(),
            done.counts
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_catches_a_flipped_byte_a_short_and_a_long_output() {
        let dir = crate::workdir::scratch("oracle-test");
        let path = dir.join("ref.sam");
        let body: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut file = b"@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:9\n".to_vec();
        file.extend(&body);
        std::fs::write(&path, &file).unwrap();
        let open = || {
            let mut r = Reference::open(&path).unwrap();
            r.skip_sam_header().unwrap();
            r
        };

        let mut same = open();
        same.feed(&body[..70_000]).unwrap();
        same.feed(&body[70_000..]).unwrap();
        same.finish().unwrap();

        let mut flipped = body.clone();
        flipped[150_000] ^= 1;
        assert!(open().feed(&flipped).is_err());

        let mut short = open();
        short.feed(&body[..body.len() - 1]).unwrap();
        assert!(short.finish().is_err());

        let mut long = body.clone();
        long.push(0);
        assert!(open().feed(&long).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
