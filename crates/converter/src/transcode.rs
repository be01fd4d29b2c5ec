//! BAM preprocessing, pass 2 (DESIGN.md §16): the inflated record stream
//! split into batches, each batch transcoded to BAMX on one of `workers`
//! threads, and the batches appended to the shard in stream order.
//!
//! ```text
//!  BamReader ──► splitter ──► workers × n ──► ordered sink ──► AnyBamxWriter
//!  (in order)    block_size    view::transcode   (this thread)
//!                prefixes      + BatchEncoder:
//!                only          v1 records, or one
//!                              v2 block, deflated
//! ```
//!
//! A batch is one v2 block's worth of records (the same count on v1),
//! copied as stored into a recycled buffer. At most `workers + 1`
//! batches exist, so memory is bounded whatever the input size, and once
//! their buffers have grown nothing is allocated per record. The error
//! reported is the earliest in stream order — what the sequential path
//! would meet first: a read error travels in the batch it ended, after
//! that batch's records. Threads are scoped — `ngs-pipeline`'s ordered
//! fan-out is out of reach, since that crate depends on this one — so
//! every one is joined however the pass ends.

use std::io::{Read, Write};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, PoisonError};

use ngs_bamx::{AnyBamxWriter, BatchEncoder, EncodedBatch};
use ngs_formats::bam::{view, BamReader};
use ngs_formats::error::{Error, Result};
use ngs_formats::fields::{FieldsScratch, RefIds};
use ngs_obs::Helper;

/// Records of the stream, as stored, and what a worker made of them.
#[derive(Default)]
struct Batch {
    /// Position in the stream.
    seq: u64,
    /// Records as the stream stores them: `block_size`, then the body.
    raw: Vec<u8>,
    /// The read error that ended the stream right after these records.
    read_error: Option<Error>,
    encoded: EncodedBatch,
    outcome: Option<Result<()>>,
}

enum Done {
    Encoded(Box<Batch>),
    /// A worker died (panicked) holding a batch that will never arrive.
    Lost,
}

/// Transcodes every remaining record of `reader` into `writer` on
/// `workers` threads, plus this one (the ordered sink) and a splitter.
pub(crate) fn transcode_into<S: Read + Send, W: Write>(
    reader: &mut BamReader<S>,
    writer: &mut AnyBamxWriter<W>,
    workers: usize,
) -> Result<()> {
    let workers = workers.max(1);
    let refs = RefIds::new(reader.header());
    let per_batch = writer.records_per_batch();
    let (free_tx, free_rx) = mpsc::channel::<Box<Batch>>();
    let (work_tx, work_rx) = mpsc::channel::<Box<Batch>>();
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    for _ in 0..=workers {
        free_tx
            .send(Box::default())
            .expect("the splitter's end of the channel is held here");
    }
    std::thread::scope(|scope| {
        let mut threads = vec![Helper::spawn_scoped(scope, move || {
            split(reader, per_batch, &free_rx, &work_tx)
        })];
        for _ in 0..workers {
            let (done_tx, work_rx, refs) = (done_tx.clone(), &work_rx, &refs);
            let encoder = writer.batch_encoder();
            threads.push(Helper::spawn_scoped(scope, move || {
                encode_batches(work_rx, &done_tx, refs, encoder)
            }));
        }
        drop(done_tx);
        let appended = sink(writer, &free_tx, &done_rx);
        // Early or not, the splitter and the workers see these go at
        // their next hand-off and stop. Joined here, not by the scope,
        // which only waits for them to finish running, not to exit.
        drop((free_tx, done_rx));
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        appended
    })
}

/// The splitter: fills free batches with `per_batch` records each, as
/// stored — only the `block_size` prefixes are read — and hands them to
/// the workers in stream order.
fn split<S: Read>(
    reader: &mut BamReader<S>,
    per_batch: usize,
    free: &Receiver<Box<Batch>>,
    work: &Sender<Box<Batch>>,
) {
    for seq in 0.. {
        let mut batch = match free.try_recv() {
            Ok(batch) => batch,
            Err(TryRecvError::Empty) => match free.recv() {
                Ok(batch) => {
                    obs::split_stall();
                    batch
                }
                Err(_) => return,
            },
            Err(TryRecvError::Disconnected) => return,
        };
        batch.seq = seq;
        // The buffer the batch's last output went out in.
        batch.raw = batch.encoded.take_buffer();
        let mut records = 0;
        let mut at_end = false;
        while records < per_batch && !at_end {
            match reader.append_record(&mut batch.raw) {
                Ok(Some(_)) => records += 1,
                Ok(None) => at_end = true,
                Err(e) => {
                    batch.read_error = Some(e);
                    at_end = true;
                }
            }
        }
        if (records > 0 || batch.read_error.is_some()) && work.send(batch).is_err() {
            return;
        }
        if at_end {
            return;
        }
    }
}

/// A worker: transcodes each batch it takes, through one encoder and one
/// scratch reused for all of them.
fn encode_batches(
    work: &Mutex<Receiver<Box<Batch>>>,
    done: &Sender<Done>,
    refs: &RefIds,
    mut encoder: BatchEncoder,
) {
    let _lost = LostGuard(done);
    let mut scratch = FieldsScratch::default();
    loop {
        let next = work.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut batch) = next else { return };
        encoder.start(&mut batch.encoded);
        let pushed = push_records(
            &batch.raw,
            refs,
            &mut scratch,
            &mut encoder,
            &mut batch.encoded,
        );
        let sealed = encoder.finish(&mut batch.encoded, &mut batch.raw);
        let read = batch.read_error.take().map_or(Ok(()), Err);
        batch.outcome = Some(pushed.and(sealed).and(read));
        if done.send(Done::Encoded(batch)).is_err() {
            return;
        }
    }
}

fn push_records(
    mut raw: &[u8],
    refs: &RefIds,
    scratch: &mut FieldsScratch,
    encoder: &mut BatchEncoder,
    out: &mut EncodedBatch,
) -> Result<()> {
    while let Some((size, rest)) = raw.split_first_chunk::<4>() {
        let (body, rest) = usize::try_from(u32::from_le_bytes(*size))
            .ok()
            .and_then(|n| rest.split_at_checked(n))
            .ok_or_else(|| Error::InvalidBam("batch split inside a record".into()))?;
        encoder.push(&view::transcode(body, refs, scratch)?, out)?;
        raw = rest;
    }
    Ok(())
}

/// The ordered sink: appends batches to the writer in stream order and
/// returns their buffers to the splitter. Ends at the first error in
/// stream order, or when every batch has been appended.
fn sink<W: Write>(
    writer: &mut AnyBamxWriter<W>,
    free: &Sender<Box<Batch>>,
    done: &Receiver<Done>,
) -> Result<()> {
    let mut next = 0u64;
    let mut early: Vec<Box<Batch>> = Vec::new();
    loop {
        if let Some(i) = early.iter().position(|b| b.seq == next) {
            let mut batch = early.swap_remove(i);
            batch.outcome.take().unwrap_or_else(|| Err(lost()))?;
            writer.append(&batch.encoded)?;
            obs::batch();
            next += 1;
            // The splitter may be done; then the buffer is simply dropped.
            let _ = free.send(batch);
            continue;
        }
        let arrived = match done.try_recv() {
            Ok(done) => done,
            Err(TryRecvError::Empty) => match done.recv() {
                Ok(done) => {
                    obs::sink_stall();
                    done
                }
                Err(_) => break,
            },
            Err(TryRecvError::Disconnected) => break,
        };
        match arrived {
            Done::Encoded(batch) => early.push(batch),
            Done::Lost => return Err(lost()),
        }
    }
    // Every worker has exited: the stream is complete unless a batch
    // went missing.
    if early.is_empty() {
        Ok(())
    } else {
        Err(lost())
    }
}

fn lost() -> Error {
    Error::InvalidRecord("a preprocessing worker exited without its batch".into())
}

/// Tells the sink when a worker unwinds, so it stops waiting for the
/// batch that worker held; joining the worker then re-raises the panic.
struct LostGuard<'a>(&'a Sender<Done>);

impl Drop for LostGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Done::Lost);
        }
    }
}

/// Pass-2 counters on the global registry, gated on
/// `ngs_obs::enabled()`; no clock is read. Together with
/// `bgzf.readahead_consumer_stalls` (inflate bounds the pass) they say
/// which stage bounded it: sink stalls mean the workers did, split
/// stalls mean the sink and workers did.
mod obs {
    use std::sync::{Arc, OnceLock};

    use ngs_obs::Counter;

    struct Counters {
        batches: Arc<Counter>,
        sink_stalls: Arc<Counter>,
        split_stalls: Arc<Counter>,
    }

    fn counters() -> Option<&'static Counters> {
        if !ngs_obs::enabled() {
            return None;
        }
        static COUNTERS: OnceLock<Counters> = OnceLock::new();
        Some(COUNTERS.get_or_init(|| {
            let r = ngs_obs::global();
            Counters {
                batches: r.counter("converter.preprocess_batches"),
                sink_stalls: r.counter("converter.preprocess_sink_stalls"),
                split_stalls: r.counter("converter.preprocess_split_stalls"),
            }
        }))
    }

    /// A batch was appended.
    pub(super) fn batch() {
        if let Some(c) = counters() {
            c.batches.inc();
        }
    }

    /// The sink waited for the next batch in order.
    pub(super) fn sink_stall() {
        if let Some(c) = counters() {
            c.sink_stalls.inc();
        }
    }

    /// The splitter waited for a free batch buffer.
    pub(super) fn split_stall() {
        if let Some(c) = counters() {
            c.split_stalls.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_bamx::{BamxCompression, BamxLayout, BamxVersion};
    use ngs_formats::bam;
    use ngs_simgen::{Dataset, DatasetSpec};

    /// An inflated BAM stream whose read fails at byte `fail_at`.
    struct FailingAt {
        data: Vec<u8>,
        pos: usize,
        fail_at: usize,
    }

    impl Read for FailingAt {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.fail_at {
                return Err(std::io::Error::other("injected read failure"));
            }
            let n = buf
                .len()
                .min(self.fail_at - self.pos)
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Transcodes `ds` with record `bad` given CIGAR op 15 and the
    /// stream failing at the start of record `fail`.
    fn run(ds: &Dataset, bad: Option<usize>, fail: usize, version: BamxVersion) -> Result<()> {
        let header = ds.header();
        let mut data = Vec::new();
        bam::encode_header(&header, &mut data);
        let mut fail_at = usize::MAX;
        for (i, record) in ds.records.iter().enumerate() {
            if i == fail {
                fail_at = data.len() + 10;
            }
            let body = data.len() + 4;
            bam::encode_record(record, &header, &mut data).unwrap();
            if Some(i) == bad {
                let l_read_name = data[body + 8] as usize;
                data[body + 32 + l_read_name] |= 0x0F;
            }
        }
        let mut reader = BamReader::from_inflated(FailingAt {
            data,
            pos: 0,
            fail_at,
        })
        .unwrap();
        let layout = BamxLayout::compute(&ds.records).unwrap();
        let mut writer =
            AnyBamxWriter::new(version, Vec::new(), header, layout, BamxCompression::Plain)
                .unwrap();
        transcode_into(&mut reader, &mut writer, 2)
    }

    #[test]
    fn the_first_error_in_stream_order_wins() {
        let ds = Dataset::generate(&DatasetSpec {
            n_records: 5_000,
            seed: 9,
            ..Default::default()
        });
        let bad = 1_500
            + ds.records[1_500..]
                .iter()
                .position(|r| !r.cigar.is_empty())
                .unwrap();
        for version in [BamxVersion::V1, BamxVersion::V2] {
            // A bad record in batch 1, the stream failing in batch 4.
            let err = run(&ds, Some(bad), 4_200, version).unwrap_err();
            assert!(matches!(err, Error::InvalidCigar(_)), "{version:?}: {err}");
            // The read failure alone surfaces as itself, transient.
            let err = run(&ds, None, 4_200, version).unwrap_err();
            assert!(
                matches!(err, Error::Io(_)) && err.is_transient(),
                "{version:?}: {err}"
            );
            // A failure in batch 0 comes before a bad record in batch 1.
            let err = run(&ds, Some(bad), 700, version).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{version:?}: {err}");
            run(&ds, None, usize::MAX, version).unwrap();
        }
    }
}
