//! Member-parallel BGZF read-ahead for sequential whole-file reads.
//!
//! BGZF members are self-delimiting (`BSIZE`), so finding them needs no
//! inflation. `workers` *inflater* threads take turns at the source: one
//! at a time (the source lock) reads the next member's bytes off it —
//! so members are walked, and numbered, strictly in file order — then
//! lets go of the source and decompresses its member with its own
//! [`Inflater`] while the next thread reads. The consumer — the thread
//! that owns the [`ReadAheadReader`] and calls [`Read::read`] — receives
//! the payloads in member order.
//!
//! ```text
//!  source ──(one at a time, in file order)──► inflater × workers ──► slots ──► read()
//!            header, BSIZE, body               decompress_block_into:   ordered by
//!            (`read_member`)                   inflate_exact, CRC, ISIZE  member
//! ```
//!
//! At most `workers + 2` members, and never more than [`MAX_WINDOW`], are
//! in flight — being read, being inflated, or inflated and not yet taken
//! — so memory is bounded by a constant (64 KiB of payload per member in
//! flight, one compressed member per inflater, buffers recycled)
//! whatever the input size. The consumer sees exactly the bytes
//! [`BgzfReader`](crate::BgzfReader) would deliver and, on a bad member,
//! the same error after every earlier byte: each member goes through the
//! same [`read_member`] and [`decompress_block_into`] calls. The first
//! error ends the stream; later reads fail too.
//!
//! Dropping the reader — finished or not — stops the helpers (they take
//! no new member, and one waiting on a full window is woken) and joins
//! them: nothing is left running behind an early return.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::block::decompress_block_into;
use crate::error::{Error, Result};
use crate::inflate::Inflater;
use crate::reader::read_member;

/// Most members ever in flight — read but not yet taken by the consumer.
/// A reader's own window is `workers + 2` (one member per inflater and
/// two inflated ahead of the consumer), and the inflater count is capped
/// so that never exceeds this; a wider window buys no speed and costs
/// cache and memory.
pub const MAX_WINDOW: usize = 16;

/// A sequential [`Read`] over the inflated bytes of a BGZF stream whose
/// members are inflated ahead of the consumer on helper threads. For
/// seeks and virtual offsets use [`BgzfReader`](crate::BgzfReader).
pub struct ReadAheadReader {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// Payload of the member being consumed, and the read cursor in it.
    payload: Vec<u8>,
    cursor: usize,
    /// Members taken so far — the sequence number of the next one.
    taken: u64,
    /// Set once an error has been delivered: the stream is over.
    failed: Option<io::ErrorKind>,
}

struct Shared {
    /// Members in flight at most, for this reader.
    window: u64,
    /// The compressed source. Whoever holds it walks the next member;
    /// taken *before* `state`, never the other way round.
    source: Mutex<Box<dyn Read + Send>>,
    state: Mutex<State>,
    /// A slot was filled, or the end is known (the consumer waits).
    filled: Condvar,
    /// The consumer took a member (an inflater waits for window space).
    space: Condvar,
}

struct State {
    /// Outcome of member `seq` at `seq % window`, until the consumer
    /// takes it.
    slots: Vec<Option<Result<Vec<u8>>>>,
    /// Members handed out to inflaters so far.
    issued: u64,
    /// Members the consumer has taken.
    taken: u64,
    /// Set when the walk stops at the end of input or on a read error:
    /// the number of members handed out, the failed one included.
    end: Option<u64>,
    /// No new work: the consumer is gone or a member failed to inflate.
    halt: bool,
    /// Inflater threads still running.
    live: usize,
    spare_payloads: Vec<Vec<u8>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        on.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.window) as usize
    }

    /// Stops the inflaters taking new members and wakes every waiter.
    fn halt(&self, state: &mut State) {
        state.halt = true;
        self.filled.notify_all();
        self.space.notify_all();
    }
}

/// Marks an inflater's exit, however it exits, so a consumer waiting on
/// a slot that will now never fill gets an error instead of a hang.
struct Exit<'a>(&'a Shared);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        self.0.lock().live -= 1;
        self.0.filled.notify_all();
    }
}

impl ReadAheadReader {
    /// Starts reading `inner` — positioned at a member boundary — ahead
    /// of the consumer on `workers` inflater threads (at least one, at
    /// most `MAX_WINDOW - 2`).
    pub fn new<R: Read + Send + 'static>(inner: R, workers: usize) -> Self {
        // Inflaters beyond the window could never all hold a member.
        let workers = workers.clamp(1, MAX_WINDOW - 2);
        let window = workers + 2;
        let shared = Arc::new(Shared {
            window: window as u64,
            source: Mutex::new(Box::new(inner)),
            state: Mutex::new(State {
                slots: (0..window).map(|_| None).collect(),
                issued: 0,
                taken: 0,
                end: None,
                halt: false,
                live: workers,
                spare_payloads: Vec::new(),
            }),
            filled: Condvar::new(),
            space: Condvar::new(),
        });
        let helpers = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || inflate_members(&shared))
            })
            .collect();
        ReadAheadReader { shared, helpers, payload: Vec::new(), cursor: 0, taken: 0, failed: None }
    }

    /// Takes the next member's payload. Returns false at end of stream.
    fn next_member(&mut self) -> Result<bool> {
        let mut state = self.shared.lock();
        let mut stalled = false;
        let outcome = loop {
            if let Some(outcome) = state.slots[self.shared.slot(self.taken)].take() {
                break outcome;
            }
            if state.end == Some(self.taken) {
                return Ok(false);
            }
            if state.live == 0 {
                return Err(Error::Io(io::Error::other("BGZF read-ahead helpers exited early")));
            }
            stalled = true;
            state = self.shared.wait(&self.shared.filled, state);
        };
        self.taken += 1;
        state.taken = self.taken;
        self.shared.space.notify_one();
        let next = outcome?;
        let bytes = next.len();
        state.spare_payloads.push(std::mem::replace(&mut self.payload, next));
        self.cursor = 0;
        drop(state);
        crate::obs::record_read_ahead(bytes, stalled);
        Ok(true)
    }
}

/// An inflater: under the source lock, waits for window space, takes the
/// next sequence number and reads that member; then, the source released
/// to the next thread, decompresses it with its own [`Inflater`] and
/// files the outcome under the member's number. A read or framing error
/// takes the failed member's place in the order and ends the walk; a
/// member that fails to inflate stops all new work — every member before
/// it is already with an inflater, so each still reaches the consumer
/// first.
fn inflate_members(shared: &Shared) {
    let _exit = Exit(shared);
    let mut inflater = Inflater::new();
    let mut member = Vec::new();
    loop {
        let mut source = shared.source.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = shared.lock();
        let mut stalled = false;
        while !state.halt && state.end.is_none() && state.issued - state.taken >= shared.window {
            stalled = true;
            state = shared.wait(&shared.space, state);
        }
        if state.halt || state.end.is_some() {
            return;
        }
        let seq = state.issued;
        state.issued += 1;
        let mut payload = state.spare_payloads.pop().unwrap_or_default();
        drop(state);
        if stalled {
            crate::obs::record_producer_stall();
        }

        let outcome = match read_member(&mut *source, &mut member) {
            Ok(true) => {
                drop(source);
                payload.clear();
                decompress_block_into(&member, &mut inflater, &mut payload).map(|_| payload)
            }
            // The source lock is still held: nobody has been handed a
            // later number, so `seq` is where the stream ends.
            Ok(false) => {
                let mut state = shared.lock();
                state.issued = seq;
                state.end = Some(seq);
                state.spare_payloads.push(payload);
                shared.filled.notify_all();
                return;
            }
            Err(e) => {
                let mut state = shared.lock();
                state.end = Some(seq + 1);
                state.slots[shared.slot(seq)] = Some(Err(e));
                shared.filled.notify_all();
                return;
            }
        };

        let mut state = shared.lock();
        if outcome.is_err() {
            shared.halt(&mut state);
        }
        state.slots[shared.slot(seq)] = Some(outcome);
        shared.filled.notify_all();
    }
}

impl Read for ReadAheadReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(kind) = self.failed {
            return Err(io::Error::new(kind, "BGZF read-ahead stream already failed"));
        }
        // Empty members (the EOF marker, or an interior one) are skipped.
        while self.cursor == self.payload.len() {
            match self.next_member() {
                Ok(true) => {}
                Ok(false) => return Ok(0),
                Err(e) => {
                    let e = io::Error::from(e);
                    self.failed = Some(e.kind());
                    return Err(e);
                }
            }
        }
        let avail = &self.payload[self.cursor..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.cursor += n;
        Ok(n)
    }
}

impl Drop for ReadAheadReader {
    fn drop(&mut self) {
        self.shared.halt(&mut self.shared.lock());
        for helper in self.helpers.drain(..) {
            // An inflater that panicked has already marked its exit.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::block::{compress_block, EOF_MARKER};
    use crate::deflate::Options;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// `n` members of 100 bytes each (member `i` is all `i as u8`), plus
    /// the EOF marker.
    fn members(n: usize) -> Vec<u8> {
        let mut file = Vec::new();
        for i in 0..n {
            file.extend_from_slice(&compress_block(&[i as u8; 100], Options::default()));
        }
        file.extend_from_slice(&EOF_MARKER);
        file
    }

    #[test]
    fn delivers_members_in_order_at_every_worker_count() {
        let file = members(3 * MAX_WINDOW);
        let expected: Vec<u8> = (0..3 * MAX_WINDOW).flat_map(|i| [i as u8; 100]).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let mut out = Vec::new();
            ReadAheadReader::new(Cursor::new(file.clone()), workers).read_to_end(&mut out).unwrap();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_marker_only_streams_read_empty() {
        for file in [Vec::new(), EOF_MARKER.to_vec()] {
            let mut out = Vec::new();
            ReadAheadReader::new(Cursor::new(file), 2).read_to_end(&mut out).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn corrupt_member_fails_after_every_earlier_byte_and_stays_failed() {
        let mut file = members(40);
        // Flip a payload-CRC bit of member 25: members are equal-sized.
        let member_len = compress_block(&[0u8; 100], Options::default()).len();
        file[26 * member_len - 6] ^= 0x10;
        let mut reader = ReadAheadReader::new(Cursor::new(file), 3);
        let mut out = Vec::new();
        let err = reader.read_to_end(&mut out).unwrap_err();
        assert_eq!(out.len(), 25 * 100, "every member before the bad one arrives");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let codec = err.downcast::<Error>().expect("the codec's own error travels inside");
        assert!(matches!(codec, Error::ChecksumMismatch { .. }), "{codec}");
        // The stream is over: no later member leaks out behind the error.
        let again = reader.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::InvalidData);
    }

    /// A source that fails with an I/O error once `good` bytes are out.
    struct FailsAfter {
        data: Cursor<Vec<u8>>,
        good: u64,
    }

    impl Read for FailsAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.good.saturating_sub(self.data.position()) as usize;
            if left == 0 {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "link dropped"));
            }
            let n = buf.len().min(left);
            self.data.read(&mut buf[..n])
        }
    }

    #[test]
    fn read_errors_stay_io_errors_and_queue_behind_earlier_members() {
        let file = members(20);
        let member_len = compress_block(&[0u8; 100], Options::default()).len() as u64;
        let source = FailsAfter { data: Cursor::new(file), good: 10 * member_len + 7 };
        let mut out = Vec::new();
        let err = ReadAheadReader::new(source, 2).read_to_end(&mut out).unwrap_err();
        assert_eq!(out.len(), 10 * 100);
        // Not wrapped as InvalidData: transient stays distinguishable.
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    /// A source that counts reads and reports being dropped.
    struct Watched {
        data: Cursor<Vec<u8>>,
        reads: Arc<AtomicUsize>,
        dropped: Arc<AtomicBool>,
    }

    impl Read for Watched {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.data.read(buf)
        }
    }

    impl Drop for Watched {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_mid_stream_joins_the_helpers_and_reads_no_further() {
        let reads = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicBool::new(false));
        let source = Watched {
            data: Cursor::new(members(500)),
            reads: reads.clone(),
            dropped: dropped.clone(),
        };
        let mut reader = ReadAheadReader::new(source, 2);
        let mut first = [0u8; 150];
        reader.read_exact(&mut first).unwrap();
        drop(reader);
        // The source lives in state every helper shares: it is gone only
        // once each of them has exited, and drop() joined them all.
        assert!(dropped.load(Ordering::SeqCst), "a helper outlived the reader");
        // Two reads per member, and the window bounds how far ahead of
        // the two members consumed the helpers ever got.
        let after = reads.load(Ordering::SeqCst);
        assert!(after <= 2 * (2 + 4 + 1), "read {after} times for 2 members consumed");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(reads.load(Ordering::SeqCst), after, "work continued after drop");
    }

    #[test]
    fn read_ahead_publishes_member_byte_and_stall_counters() {
        let registry = ngs_obs::global();
        let get = |name: &str| registry.counter(name).get();
        let (members_before, bytes_before) = (get("bgzf.readahead_members"), get("bgzf.readahead_bytes"));
        let stalls_before =
            get("bgzf.readahead_consumer_stalls") + get("bgzf.readahead_producer_stalls");
        let mut out = Vec::new();
        ReadAheadReader::new(Cursor::new(members(50)), 2).read_to_end(&mut out).unwrap();
        // Other tests share the global registry: assert deltas, lower bounds.
        assert!(get("bgzf.readahead_members") >= members_before + 51, "50 members + the marker");
        assert!(get("bgzf.readahead_bytes") >= bytes_before + 5_000);
        // Someone waited at least once: the consumer for its first member
        // at the latest.
        let stalls = get("bgzf.readahead_consumer_stalls") + get("bgzf.readahead_producer_stalls");
        assert!(stalls > stalls_before);
    }
}
