//! One rank's inbox: FIFO queues per `(from, tag)` channel plus a record
//! of peers that can no longer send. Both transports receive through
//! it — the thread [`Communicator`](crate::Communicator) delivers into
//! the destination's mailbox directly, the socket transport's reader
//! threads deliver what they decode off the wire.
//!
//! A death surfaces only once the channel's queue is empty: messages a
//! peer sent before it left are always received first.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};

use ngs_formats::error::{DecodeErrorKind, Error, Result};
use parking_lot::{Condvar, Mutex};

/// Why a peer stopped being receivable.
#[derive(Debug)]
pub enum PeerDeath {
    /// The peer left: its endpoint was dropped or closed, or its
    /// connection failed. Transient — retry or fail over.
    Disconnected,
    /// The peer's wire carried corrupt frames. Structural — quarantine.
    Corrupt(String),
}

/// The payload of the transient `Error::Io` a receive from a departed
/// peer returns. [`first_cause`](crate::first_cause) tells these
/// follow-on errors from the error that made a rank leave by it.
#[derive(Debug)]
pub struct PeerLeft {
    rank: usize,
}

impl std::fmt::Display for PeerLeft {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} disconnected", self.rank)
    }
}

impl std::error::Error for PeerLeft {}

impl PeerLeft {
    /// The transient error a receive from departed `rank` returns.
    pub(crate) fn error(rank: usize) -> Error {
        Error::Io(std::io::Error::new(std::io::ErrorKind::ConnectionAborted, PeerLeft { rank }))
    }

    /// Whether `err` is a receive from a peer that left.
    pub fn is(err: &Error) -> bool {
        matches!(err, Error::Io(e) if e.get_ref().is_some_and(|inner| inner.is::<PeerLeft>()))
    }
}

#[derive(Default)]
struct State {
    queues: HashMap<(usize, u64), VecDeque<Vec<u8>>>,
    dead: HashMap<usize, PeerDeath>,
}

/// A blocking inbox, empty and with every peer alive by default. One
/// mutex guards queues and deaths together, so a receiver can never see
/// a death before a message queued ahead of it.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<State>,
    available: Condvar,
}

impl Mailbox {
    /// Queues `data` from rank `from` under `tag` and wakes receivers.
    pub fn deliver(&self, from: usize, tag: u64, data: Vec<u8>) {
        self.state.lock().queues.entry((from, tag)).or_default().push_back(data);
        self.available.notify_all();
    }

    /// Records that rank `from` will send nothing more. The first death
    /// recorded for a peer stands.
    pub fn mark_dead(&self, from: usize, death: PeerDeath) {
        self.state.lock().dead.entry(from).or_insert(death);
        self.available.notify_all();
    }

    /// Receives the next message from `from` under `tag`, blocking until
    /// one is queued or, with the queue empty, `from` is dead.
    pub fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>> {
        let mut st = self.state.lock();
        loop {
            if let Some(msg) = st.queues.get_mut(&(from, tag)).and_then(VecDeque::pop_front) {
                return Ok(msg);
            }
            match st.dead.get(&from) {
                Some(PeerDeath::Disconnected) => return Err(PeerLeft::error(from)),
                // Rebuilt for every waiter: the decode error is not Clone.
                Some(PeerDeath::Corrupt(detail)) => {
                    return Err(Error::decode(
                        DecodeErrorKind::Corrupt,
                        0,
                        format!("rank {from} wire"),
                        detail.clone(),
                    ))
                }
                None => self.available.wait(&mut st),
            }
        }
    }
}
