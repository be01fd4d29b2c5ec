//! [`FaultyTransport`]: delivery-level fault injection behind the
//! [`Transport`] seam (DESIGN.md §12).
//!
//! Wraps any transport and applies the plan's transport faults to this
//! endpoint's operation stream — sends and recvs are counted separately,
//! 0-based, in call order:
//!
//! * [`Fault::MsgDrop`] — the `nth` send returns a **transient** error
//!   without delivering. The sender knows, so nothing is silently lost;
//!   retry loops (the dist RPC client) resend and converge.
//! * [`Fault::MsgDuplicate`] — the `nth` send is delivered twice.
//!   Receivers must de-duplicate (the dist RPC layer discards by
//!   request id).
//! * [`Fault::MsgDelay`] — the `nth` send is buffered and flushed at
//!   the start of this endpoint's *next* transport operation, send
//!   **or** recv. Flushing on recv keeps strict request/response
//!   protocols deadlock-free: the delayed request leaves the buffer
//!   when the client blocks for the reply.
//! * [`Fault::MidFrameDisconnect`] — the `nth` recv consumes its
//!   message but the bytes are "lost mid-frame": the caller sees a
//!   transient error, exactly like a peer dying half-way through a
//!   frame. Protocols recover by re-requesting idempotently.
//!
//! If several faults name the same send, drop wins over delay wins over
//! duplicate (a dropped message cannot also arrive). All injected
//! errors are transient ([`Error::is_transient`]) — delivery faults are
//! the wire's weather, not corrupt data — so the retry-vs-quarantine
//! contract routes them to retry/fail-over.

use std::sync::Mutex;

use ngs_cluster::Transport;
use ngs_formats::error::{Error, Result};

use crate::plan::{Fault, FaultPlan};

/// A delayed send waiting for the endpoint's next operation.
struct Delayed {
    to: usize,
    tag: u64,
    data: Vec<u8>,
}

struct State {
    sends: u64,
    recvs: u64,
    delayed: Vec<Delayed>,
}

/// A [`Transport`] wrapper injecting the plan's delivery faults.
///
/// Collectives are *not* overridden: the trait defaults run over the
/// faulty `send`/`recv`, so barrier/gather/broadcast traffic feels the
/// same weather as point-to-point messages.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<State>,
}

impl<T> FaultyTransport<T> {
    /// Wraps `inner`, applying `plan`'s transport faults to this
    /// endpoint's sends and recvs. Non-transport faults in the plan are
    /// ignored.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            state: Mutex::new(State { sends: 0, recvs: 0, delayed: Vec::new() }),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn transient(what: &str) -> Error {
        Error::Io(std::io::Error::new(std::io::ErrorKind::ConnectionReset, what.to_string()))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn matches(&self, n: u64, pick: impl Fn(&Fault) -> Option<u64>) -> bool {
        self.plan.faults.iter().any(|f| pick(f) == Some(n))
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Drains delayed sends (in original order) into the inner
    /// transport. Called at the start of every operation; the lock is
    /// not held across the inner sends.
    fn flush_delayed(&self) -> Result<()> {
        let pending = {
            let mut state = self.lock();
            std::mem::take(&mut state.delayed)
        };
        for d in pending {
            self.inner.send(d.to, d.tag, d.data)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> Result<()> {
        self.flush_delayed()?;
        let n = {
            let mut state = self.lock();
            let n = state.sends;
            state.sends += 1;
            n
        };
        if self.matches(n, |f| match f {
            Fault::MsgDrop { nth } => Some(*nth),
            _ => None,
        }) {
            return Err(Self::transient("injected: message dropped in flight"));
        }
        if self.matches(n, |f| match f {
            Fault::MsgDelay { nth } => Some(*nth),
            _ => None,
        }) {
            self.lock().delayed.push(Delayed { to, tag, data });
            return Ok(());
        }
        let duplicate = self.matches(n, |f| match f {
            Fault::MsgDuplicate { nth } => Some(*nth),
            _ => None,
        });
        if duplicate {
            self.inner.send(to, tag, data.clone())?;
        }
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>> {
        self.flush_delayed()?;
        let n = {
            let mut state = self.lock();
            let n = state.recvs;
            state.recvs += 1;
            n
        };
        let lose = self.matches(n, |f| match f {
            Fault::MidFrameDisconnect { nth } => Some(*nth),
            _ => None,
        });
        let msg = self.inner.recv(from, tag)?;
        if lose {
            drop(msg);
            return Err(Self::transient("injected: connection dropped mid-frame"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ngs_cluster::scope::run_ranks;

    #[test]
    fn drop_is_transient_and_retry_delivers() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                let t = FaultyTransport::new(comm, FaultPlan::new(vec![Fault::MsgDrop { nth: 0 }]));
                let err = t.send(1, 5, vec![1]).unwrap_err();
                assert!(err.is_transient());
                t.send(1, 5, vec![2]).unwrap();
            } else {
                // Only the retried payload arrives; nothing ghosts in.
                assert_eq!(comm.recv(0, 5).unwrap(), vec![2]);
            }
        });
    }

    #[test]
    fn duplicate_delivers_twice() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                let t =
                    FaultyTransport::new(comm, FaultPlan::new(vec![Fault::MsgDuplicate { nth: 0 }]));
                t.send(1, 5, vec![9]).unwrap();
            } else {
                assert_eq!(comm.recv(0, 5).unwrap(), vec![9]);
                assert_eq!(comm.recv(0, 5).unwrap(), vec![9]);
            }
        });
    }

    #[test]
    fn delay_flushes_on_next_recv() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                let t = FaultyTransport::new(comm, FaultPlan::new(vec![Fault::MsgDelay { nth: 0 }]));
                // The "request" sits in the delay buffer; blocking for
                // the reply flushes it, so the exchange still completes.
                t.send(1, 5, vec![3]).unwrap();
                assert_eq!(t.recv(1, 6).unwrap(), vec![4]);
            } else {
                assert_eq!(comm.recv(0, 5).unwrap(), vec![3]);
                comm.send(0, 6, vec![4]).unwrap();
            }
        });
    }

    #[test]
    fn mid_frame_disconnect_loses_message_then_resend_recovers() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![7]).unwrap();
                // Peer lost it mid-frame; resend the same request.
                comm.send(1, 5, vec![7]).unwrap();
            } else {
                let t = FaultyTransport::new(
                    comm,
                    FaultPlan::new(vec![Fault::MidFrameDisconnect { nth: 0 }]),
                );
                let err = t.recv(0, 5).unwrap_err();
                assert!(err.is_transient());
                assert_eq!(t.recv(0, 5).unwrap(), vec![7]);
            }
        });
    }

    #[test]
    fn collectives_survive_a_lossless_plan() {
        // Default collectives run over the faulty send/recv; a delay +
        // duplicate plan must not change the reduction result.
        let results = run_ranks(3, |comm| {
            let plan = FaultPlan::new(vec![
                Fault::MsgDelay { nth: 0 },
                Fault::MsgDuplicate { nth: 1 },
            ]);
            let t = FaultyTransport::new(comm, plan);
            t.all_reduce_sum_u64(2, t.rank() as u64 + 1).unwrap()
        });
        // Duplicated gather/broadcast legs can leave stray queued
        // messages, but every rank still computes the true sum.
        for sum in results {
            assert_eq!(sum, 6);
        }
    }
}
