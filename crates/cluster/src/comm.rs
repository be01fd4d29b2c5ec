//! The message-passing communicator: the paper ran on MPI across a
//! 32-node cluster; this runtime reproduces the *communication structure*
//! (point-to-point sends, barriers, gathers, reductions) with ranks as
//! threads, so every algorithm keeps its distributed formulation.
//!
//! A world is one [`Mailbox`] per rank: a send queues straight into the
//! destination's mailbox, a receive blocks on the rank's own. Barriers,
//! gathers and reductions are the [`Transport`] defaults over those two.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use ngs_formats::error::Result;

use crate::mailbox::{Mailbox, PeerDeath};
use crate::transport::Transport;

/// A per-rank handle into the world. Clone-free: each rank owns exactly
/// one, mirroring an MPI communicator. Dropping it means the rank has
/// left: every peer's receive from it drains what was already queued,
/// then fails with a transient error, as over a closed socket.
pub struct Communicator {
    world: Arc<[Mailbox]>,
    rank: usize,
}

impl Communicator {
    /// Creates `n` connected communicators, one per rank.
    pub fn create_world(n: usize) -> Vec<Communicator> {
        assert!(n > 0, "world must have at least one rank");
        let world: Arc<[Mailbox]> = (0..n).map(|_| Mailbox::default()).collect();
        (0..n).map(|rank| Communicator { world: Arc::clone(&world), rank }).collect()
    }

    /// This rank's id (0-based).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.len()
    }
}

impl Transport for Communicator {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.len()
    }

    /// Never fails: a message to a rank that has left is queued and
    /// never read, as bytes written to a closing socket would be.
    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> Result<()> {
        assert!(to < self.world.len(), "destination rank {to} out of range");
        self.world[to].deliver(self.rank, tag, data);
        Ok(())
    }

    fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>> {
        assert!(from < self.world.len(), "source rank {from} out of range");
        self.world[self.rank].recv(from, tag)
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        for (peer, mailbox) in self.world.iter().enumerate() {
            if peer != self.rank {
                mailbox.mark_dead(self.rank, PeerDeath::Disconnected);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::scope::run_ranks;

    #[test]
    fn world_metadata() {
        let world = Communicator::create_world(4);
        assert_eq!(world.len(), 4);
        for (i, c) in world.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 4);
        }
    }

    #[test]
    fn ring_send_recv() {
        let results = run_ranks(8, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_u64(next, 1, comm.rank() as u64).unwrap();
            comm.recv_u64(prev, 1).unwrap()
        });
        for (rank, got) in results.into_iter().enumerate() {
            let prev = (rank + 8 - 1) % 8;
            assert_eq!(got, prev as u64);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks(6, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn barrier_is_reusable() {
        run_ranks(4, |comm| {
            for _ in 0..50 {
                comm.barrier().unwrap();
            }
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_ranks(5, |comm| {
            comm.gather(7, vec![comm.rank() as u8; comm.rank() + 1]).unwrap()
        });
        let at_root = results[0].as_ref().unwrap();
        for (r, msg) in at_root.iter().enumerate() {
            assert_eq!(msg, &vec![r as u8; r + 1]);
        }
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn broadcast_distributes_root_value() {
        let results = run_ranks(5, |comm| {
            let data = if comm.rank() == 0 { b"root".to_vec() } else { b"junk".to_vec() };
            comm.broadcast(3, data).unwrap()
        });
        assert!(results.iter().all(|r| r == b"root"));
    }

    #[test]
    fn allreduce_sums() {
        let results = run_ranks(7, |comm| {
            (
                comm.all_reduce_sum_u64(1, comm.rank() as u64 + 1).unwrap(),
                comm.all_reduce_sum_f64(2, 0.5).unwrap(),
            )
        });
        for (u, f) in results {
            assert_eq!(u, 28);
            assert!((f - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn tags_are_independent_channels() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_u64(1, 100, 1).unwrap();
                comm.send_u64(1, 200, 2).unwrap();
            } else {
                // Receive in the opposite order of sending.
                assert_eq!(comm.recv_u64(0, 200).unwrap(), 2);
                assert_eq!(comm.recv_u64(0, 100).unwrap(), 1);
            }
        });
    }

    #[test]
    fn messages_fifo_within_tag() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.send_u64(1, 5, i).unwrap();
                }
            } else {
                for i in 0..100u64 {
                    assert_eq!(comm.recv_u64(0, 5).unwrap(), i);
                }
            }
        });
    }

    #[test]
    fn single_rank_world() {
        let results = run_ranks(1, |comm| {
            comm.barrier().unwrap();
            comm.all_reduce_sum_u64(1, 42).unwrap()
        });
        assert_eq!(results, vec![42]);
    }
}
