//! The [`Transport`] seam: the message-passing surface every
//! distributed algorithm here is written against, so it runs unchanged
//! over ranks that are threads in one address space (the in-process
//! [`Communicator`](crate::Communicator)) *or* separate endpoints behind
//! a wire (the framed socket transport in `ngs-dist`). See DESIGN.md §12.
//!
//! Methods are fallible, and failures keep the workspace's
//! transient-vs-structural contract: a peer that left surfaces as a
//! transient [`Error::Io`](ngs_formats::error::Error), while corrupt
//! framing surfaces as a structural decode error, so
//! [`Error::is_transient`](ngs_formats::error::Error::is_transient)
//! routing (retry / fail over vs quarantine) carries over unchanged.
//!
//! An impl supplies four methods — `rank`, `size`, `send`, `recv`. The
//! collectives and typed helpers exist once, as default methods over
//! those four (rank-0-rooted gather + broadcast), and no impl overrides
//! them.

use ngs_formats::error::{DecodeErrorKind, Error, Result};

/// Tag reserved for the default [`Transport::barrier`]; user traffic
/// must stay below [`RESERVED_TAG_BASE`].
pub const BARRIER_TAG: u64 = u64::MAX;

/// Tags at or above this value are reserved for transport-internal
/// control traffic (barriers, future handshakes).
pub const RESERVED_TAG_BASE: u64 = u64::MAX - 16;

/// Decodes a little-endian 8-byte scalar message, with a typed error
/// (never a panic) on short payloads.
fn fixed8(bytes: &[u8], what: &str) -> Result<[u8; 8]> {
    match bytes.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok()) {
        Some(arr) => Ok(arr),
        None => Err(Error::decode(
            DecodeErrorKind::Truncated,
            bytes.len() as u64,
            "transport message",
            format!("{what} payload is {} bytes, need 8", bytes.len()),
        )),
    }
}

/// Message-passing endpoint for one rank of a world.
///
/// Implementations must deliver messages FIFO per `(from, tag)` channel
/// and keep distinct tags independent. All methods take `&self`; an
/// endpoint is shared across threads of its rank.
pub trait Transport: Send + Sync {
    /// This rank's id (0-based).
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Sends `data` to rank `to` under `tag` (buffered; an error means
    /// the message was *not* delivered and may be retried).
    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> Result<()>;

    /// Receives the next message from rank `from` under `tag`,
    /// blocking. A transient error means the peer is unreachable
    /// (disconnected); a structural one means its bytes were corrupt.
    fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>>;

    /// Blocks until every rank has entered the barrier: rank 0 collects
    /// one message from every peer, then releases each — 2(n−1)
    /// messages under [`BARRIER_TAG`].
    fn barrier(&self) -> Result<()> {
        if self.rank() == 0 {
            for r in 1..self.size() {
                self.recv(r, BARRIER_TAG)?;
            }
            for r in 1..self.size() {
                self.send(r, BARRIER_TAG, Vec::new())?;
            }
        } else {
            self.send(0, BARRIER_TAG, Vec::new())?;
            self.recv(0, BARRIER_TAG)?;
        }
        Ok(())
    }

    /// Typed convenience: send one `u64`.
    fn send_u64(&self, to: usize, tag: u64, value: u64) -> Result<()> {
        self.send(to, tag, value.to_le_bytes().to_vec())
    }

    /// Typed convenience: receive one `u64`.
    fn recv_u64(&self, from: usize, tag: u64) -> Result<u64> {
        Ok(u64::from_le_bytes(fixed8(&self.recv(from, tag)?, "u64")?))
    }

    /// Typed convenience: send one `f64`.
    fn send_f64(&self, to: usize, tag: u64, value: f64) -> Result<()> {
        self.send(to, tag, value.to_le_bytes().to_vec())
    }

    /// Typed convenience: receive one `f64`.
    fn recv_f64(&self, from: usize, tag: u64) -> Result<f64> {
        Ok(f64::from_le_bytes(fixed8(&self.recv(from, tag)?, "f64")?))
    }

    /// Gathers every rank's `data` at rank 0 (returns `Some(all)` on
    /// rank 0 in rank order, `None` elsewhere).
    fn gather(&self, tag: u64, data: Vec<u8>) -> Result<Option<Vec<Vec<u8>>>> {
        if self.rank() == 0 {
            let mut all = Vec::with_capacity(self.size());
            all.push(data);
            for r in 1..self.size() {
                all.push(self.recv(r, tag)?);
            }
            Ok(Some(all))
        } else {
            self.send(0, tag, data)?;
            Ok(None)
        }
    }

    /// Broadcasts rank 0's `data` to every rank; each rank passes its
    /// own input and receives rank 0's.
    fn broadcast(&self, tag: u64, data: Vec<u8>) -> Result<Vec<u8>> {
        if self.rank() == 0 {
            for r in 1..self.size() {
                self.send(r, tag, data.clone())?;
            }
            Ok(data)
        } else {
            self.recv(0, tag)
        }
    }

    /// Sum-reduction of one `f64` across all ranks; every rank receives
    /// the total (allreduce).
    fn all_reduce_sum_f64(&self, tag: u64, value: f64) -> Result<f64> {
        let total = match self.gather(tag, value.to_le_bytes().to_vec())? {
            Some(all) => {
                let mut sum = 0.0;
                for bytes in &all {
                    sum += f64::from_le_bytes(fixed8(bytes, "f64")?);
                }
                self.broadcast(tag, sum.to_le_bytes().to_vec())?
            }
            None => self.broadcast(tag, Vec::new())?,
        };
        Ok(f64::from_le_bytes(fixed8(&total, "f64")?))
    }

    /// Sum-reduction of one `u64` across all ranks (allreduce).
    fn all_reduce_sum_u64(&self, tag: u64, value: u64) -> Result<u64> {
        let total = match self.gather(tag, value.to_le_bytes().to_vec())? {
            Some(all) => {
                let mut sum = 0u64;
                for bytes in &all {
                    sum = sum.wrapping_add(u64::from_le_bytes(fixed8(bytes, "u64")?));
                }
                self.broadcast(tag, sum.to_le_bytes().to_vec())?
            }
            None => self.broadcast(tag, Vec::new())?,
        };
        Ok(u64::from_le_bytes(fixed8(&total, "u64")?))
    }
}

/// Shared references delegate, so `&Communicator` (the shape
/// [`crate::scope::run_ranks`] hands out) is itself a transport.
impl<T: Transport + ?Sized> Transport for &T {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> Result<()> {
        (**self).send(to, tag, data)
    }
    fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>> {
        (**self).recv(from, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::run_ranks;

    #[test]
    fn scalar_decode_is_typed_not_panicking() {
        run_ranks(2, |comm| {
            let t: &dyn Transport = comm;
            if t.rank() == 0 {
                t.send(1, 9, vec![1, 2, 3]).unwrap();
            } else {
                let err = t.recv_u64(0, 9).unwrap_err();
                assert!(!err.is_transient());
                assert!(err.to_string().contains("need 8"));
            }
        });
    }
}
