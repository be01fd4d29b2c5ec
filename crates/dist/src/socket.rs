//! [`SocketTransport`]: the [`Transport`] trait over length-prefixed
//! frames on loopback TCP.
//!
//! Topology: a full mesh. `create_world(n)` binds one listener per rank
//! on `127.0.0.1:0`, dials every pair once (rank *j* connects to rank
//! *i* for `i < j`, identifying itself with a hello frame), and splits
//! each stream into a mutex-guarded writer plus a reader thread. Reader
//! threads decode frames incrementally ([`FrameDecoder`]) and deliver
//! into the same [`Mailbox`] the thread
//! [`Communicator`](ngs_cluster::Communicator) receives from, so
//! `recv(from, tag)` has exactly its semantics: FIFO within a
//! `(from, tag)` channel, independent across tags, queued messages
//! before a death.
//!
//! Failure classification (the transient-vs-structural contract):
//!
//! * peer disconnect (EOF or I/O error, including mid-frame) → the peer
//!   is marked dead and every pending or future `recv` from it returns
//!   a **transient** `Error::Io` — callers fail over;
//! * corrupt framing (bad magic, CRC mismatch, implausible length, or a
//!   frame whose `from` field contradicts the connection) → the peer is
//!   marked poisoned and `recv` returns the **structural** decode error
//!   — callers quarantine.
//!
//! Collectives come from the [`Transport`] default implementations, so
//! this file only implements the four core methods — the conformance
//! suite (`tests/transport_conformance.rs`) runs the same assertions
//! over both this and the thread transport.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use ngs_cluster::{Mailbox, PeerDeath, Transport};
use ngs_formats::error::{Error, Result};
use ngs_obs::{Counter, Registry};
use parking_lot::Mutex;

use crate::frame::{encode_frame, FrameDecoder};

/// Optional `dist.*` wire counters (injected registry, per CLAUDE.md
/// obs conventions).
#[derive(Clone)]
struct WireObs {
    messages: Arc<Counter>,
    bytes: Arc<Counter>,
}

/// One rank's endpoint of a loopback TCP world.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    mailbox: Arc<Mailbox>,
    /// Writer half per peer (`None` at our own index).
    writers: Vec<Option<Mutex<TcpStream>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    obs: Option<WireObs>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

/// Reads the fixed 8-byte hello (`"NGSH"` + peer rank) a dialer sends
/// first on every connection.
fn read_hello(stream: &mut TcpStream) -> std::io::Result<usize> {
    let mut hello = [0u8; 8];
    stream.read_exact(&mut hello)?;
    if &hello[..4] != b"NGSH" {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "socket transport hello magic mismatch",
        ));
    }
    Ok(u32::from_le_bytes([hello[4], hello[5], hello[6], hello[7]]) as usize)
}

impl SocketTransport {
    /// Creates `n` fully meshed endpoints over loopback TCP. Wiring is
    /// sequential and deterministic; reader threads start before this
    /// returns.
    pub fn create_world(n: usize) -> std::io::Result<Vec<SocketTransport>> {
        Self::create_world_with(n, None)
    }

    /// Like [`create_world`](Self::create_world), publishing
    /// `dist.messages` / `dist.bytes_sent` counters to `registry`.
    pub fn create_world_obs(n: usize, registry: &Registry) -> std::io::Result<Vec<SocketTransport>> {
        let obs = WireObs {
            messages: registry.counter("dist.messages"),
            bytes: registry.counter("dist.bytes_sent"),
        };
        Self::create_world_with(n, Some(obs))
    }

    fn create_world_with(n: usize, obs: Option<WireObs>) -> std::io::Result<Vec<SocketTransport>> {
        assert!(n > 0, "world must have at least one rank");
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<std::io::Result<_>>()?;
        let addrs: Vec<_> =
            listeners.iter().map(TcpListener::local_addr).collect::<std::io::Result<_>>()?;

        let mut transports: Vec<SocketTransport> = (0..n)
            .map(|rank| SocketTransport {
                rank,
                size: n,
                mailbox: Arc::default(),
                writers: (0..n).map(|_| None).collect(),
                readers: Mutex::new(Vec::new()),
                obs: obs.clone(),
            })
            .collect();

        // Dial each pair exactly once: j → i for i < j. Because exactly
        // one connect is outstanding at a time, accept() pairs up
        // deterministically; the hello frame double-checks identity.
        for i in 0..n {
            for j in (i + 1)..n {
                let mut dialed = TcpStream::connect(addrs[i])?;
                dialed.set_nodelay(true)?;
                let mut hello = Vec::with_capacity(8);
                hello.extend_from_slice(b"NGSH");
                hello.extend_from_slice(&(j as u32).to_le_bytes());
                dialed.write_all(&hello)?;
                let (mut accepted, _) = listeners[i].accept()?;
                accepted.set_nodelay(true)?;
                let who = read_hello(&mut accepted)?;
                if who != j {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("expected hello from rank {j}, got {who}"),
                    ));
                }
                // Rank j reads from / writes to `dialed`; rank i uses
                // `accepted`. Each side clones its stream for the
                // reader thread and keeps the original for writes.
                transports[j].wire_peer(i, dialed)?;
                transports[i].wire_peer(j, accepted)?;
            }
        }
        Ok(transports)
    }

    /// Installs `stream` as the connection to `peer`: writer half kept
    /// here, reader half moved into a decoder thread.
    fn wire_peer(&mut self, peer: usize, stream: TcpStream) -> std::io::Result<()> {
        let read_half = stream.try_clone()?;
        let mailbox = Arc::clone(&self.mailbox);
        let my_rank = self.rank;
        let handle = std::thread::Builder::new()
            .name(format!("ngs-dist-r{my_rank}p{peer}"))
            .spawn(move || reader_loop(read_half, peer, mailbox))?;
        self.writers[peer] = Some(Mutex::new(stream));
        self.readers.lock().push(handle);
        Ok(())
    }

    /// Simulates rank death / shuts the endpoint down: closes every
    /// connection (peers observe EOF → transient failures), wakes any
    /// of our own blocked receivers, and marks all peers dead locally.
    /// Idempotent.
    pub fn close(&self) {
        for w in self.writers.iter().flatten() {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
        for peer in (0..self.size).filter(|&peer| peer != self.rank) {
            self.mailbox.mark_dead(peer, PeerDeath::Disconnected);
        }
    }
}

/// Decodes frames off one connection into the mailbox until EOF, I/O
/// error, or corrupt framing.
fn reader_loop(mut stream: TcpStream, peer: usize, mailbox: Arc<Mailbox>) {
    let mut decoder = FrameDecoder::new(format!("rank {peer} wire"));
    let mut buf = [0u8; 64 * 1024];
    let death = 'wire: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break PeerDeath::Disconnected,
            Ok(n) => n,
        };
        decoder.push(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if frame.from as usize != peer {
                        // A frame lying about its sender means framing
                        // trust is gone: structural, like a bad CRC.
                        break 'wire PeerDeath::Corrupt(format!(
                            "frame claims sender {} on the rank-{peer} connection",
                            frame.from
                        ));
                    }
                    mailbox.deliver(peer, frame.tag, frame.payload);
                }
                Err(e) => break 'wire PeerDeath::Corrupt(e.to_string()),
            }
        }
    };
    mailbox.mark_dead(peer, death);
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> Result<()> {
        assert!(to < self.size, "destination rank {to} out of range");
        if let Some(obs) = &self.obs {
            if ngs_obs::enabled() {
                obs.messages.add(1);
                obs.bytes.add(data.len() as u64);
            }
        }
        if to == self.rank {
            // Loopback: no wire, straight into our own mailbox.
            self.mailbox.deliver(to, tag, data);
            return Ok(());
        }
        let Some(writer) = &self.writers[to] else {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("rank {to} was never wired"),
            )));
        };
        let wire = encode_frame(self.rank as u32, tag, &data);
        // A write failure means the peer is gone: transient Io, caller
        // may fail over. The message was not delivered.
        writer.lock().write_all(&wire).map_err(Error::Io)
    }

    fn recv(&self, from: usize, tag: u64) -> Result<Vec<u8>> {
        assert!(from < self.size, "source rank {from} out of range");
        self.mailbox.recv(from, tag)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.close();
        for handle in self.readers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped_world<R: Send>(
        n: usize,
        f: impl Fn(&SocketTransport) -> R + Sync,
    ) -> Vec<R> {
        let world = SocketTransport::create_world(n).unwrap();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = world.iter().map(|t| s.spawn(|| f(t))).collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().unwrap());
            }
        });
        out.into_iter().flatten().collect()
    }

    #[test]
    fn ring_roundtrip() {
        let got = scoped_world(4, |t| {
            let next = (t.rank() + 1) % t.size();
            let prev = (t.rank() + t.size() - 1) % t.size();
            t.send_u64(next, 1, t.rank() as u64).unwrap();
            t.recv_u64(prev, 1).unwrap()
        });
        assert_eq!(got, vec![3, 0, 1, 2]);
    }

    #[test]
    fn disconnect_is_transient() {
        let mut world = SocketTransport::create_world(2).unwrap();
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        t1.close();
        let err = std::thread::scope(|s| s.spawn(|| t0.recv(1, 5).unwrap_err()).join().unwrap());
        assert!(err.is_transient(), "disconnect must classify transient: {err}");
    }

    #[test]
    fn queued_messages_drain_before_death() {
        let mut world = SocketTransport::create_world(2).unwrap();
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        t1.send(0, 9, b"last words".to_vec()).unwrap();
        // Wait for delivery, then kill the peer.
        let msg = t0.recv(1, 9).unwrap();
        assert_eq!(msg, b"last words");
        t1.close();
        assert!(t0.recv(1, 9).unwrap_err().is_transient());
    }

    #[test]
    fn send_to_self_loops_back() {
        let world = SocketTransport::create_world(1).unwrap();
        world[0].send(0, 3, b"me".to_vec()).unwrap();
        assert_eq!(world[0].recv(0, 3).unwrap(), b"me");
    }

    #[test]
    fn obs_counters_track_wire_traffic() {
        let reg = Registry::new();
        let world = SocketTransport::create_world_obs(2, &reg).unwrap();
        std::thread::scope(|s| {
            let a = s.spawn(|| world[0].send(1, 1, vec![0u8; 100]).unwrap());
            let b = s.spawn(|| world[1].recv(0, 1).unwrap());
            a.join().unwrap();
            assert_eq!(b.join().unwrap().len(), 100);
        });
        assert_eq!(reg.counter("dist.messages").get(), 1);
        assert_eq!(reg.counter("dist.bytes_sent").get(), 100);
    }
}
