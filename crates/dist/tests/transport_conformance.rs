//! Transport-conformance suite: ONE set of behavioural checks run
//! against BOTH implementations — the in-process [`Communicator`]
//! threads and the framed-socket loopback transport — so the trait's
//! contract (FIFO per `(from, tag)` channel, independent tags, gather
//! rank order, collective results, size-1 degenerate worlds, a rank
//! leaving) is pinned identically on each side of the seam.

use ngs_cluster::{Communicator, Transport};
use ngs_dist::SocketTransport;

/// Runs `f` once per rank over an already-created world of endpoints,
/// collecting results in rank order. Each endpoint moves into its
/// rank's thread, so it drops — the rank leaves — when `f` returns.
fn run_world<T, F, R>(world: Vec<T>, f: F) -> Vec<R>
where
    T: Transport,
    F: Fn(T) -> R + Send + Sync,
    R: Send,
{
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = world.into_iter().map(|t| s.spawn(move || f(t))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Per-rank result of [`conformance_body`]: the collective outputs
/// (gather at root, broadcast everywhere, both all-reduce sums).
type CollectiveResult = (Option<Vec<Vec<u8>>>, Vec<u8>, u64, f64);

/// The shared per-rank conformance body for a multi-rank world.
fn conformance_body<T: Transport>(t: &T) -> CollectiveResult {
    let (rank, size) = (t.rank(), t.size());

    // Ring: payload identifies the sender; FIFO not in play yet.
    t.send((rank + 1) % size, 1, vec![rank as u8]).unwrap();
    let left = (rank + size - 1) % size;
    assert_eq!(t.recv(left, 1).unwrap(), vec![left as u8]);

    // Interleaved tags: two tags sent in one order, received in the
    // other — tags are independent channels.
    t.send((rank + 1) % size, 100, vec![0xAA, rank as u8]).unwrap();
    t.send((rank + 1) % size, 200, vec![0xBB, rank as u8]).unwrap();
    assert_eq!(t.recv(left, 200).unwrap(), vec![0xBB, left as u8]);
    assert_eq!(t.recv(left, 100).unwrap(), vec![0xAA, left as u8]);

    // FIFO within one (from, tag) channel.
    for i in 0..3u8 {
        t.send((rank + 1) % size, 7, vec![i]).unwrap();
    }
    for i in 0..3u8 {
        assert_eq!(t.recv(left, 7).unwrap(), vec![i]);
    }

    // Self-send loops through the local mailbox.
    t.send(rank, 9, vec![42]).unwrap();
    assert_eq!(t.recv(rank, 9).unwrap(), vec![42]);

    t.barrier().unwrap();

    // Collectives.
    let gathered = t.gather(3, vec![rank as u8]).unwrap();
    let bcast = t.broadcast(4, if rank == 0 { b"root".to_vec() } else { Vec::new() }).unwrap();
    let sum_u = t.all_reduce_sum_u64(5, rank as u64 + 1).unwrap();
    let sum_f = t.all_reduce_sum_f64(6, rank as f64).unwrap();
    t.barrier().unwrap();
    (gathered, bcast, sum_u, sum_f)
}

fn assert_conformance(results: Vec<CollectiveResult>, size: usize) {
    let expect_gather: Vec<Vec<u8>> = (0..size).map(|r| vec![r as u8]).collect();
    for (rank, (gathered, bcast, sum_u, sum_f)) in results.into_iter().enumerate() {
        if rank == 0 {
            assert_eq!(gathered.unwrap(), expect_gather, "gather must be in rank order");
        } else {
            assert!(gathered.is_none());
        }
        assert_eq!(bcast, b"root");
        assert_eq!(sum_u, (size * (size + 1) / 2) as u64);
        let expect_f: f64 = (0..size).map(|r| r as f64).sum();
        assert!((sum_f - expect_f).abs() < 1e-12);
    }
}

/// The shared body for a world of exactly one rank: every collective
/// must degenerate correctly with no peers to talk to.
fn size_one_body<T: Transport>(t: &T) {
    assert_eq!((t.rank(), t.size()), (0, 1));
    t.barrier().unwrap();
    assert_eq!(t.gather(1, vec![7]).unwrap().unwrap(), vec![vec![7]]);
    assert_eq!(t.broadcast(2, b"only".to_vec()).unwrap(), b"only");
    assert_eq!(t.all_reduce_sum_u64(3, 11).unwrap(), 11);
    assert!((t.all_reduce_sum_f64(4, 2.5).unwrap() - 2.5).abs() < 1e-12);
    // Self-send still works in a world of one.
    t.send(0, 5, vec![1]).unwrap();
    assert_eq!(t.recv(0, 5).unwrap(), vec![1]);
}

/// The shared body for a world in which rank `leaver` sends three
/// messages to every peer and leaves (drops its endpoint; a
/// `SocketTransport` closes on drop). Each peer must receive the three
/// in order, then a transient error, and a barrier or an all-reduce
/// must fail rather than wait for the rank that left.
fn departure_body<T: Transport>(t: T, leaver: usize) {
    let rank = t.rank();
    if rank == leaver {
        for peer in (0..t.size()).filter(|&p| p != rank) {
            for i in 0..3u8 {
                t.send(peer, 7, vec![i]).unwrap();
            }
        }
        drop(t);
        return;
    }
    for i in 0..3u8 {
        assert_eq!(t.recv(leaver, 7).unwrap(), vec![i], "queued messages arrive in order");
    }
    let err = t.recv(leaver, 7).unwrap_err();
    assert!(err.is_transient(), "a departed peer is transient: {err}");
    assert!(t.barrier().is_err(), "barrier without rank {leaver}");
    assert!(t.all_reduce_sum_u64(5, 1).is_err(), "all-reduce without rank {leaver}");
}

/// Departure worlds: a non-root rank leaves a pair (the root finds it
/// missing), and the root leaves a trio (its peers find the root
/// missing).
const DEPARTURES: [(usize, usize); 2] = [(2, 1), (3, 0)];

#[test]
fn thread_transport_departure() {
    for (size, leaver) in DEPARTURES {
        run_world(Communicator::create_world(size), |t| departure_body(t, leaver));
    }
}

#[test]
fn socket_transport_departure() {
    for (size, leaver) in DEPARTURES {
        run_world(SocketTransport::create_world(size).unwrap(), |t| departure_body(t, leaver));
    }
}

#[test]
fn thread_transport_conformance() {
    let world = Communicator::create_world(4);
    let size = world[0].size();
    let results = run_world(world, |t| conformance_body(&t));
    assert_conformance(results, size);
}

#[test]
fn socket_transport_conformance() {
    let world = SocketTransport::create_world(4).unwrap();
    let size = 4;
    let results = run_world(world, |t| conformance_body(&t));
    assert_conformance(results, size);
}

#[test]
fn thread_transport_size_one() {
    let world = Communicator::create_world(1);
    run_world(world, |t| size_one_body(&t));
}

#[test]
fn socket_transport_size_one() {
    let world = SocketTransport::create_world(1).unwrap();
    run_world(world, |t| size_one_body(&t));
}
