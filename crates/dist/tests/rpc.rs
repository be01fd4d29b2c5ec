//! The RPC hop (DESIGN.md §12.2): every answer that crosses the wire —
//! the in-process thread `Communicator`, the framed socket transport,
//! and `ngs-fault`'s injected delivery faults (drop / duplicate / delay
//! / mid-frame disconnect) — is **byte-identical** to `serve_query` run
//! locally on the same store.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
use ngs_cluster::{run_ranks, Communicator, Transport};
use ngs_converter::{ConvertConfig, TargetFormat};
use ngs_dist::{rpc, serve_query, DistClient, DistQuery, SocketTransport};
use ngs_fault::{FaultPlan, FaultyTransport};
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::sam;
use ngs_query::{ManualClock, RetryPolicy, ShardStore};
use tempfile::tempdir;

fn write_dataset(dir: &Path, name: &str, starts: &[i64]) {
    let header = SamHeader::from_references(vec![ReferenceSequence {
        name: b"chr1".to_vec(),
        length: 100_000,
    }]);
    let records: Vec<_> = starts
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let line = format!("{name}r{i}\t0\tchr1\t{p}\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII");
            sam::parse_record(line.as_bytes(), 1).unwrap()
        })
        .collect();
    let bamx_path = dir.join(format!("{name}.bamx"));
    write_bamx_file(&bamx_path, &header, &records, BamxCompression::Plain).unwrap();
    let baix = Baix::build(&BamxFile::open(&bamx_path).unwrap()).unwrap();
    baix.save(dir.join(format!("{name}.baix"))).unwrap();
}

/// Three small datasets with distinct contents, so byte-identity checks
/// can't pass by accident, written side by side into `dir`.
fn fixture(dir: &Path) -> Vec<String> {
    write_dataset(dir, "alpha", &[100, 450, 800, 2_000, 9_000]);
    write_dataset(dir, "beta", &[5, 4_321, 4_400, 60_000]);
    write_dataset(dir, "gamma", &[77, 78, 79, 20_000, 50_000, 90_000]);
    vec!["alpha".into(), "beta".into(), "gamma".into()]
}

fn queries(datasets: &[String]) -> Vec<DistQuery> {
    let mut out = Vec::new();
    for d in datasets {
        for region in ["chr1:1-5000", "chr1"] {
            for format in [TargetFormat::Sam, TargetFormat::Json] {
                out.push(DistQuery { dataset: d.clone(), region: region.into(), format });
            }
        }
    }
    out
}

fn store_over(dir: &Path) -> ShardStore {
    ShardStore::open_with(
        dir,
        16,
        Arc::new(ManualClock::new()),
        RetryPolicy::default(),
    )
    .unwrap()
}

/// Every query of `qs` answered by `serve_query` on a store over `dir`.
fn local_answers(dir: &Path, qs: &[DistQuery], convert: &ConvertConfig) -> Vec<Vec<u8>> {
    let store = store_over(dir);
    let out = tempdir().unwrap();
    let answers: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, convert, out.path()).unwrap()).collect();
    assert!(answers.iter().all(|b| !b.is_empty()));
    answers
}

/// Serves every fixture query from `server` to `client` over one
/// transport and checks each answer against `serve_query` run locally.
fn assert_rpc_matches_local_serve<T: Transport + Sync>(client: &T, server: &T) {
    let data = tempdir().unwrap();
    let qs = queries(&fixture(data.path()));
    let convert = ConvertConfig::with_ranks(1);
    let baseline = local_answers(data.path(), &qs, &convert);

    let server_out = tempdir().unwrap();
    std::thread::scope(|s| {
        let (data, convert) = (data.path(), &convert);
        s.spawn(move || {
            rpc::serve(server, 0, &store_over(data), convert, server_out.path()).unwrap();
        });
        let client = DistClient::new(client);
        for (q, want) in qs.iter().zip(&baseline) {
            assert_eq!(&client.query(1, q).unwrap(), want, "query {q:?} diverged on the wire");
        }
        client.shutdown(1).unwrap();
    });
}

/// RPC over the in-process thread transport matches rank-local serving.
#[test]
fn thread_rpc_matches_local_serve() {
    let world = Communicator::create_world(2);
    assert_rpc_matches_local_serve(&world[0], &world[1]);
}

/// The same hop over the framed socket transport: real loopback TCP,
/// frames encoded and decoded on each side, the same bytes out.
#[test]
fn socket_rpc_matches_local_serve() {
    let world = SocketTransport::create_world(2).unwrap();
    assert_rpc_matches_local_serve(&world[0], &world[1]);
}

/// A client rank that returns without sending `Shutdown` ends
/// `rpc::serve` cleanly: its `Communicator` drops as the rank leaves,
/// and the server's next receive reports the departure.
#[test]
fn serve_returns_when_its_client_rank_leaves_without_shutdown() {
    let data = tempdir().unwrap();
    let query = queries(&fixture(data.path())).swap_remove(0);
    let convert = ConvertConfig::with_ranks(1);
    let want = local_answers(data.path(), std::slice::from_ref(&query), &convert).remove(0);
    let store = store_over(data.path());

    // A watchdog, so a server that never returns fails the test.
    let (done, finished) = std::sync::mpsc::channel();
    let server_and_client = std::thread::spawn(move || {
        let out = tempdir().unwrap();
        let results = run_ranks(2, |comm| {
            if comm.rank() == 1 {
                rpc::serve(comm, 0, &store, &convert, out.path()).map(|()| None)
            } else {
                DistClient::new(comm).query(1, &query).map(Some)
            }
        });
        done.send(results).unwrap();
    });
    let results = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("rpc::serve must return once its client rank has left");
    server_and_client.join().unwrap();
    let mut results = results.into_iter();
    assert_eq!(results.next().unwrap().unwrap(), Some(want));
    assert_eq!(results.next().unwrap().unwrap(), None, "a vanished client is not a server error");
}

/// Injected delivery faults (drop / duplicate / delay / mid-frame
/// disconnect) between client and server must never change the bytes:
/// the req-id'd RPC retries, discards duplicates, and re-executes
/// idempotently.
#[test]
fn faulty_transport_rpc_is_byte_identical() {
    let data = tempdir().unwrap();
    let qs = queries(&fixture(data.path()));
    let convert = ConvertConfig::with_ranks(1);
    let baseline = local_answers(data.path(), &qs, &convert);

    for seed in 0..12u64 {
        let plan = FaultPlan::random_transport(seed, 24);
        let world = Communicator::create_world(2);
        let server_out = tempdir().unwrap();
        std::thread::scope(|s| {
            let (client_t, server_t) = (&world[0], &world[1]);
            let (data, convert) = (data.path(), &convert);
            s.spawn(move || {
                rpc::serve(server_t, 0, &store_over(data), convert, server_out.path()).unwrap();
            });
            // Faults strike the client's side of the wire.
            let faulty = FaultyTransport::new(client_t, plan.clone());
            let client = DistClient::new(&faulty);
            for (q, want) in qs.iter().zip(&baseline) {
                let got = client.query(1, q).unwrap();
                assert_eq!(&got, want, "seed {seed}: bytes diverged under {plan:?}");
            }
            // Shut down over the raw transport: a fault on the shutdown
            // exchange could strand the server waiting forever.
            DistClient::new(client_t).shutdown(1).unwrap();
        });
    }
}

/// A server rank that leaves mid-conversation — a socket endpoint
/// `close()`d after it has answered once, or a thread rank that returns
/// without serving — costs the client a transient error once its
/// retries run out, never a hang.
#[test]
fn query_to_a_departed_server_rank_fails_transiently() {
    // A watchdog, so a client that never returns fails the test.
    let (done, finished) = std::sync::mpsc::channel();
    let clients = std::thread::spawn(move || {
        let data = tempdir().unwrap();
        let query = queries(&fixture(data.path())).swap_remove(0);
        let convert = ConvertConfig::with_ranks(1);
        let want = local_answers(data.path(), std::slice::from_ref(&query), &convert).remove(0);

        let world = SocketTransport::create_world(2).unwrap();
        let server_out = tempdir().unwrap();
        let store = store_over(data.path());
        let socket = std::thread::scope(|s| {
            let server_t = &world[1];
            let server = s.spawn(|| rpc::serve(server_t, 0, &store, &convert, server_out.path()));
            let client = DistClient::new(&world[0]);
            assert_eq!(client.query(1, &query).unwrap(), want);
            server_t.close();
            server.join().unwrap().expect("a closed server endpoint ends serve cleanly");
            client.query(1, &query)
        });

        let thread = run_ranks(2, |comm| match comm.rank() {
            0 => Some(DistClient::new(comm).query(1, &query)),
            _ => None,
        })
        .swap_remove(0)
        .unwrap();
        done.send((socket, thread)).unwrap();
    });
    let (socket, thread) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a query to a departed server rank must return");
    clients.join().unwrap();
    for (transport, result) in [("socket", socket), ("thread", thread)] {
        let e = result.expect_err(transport);
        assert!(e.is_transient(), "{transport}: a departed server is transient, got {e}");
    }
}
