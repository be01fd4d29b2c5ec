//! Failover correctness (DESIGN.md §12, the PR's acceptance gate): with
//! R = 2 replicas, killing any single rank mid-plan leaves every query
//! answerable and the answer **byte-identical** to the healthy run —
//! in-process (thread `Communicator` / `Router`) and over the framed
//! socket transport, including under `ngs-fault`'s injected delivery
//! faults (drop / duplicate / delay / mid-frame disconnect).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
use ngs_cluster::{run_ranks, Communicator, Transport};
use ngs_converter::{ConvertConfig, TargetFormat};
use ngs_dist::{
    place, replicate, rpc, serve_gated, serve_query, AdmissionGate, DistClient, DistQuery,
    PlacementConfig, Router, RouterConfig, SocketTransport, REQ_TAG,
};
use ngs_fault::{FaultPlan, FaultyTransport};
use ngs_formats::error::Error;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::sam;
use ngs_obs::Registry;
use ngs_query::{ManualClock, RetryBudget, RetryBudgetConfig, RetryPolicy, ShardStore};
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
/// can't pass by accident.
fn fixture(source: &Path) -> Vec<String> {
    write_dataset(source, "alpha", &[100, 450, 800, 2_000, 9_000]);
    write_dataset(source, "beta", &[5, 4_321, 4_400, 60_000]);
    write_dataset(source, "gamma", &[77, 78, 79, 20_000, 50_000, 90_000]);
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

fn placed(source: &Path, root: &Path, n_ranks: usize) -> (Vec<String>, ngs_dist::PlacementMap) {
    let datasets = fixture(source);
    let ranks: BTreeSet<usize> = (0..n_ranks).collect();
    let cfg = PlacementConfig { replicas: 2, ..Default::default() };
    let map = place(&datasets, &ranks, &cfg);
    replicate(source, &map, root).unwrap();
    (datasets, map)
}

fn build_router(map: ngs_dist::PlacementMap, root: &Path, scratch: &Path) -> (Router, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let clock = Arc::new(ManualClock::new());
    let router = Router::new(
        map,
        root,
        scratch,
        clock,
        Arc::clone(&registry),
        RouterConfig::default(),
    )
    .unwrap();
    (router, registry)
}

/// R = 2: kill each rank in turn; every query must still answer, byte
/// for byte as in the healthy run, and the failovers counter must show
/// the detour.
#[test]
fn killing_any_single_rank_is_byte_identical() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, map) = placed(source.path(), root.path(), 3);
    let qs = queries(&datasets);

    let healthy_scratch = tempdir().unwrap();
    let (healthy, _) = build_router(map.clone(), root.path(), healthy_scratch.path());
    let baseline: Vec<Vec<u8>> = qs.iter().map(|q| healthy.query(q).unwrap()).collect();
    assert!(baseline.iter().all(|b| !b.is_empty()));

    for dead in 0..3 {
        let scratch = tempdir().unwrap();
        let (router, registry) = build_router(map.clone(), root.path(), scratch.path());
        router.kill(dead);
        for (q, want) in qs.iter().zip(&baseline) {
            let got = router.query(q).unwrap();
            assert_eq!(&got, want, "query {q:?} diverged after killing rank {dead}");
        }
        // If `dead` was primary for some dataset, those queries detoured
        // — the failover counter and latency histogram must say so.
        if datasets.iter().any(|d| map.replicas(d).first() == Some(&dead)) {
            assert!(registry.counter("dist.failovers").get() > 0);
            assert!(registry.histogram("dist.failover_latency_ns").count() > 0);
        }
    }
}

/// Permanent departure: `apply_leave` re-materialises the lost replica
/// slots from survivors (through the crash-safe repo path); answers
/// stay byte-identical and every shard is back to R live replicas.
#[test]
fn apply_leave_restores_replication_and_identity() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, map) = placed(source.path(), root.path(), 3);
    let qs = queries(&datasets);

    let healthy_scratch = tempdir().unwrap();
    let (healthy, _) = build_router(map.clone(), root.path(), healthy_scratch.path());
    let baseline: Vec<Vec<u8>> = qs.iter().map(|q| healthy.query(q).unwrap()).collect();

    let scratch = tempdir().unwrap();
    let (mut router, registry) = build_router(map, root.path(), scratch.path());
    let plan = router.apply_leave(1).unwrap();
    for d in &datasets {
        let rs = router.placement().replicas(d);
        assert_eq!(rs.len(), 2, "dataset {d} lost replication: {rs:?}");
        assert!(!rs.contains(&1));
    }
    let moved = plan.moves.len() as u64;
    assert_eq!(registry.counter("dist.rebalanced_shards").get(), moved);
    for (q, want) in qs.iter().zip(&baseline) {
        assert_eq!(&router.query(q).unwrap(), want);
    }
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

/// RPC over the in-process thread transport matches rank-local serving.
#[test]
fn thread_rpc_matches_local_serve() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, _map) = placed(source.path(), root.path(), 2);
    let qs = queries(&datasets);
    let convert = ConvertConfig::with_ranks(1);

    // Rank-local baseline straight through serve_query.
    let root_path = root.path();
    let local_out = tempdir().unwrap();
    let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
    let baseline: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, &convert, local_out.path()).unwrap()).collect();

    let server_out = tempdir().unwrap();
    let world = Communicator::create_world(2);
    std::thread::scope(|s| {
        let (qs, baseline) = (&qs, &baseline);
        let (server_t, client_t) = {
            let mut it = world.iter();
            let c = it.next().unwrap();
            (it.next().unwrap(), c)
        };
        let convert = &convert;
        s.spawn(move || {
            let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
            rpc::serve(server_t, 0, &store, convert, server_out.path()).unwrap();
        });
        let client = DistClient::new(client_t);
        for (q, want) in qs.iter().zip(baseline.iter()) {
            assert_eq!(&client.query(1, q).unwrap(), want);
        }
        client.shutdown(1).unwrap();
    });
}

/// A client rank that returns without sending `Shutdown` ends
/// `rpc::serve` cleanly: its `Communicator` drops as the rank leaves,
/// and the server's next receive reports the departure.
#[test]
fn serve_returns_when_its_client_rank_leaves_without_shutdown() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, _map) = placed(source.path(), root.path(), 2);
    let query = queries(&datasets).swap_remove(0);
    let store = store_over(&ngs_dist::rank_repo_dir(root.path(), 0));
    let local_out = tempdir().unwrap();
    let convert = ConvertConfig::with_ranks(1);
    let want = serve_query(&store, &query, &convert, local_out.path()).unwrap();

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

/// Socket world, R = 2, a server per replica rank: killing either
/// server's transport mid-plan fails the client over to the survivor
/// with byte-identical answers.
#[test]
fn socket_failover_after_rank_death_is_byte_identical() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    // Ranks 1 and 2 of the wire world hold the replicas; rank 0 is the
    // client. Place over server ranks only.
    let datasets = fixture(source.path());
    let server_ranks: BTreeSet<usize> = [1, 2].into_iter().collect();
    let cfg = PlacementConfig { replicas: 2, ..Default::default() };
    let map = place(&datasets, &server_ranks, &cfg);
    let root_path = root.path();
    replicate(source.path(), &map, root_path).unwrap();
    let qs = queries(&datasets);
    let convert = ConvertConfig::with_ranks(1);

    // Baseline from a rank-local store (replicas serve identical bytes).
    let local_out = tempdir().unwrap();
    let store = store_over(&ngs_dist::rank_repo_dir(root_path, 1));
    let baseline: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, &convert, local_out.path()).unwrap()).collect();

    for victim in [1usize, 2usize] {
        let world = SocketTransport::create_world(3).unwrap();
        let outs: Vec<_> = (0..3).map(|_| tempdir().unwrap()).collect();
        std::thread::scope(|s| {
            let (world, outs, qs, baseline, convert, map) =
                (&world, &outs, &qs, &baseline, &convert, &map);
            for rank in [1usize, 2usize] {
                s.spawn(move || {
                    let store = store_over(&ngs_dist::rank_repo_dir(root_path, rank));
                    rpc::serve(&world[rank], 0, &store, convert, outs[rank].path()).unwrap();
                });
            }
            let client = DistClient::new(&world[0]);
            // Healthy check on the wire first.
            let first = &qs[0];
            assert_eq!(&client.query_with_failover(map.replicas(&first.dataset), first, None).unwrap(), &baseline[0]);

            // Kill the victim mid-plan: its endpoint drops every
            // connection; the client sees transient failures and fails
            // over to the survivor.
            world[victim].close();
            for (q, want) in qs.iter().zip(baseline.iter()) {
                let got = client.query_with_failover(map.replicas(&q.dataset), q, None).unwrap();
                assert_eq!(&got, want, "query {q:?} diverged after killing rank {victim}");
            }
            // Unblock the surviving server.
            let survivor = if victim == 1 { 2 } else { 1 };
            world[survivor].close();
        });
    }
}

/// Injected delivery faults (drop / duplicate / delay / mid-frame
/// disconnect) between client and server must never change the bytes:
/// the req-id'd RPC retries, discards duplicates, and re-executes
/// idempotently.
#[test]
fn faulty_transport_rpc_is_byte_identical() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, _map) = placed(source.path(), root.path(), 2);
    let root_path = root.path();
    let qs = queries(&datasets);
    let convert = ConvertConfig::with_ranks(1);

    let local_out = tempdir().unwrap();
    let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
    let baseline: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, &convert, local_out.path()).unwrap()).collect();

    for seed in 0..12u64 {
        let plan = FaultPlan::random_transport(seed, 24);
        let world = Communicator::create_world(2);
        let server_out = tempdir().unwrap();
        std::thread::scope(|s| {
            let (qs, baseline, convert, plan) = (&qs, &baseline, &convert, &plan);
            let (client_t, server_t) = {
                let mut it = world.iter();
                let c = it.next().unwrap();
                (c, it.next().unwrap())
            };
            s.spawn(move || {
                let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
                rpc::serve(server_t, 0, &store, convert, server_out.path()).unwrap();
            });
            // Faults strike the client's side of the wire.
            let faulty = FaultyTransport::new(client_t, plan.clone());
            let client = DistClient::new(&faulty);
            for (q, want) in qs.iter().zip(baseline.iter()) {
                let got = client.query(1, q).unwrap();
                assert_eq!(&got, want, "seed {seed}: bytes diverged under {plan:?}");
            }
            // Shut down over the raw transport: a fault on the shutdown
            // exchange could strand the server waiting forever.
            DistClient::new(client_t).shutdown(1).unwrap();
        });
    }
}

/// Deterministic brown-out: every other request send (starting with the
/// first) is dropped before it reaches the wire, with a transient error
/// — the message is provably undelivered, so retrying is safe. Counts
/// total request sends so retry amplification is exactly observable.
struct BrownoutTransport<'a, T: Transport> {
    inner: &'a T,
    req_sends: AtomicU64,
}

impl<T: Transport> Transport for BrownoutTransport<'_, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>) -> ngs_formats::error::Result<()> {
        if tag == REQ_TAG {
            let n = self.req_sends.fetch_add(1, Ordering::SeqCst);
            if n.is_multiple_of(2) {
                return Err(Error::Io(std::io::Error::other("brown-out: send dropped")));
            }
        }
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: u64) -> ngs_formats::error::Result<Vec<u8>> {
        self.inner.recv(from, tag)
    }
}

/// Under a sustained brown-out (half of all sends dropped), a client
/// with a retry budget keeps total attempts within the budget bound —
/// `N + initial_tokens + ⌊deposit·N⌋` — instead of retrying every
/// request to the attempt cap, and the brown-out alone never quarantines
/// a healthy shard. Every arithmetic step is on deterministic integer
/// milli-tokens, so the whole trace is exact.
#[test]
fn retry_budget_bounds_attempts_under_brownout() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, _map) = placed(source.path(), root.path(), 2);
    let root_path = root.path();
    let qs = queries(&datasets);
    assert_eq!(qs.len(), 12, "the exact trace below assumes 12 requests");
    let convert = ConvertConfig::with_ranks(1);

    let local_out = tempdir().unwrap();
    let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
    let baseline: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, &convert, local_out.path()).unwrap()).collect();

    let world = Communicator::create_world(2);
    let server_out = tempdir().unwrap();
    let server_store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
    std::thread::scope(|s| {
        let (qs, baseline, convert, server_store) = (&qs, &baseline, &convert, &server_store);
        let (client_t, server_t) = {
            let mut it = world.iter();
            let c = it.next().unwrap();
            (c, it.next().unwrap())
        };
        s.spawn(move || {
            rpc::serve(server_t, 0, server_store, convert, server_out.path()).unwrap();
        });

        let brown = BrownoutTransport { inner: client_t, req_sends: AtomicU64::new(0) };
        let budget = Arc::new(RetryBudget::new(
            RetryBudgetConfig {
                deposit_milli: 100, // 10%: one earned retry per ten requests
                cap_tokens: 10,
                initial_tokens: 2,
                trickle_milli_per_sec: 0,
            },
            Arc::new(ManualClock::new()),
        ));
        let client = DistClient::with_retry_budget(&brown, Arc::clone(&budget));

        let (mut served, mut refused) = (0u64, 0u64);
        for (q, want) in qs.iter().zip(baseline.iter()) {
            match client.query(1, q) {
                Ok(bytes) => {
                    assert_eq!(&bytes, want, "a served answer must stay byte-identical");
                    served += 1;
                }
                Err(e) => {
                    assert!(e.is_transient(), "budget exhaustion surfaces as transient: {e}");
                    refused += 1;
                }
            }
        }

        // Exact budget arithmetic: 2 initial tokens + 12 deposits of
        // 0.1 afford exactly 3 retries; first-send drops whose retry
        // can't be paid fail, odd-numbered sends go through clean.
        assert_eq!(budget.withdrawals(), 3);
        assert_eq!(budget.exhausted(), 5);
        assert_eq!(served, 7);
        assert_eq!(refused, 5);
        // The headline bound: 15 = N + initial + ⌊deposit·N⌋ attempts
        // for 12 requests. A budget-free client under the same brown-out
        // pays 2 sends per request (24) — the budget caps amplification.
        assert_eq!(brown.req_sends.load(Ordering::SeqCst), 15);

        // The wire is clean (every delivered response was consumed):
        // a fresh budget-free client still gets every byte.
        let clean = DistClient::new(client_t);
        for (q, want) in qs.iter().zip(baseline.iter()) {
            assert_eq!(&clean.query(1, q).unwrap(), want);
        }
        clean.shutdown(1).unwrap();
    });

    // Brown-out is a delivery problem, not a data problem: nothing on
    // the serving rank may have been quarantined by it.
    assert_eq!(server_store.counters().quarantined, 0);
}

/// A saturated [`AdmissionGate`] sheds on the wire with the exact
/// depth-derived `retry_after` hint, the shed classifies as transient so
/// `query_with_failover` detours to an ungated replica byte-identically,
/// and releasing the permit restores service on the gated rank.
#[test]
fn gated_serve_sheds_with_hint_then_fails_over() {
    let source = tempdir().unwrap();
    let root = tempdir().unwrap();
    let (datasets, _map) = placed(source.path(), root.path(), 2);
    let root_path = root.path();
    let qs = queries(&datasets);
    let convert = ConvertConfig::with_ranks(1);

    let local_out = tempdir().unwrap();
    let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
    let baseline: Vec<Vec<u8>> =
        qs.iter().map(|q| serve_query(&store, q, &convert, local_out.path()).unwrap()).collect();

    // Wire ranks: 0 = client, 1 = gated server (capacity 1), 2 =
    // ungated server over the other replica's repo.
    let world = Communicator::create_world(3);
    let gate = AdmissionGate::new(1, Duration::from_millis(1));
    let outs: Vec<_> = (0..3).map(|_| tempdir().unwrap()).collect();
    std::thread::scope(|s| {
        let (qs, baseline, convert, gate, outs) = (&qs, &baseline, &convert, &gate, &outs);
        let (client_t, gated_t, healthy_t) = {
            let mut it = world.iter();
            let c = it.next().unwrap();
            let g = it.next().unwrap();
            (c, g, it.next().unwrap())
        };
        s.spawn(move || {
            let store = store_over(&ngs_dist::rank_repo_dir(root_path, 0));
            serve_gated(gated_t, 0, &store, convert, outs[1].path(), Some(gate.as_ref()))
                .unwrap();
        });
        s.spawn(move || {
            let store = store_over(&ngs_dist::rank_repo_dir(root_path, 1));
            rpc::serve(healthy_t, 0, &store, convert, outs[2].path()).unwrap();
        });

        let client = DistClient::new(client_t);
        let q0 = &qs[0];

        // Fill the gate's single slot from the test side; the server now
        // sheds before any decode, hinting unit × (inflight + 1) = 2 ms.
        let permit = gate.try_enter().unwrap();
        match client.query(1, q0) {
            Err(Error::Overloaded { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(2));
                assert!(Error::Overloaded { retry_after }.is_transient());
            }
            other => panic!("expected a shed, got {other:?}"),
        }

        // Shed-at-replica is a transient detour, not a dead end.
        let got = client.query_with_failover(&[1, 2], q0, None).unwrap();
        assert_eq!(&got, &baseline[0], "failover past a shedding rank must stay byte-identical");

        // Capacity returns with the permit; the gated rank serves again.
        drop(permit);
        for (q, want) in qs.iter().zip(baseline.iter()) {
            assert_eq!(&client.query(1, q).unwrap(), want);
        }
        client.shutdown(1).unwrap();
        client.shutdown(2).unwrap();
    });
}
