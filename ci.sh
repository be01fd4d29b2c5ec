#!/usr/bin/env sh
# Offline CI gate: everything must pass before merging.
#
#   ./ci.sh            # build + test + clippy (warnings are errors)
#   ./ci.sh --quick    # skip the release build
#
# The workspace is fully vendored (shims/* stand in for crates.io
# dependencies), so this runs with no network access.
set -eu

quick=0
[ "${1:-}" = "--quick" ] && quick=1

root=$(cd "$(dirname "$0")" && pwd)
smoke=$(mktemp -d)
# Every perfbench build below rewrites perfbench/Cargo.lock, which
# predates the workspace's current dependency graph (ROADMAP 1(f)) and
# changes only with the benchmark itself: put the copy found at the
# start back on exit, so CI leaves the tree as it found it.
cp "$root/perfbench/Cargo.lock" "$smoke/perfbench.lock"
trap 'cp "$smoke/perfbench.lock" "$root/perfbench/Cargo.lock"; rm -rf "$smoke"' EXIT

# The repro drills write their BENCH_*.json into the working directory:
# run them in the scratch directory, so the committed results (recorded
# at --scale 1.0) are never overwritten at smoke scale.
repro() {
    (cd "$smoke" && cargo run --release --quiet --manifest-path "$root/Cargo.toml" \
        -p ngs-bench --bin repro -- "$@")
}

echo "==> cargo build --workspace --all-targets"
cargo build --workspace --all-targets

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release
fi

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo clippy --workspace --all-targets (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Fault matrix: the corruption suites run in the workspace tests above;
# here, by name, the engine's transient-retry byte-identity, the shard
# store's quarantine of damaged shards, and the power-cut matrix: kill
# preprocessing (and a rank-count rerun, and collate spill/merge) at
# swept byte offsets, then assert the repository reopens clean and
# resume restores a byte-identical shard set (DESIGN.md §7.5).
echo "==> fault matrix (engine retry, quarantine, power-cut recovery)"
cargo test --quiet -p ngs-repro --test query_engine --test crash_recovery
cargo test --quiet -p ngs-query --lib store

# Streaming pipeline smoke: a small seeded dataset through both graphs,
# byte-identity against the batch converter, plus the quarantine /
# transient-retry drain tests under injected faults (DESIGN.md §8).
echo "==> ngsp pipeline smoke (both graphs, byte-identity, fault drain)"
cargo run -p ngs-cli --bin ngsp -- \
    generate --records 1500 --out "$smoke/in.bam" --sorted
cargo run -p ngs-cli --bin ngsp -- \
    convert "$smoke/in.bam" --to sam --out "$smoke/batch" --ranks 1
cargo run -p ngs-cli --bin ngsp -- \
    pipeline "$smoke/in.bam" --to sam --out "$smoke/stream" \
    --workers 2 --batch 128 --bound 2
cmp "$smoke/batch/in.part0000.sam" "$smoke/stream/in.part0000.sam"
cargo run -p ngs-cli --bin ngsp -- \
    pipeline "$smoke/in.bam" --analyze --rounds 4 > /dev/null
cargo test --quiet -p ngs-pipeline --test streaming_identity -- \
    corrupt_shard_is_quarantined_and_graph_drains \
    transient_faults_are_retried_to_identical_output

# Collate smoke: the three keyed-regroup workloads over a seeded
# duplicate-bearing fixture. Each runs once in memory and once with a
# tiny spill budget (forcing ShardRepo-published runs + k-way merge);
# output must be byte-identical either way (DESIGN.md §10.5), and the
# identity/crash proptest suites must pass.
echo "==> ngsp collate/markdup/sort smoke (spill vs in-memory byte-identity)"
cargo run -p ngs-cli --bin ngsp -- \
    generate --records 1200 --duplicates 0.15 --out "$smoke/dup.bam"
for cmd in "sort --by coord" "sort --by name" "collate" "markdup"; do
    cargo run -p ngs-cli --bin ngsp -- \
        $cmd "$smoke/dup.bam" --out "$smoke/mem.bam" > /dev/null
    cargo run -p ngs-cli --bin ngsp -- \
        $cmd "$smoke/dup.bam" --out "$smoke/spill.bam" \
        --spill-budget 8000 --workers 2 > /dev/null
    cmp "$smoke/mem.bam" "$smoke/spill.bam"
done
cargo test --quiet -p ngs-collate --test collate_identity
echo "==> repro collate (shuffle scaling + spill sweep, BENCH_collate.json)"
repro collate --scale 0.05 > /dev/null
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$smoke/BENCH_collate.json"

# Observability smoke: the unified registry report must stay valid JSON
# (CI is the consumer the byte-determinism contract protects), and the
# overhead experiment must run end to end (DESIGN.md §9).
echo "==> ngsp stats smoke (registry JSON parses, trace is valid JSONL)"
cargo run -p ngs-cli --bin ngsp -- stats --records 800 --json \
    | python3 -c 'import json,sys; json.load(sys.stdin)'
cargo run -p ngs-cli --bin ngsp -- \
    pipeline "$smoke/in.bam" --to sam --out "$smoke/trace-out" \
    --trace "$smoke/pipeline.trace" --workers 2 > /dev/null
python3 -c 'import json,sys; [json.loads(l) for l in open(sys.argv[1])]' \
    "$smoke/pipeline.trace"
echo "==> repro obs (instrumentation overhead, BENCH_obs.json)"
repro obs --scale 0.05 > /dev/null
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$smoke/BENCH_obs.json"

# Query-scaling smoke: the concurrency battery behind the segmented
# store + single-flight decode (DESIGN.md §11) and engine byte-identity
# across workers x segments. Serving throughput is timed by perfbench
# (serve_warm, serve_churn_v2), run at the end.
echo "==> query-scaling (segmented store + single-flight + engine identity)"
cargo test --quiet -p ngs-query --test store_concurrency --test single_flight
cargo test --quiet -p ngs-repro --test query_engine

# Dist smoke: the distributed tier's acceptance gates (DESIGN.md §12) —
# placement math stays proptest-pinned, and the failover suite kills
# each rank in turn, fails over on the socket loopback, and drives RPC
# through injected delivery faults, all byte-identical to the healthy
# run; repro dist emits parseable JSON.
echo "==> dist-smoke (placement proptests + failover suite)"
cargo test --quiet -p ngs-dist --test placement_props --test failover
echo "==> repro dist (placement scaling + failover latency, BENCH_dist.json)"
repro dist --scale 0.05 > /dev/null
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$smoke/BENCH_dist.json"

# Load-smoke: graceful degradation under sustained overload
# (DESIGN.md §13). The overload suite checks typed shed-before-decode,
# byte-identity of accepted work under lossless delivery faults, the
# exact ledger drain and no quarantine; `repro load` fails unless the
# goodput *rate* at 2x offered load holds at >= 80% of the rate at 1x
# (shedding the excess, not collapsing).
echo "==> load-smoke (overload + deadline suites, goodput-retention gate)"
cargo test --quiet -p ngs-query --test overload --test deadline_edges
echo "==> repro load (open-loop overload sweep + goodput gate, BENCH_load.json)"
repro load --scale 0.05 > /dev/null

# Codec gate: the DEFLATE/CRC kernels (DESIGN.md §15) against the
# hand-derived golden vectors, the bit-at-a-time differential oracle and
# the pinned encoder corpus; both decompression-bomb regressions; the
# byte pins (BGZF level-6 output and v1 shards byte-stable, v2 shards
# size-monotone); the never-panics corpus with the bomb shapes in it;
# and no `unsafe` anywhere in the codec or the shard layouts.
echo "==> codec (golden vectors, differential oracle, bombs, byte pins, no unsafe)"
cargo test --quiet -p ngs-bgzf --test golden --test proptest_codec --test corrupt_input
cargo test --quiet -p ngs-bamx --test corrupt_input
cargo test --quiet -p ngs-repro --test codec_pins
cargo test --quiet -p ngs-fault --test decode_never_panics
if grep -rn "unsafe" crates/bgzf/src crates/bamx/src; then
    echo "unsafe is not allowed in crates/bgzf/src or crates/bamx/src" >&2
    exit 1
fi

# Ingest gate: the preprocessing path (DESIGN.md §16). The equivalence
# proptests — read-ahead reader ≡ streaming reader (in proptest_codec,
# run by the codec gate above), lengths measured off BAM bodies and SAM
# lines ≡ `BamxLayout::observe`, BAM bodies transcoded and SAM lines
# parsed into fields ≡ the decoded/parsed records written (bytes and
# errors), writer-built BAIX ≡ `Baix::build` — the rank-count
# byte-identity tests against the sequential reference (BAM v1/v2,
# foreign BAM, SAMX v1/v2), the failure contract (typed error, the first
# in stream order, nothing recorded, helpers joined), the BAIX suite in
# the *release* profile (the profile that caught the `locate`
# saturation bug), the never-panics corpus through the read-ahead
# reader, clippy on the decode crates (the view, fields and BAMX record
# codec modules deny lossy casts), and a build of the untouched benchmark
# package, so an API break against `perfbench/` fails here and not in the
# benchmark pipeline. The read side rides along (DESIGN.md §17): the
# hand-derived v1/v2 golden vectors, written fields ≡ the views read
# back and every target's `convert_fields` ≡ `convert` (proptest_fields),
# and coverage bins equal across layouts with v2 reading only the CIGAR.
echo "==> ingest (read-ahead ≡ streaming, measured lengths ≡ observe, fields ≡ records, views ≡ records, rank-count identity, perfbench builds)"
cargo test --quiet -p ngs-bgzf --test proptest_codec read_ahead
cargo test --quiet -p ngs-bgzf --lib readahead
cargo test --quiet -p ngs-repro --test proptest_lengths --test proptest_fields --test preprocess_identity --test preprocess_faults
cargo test --quiet -p ngs-bamx --test golden
cargo test --quiet -p ngs-repro --test coverage_fields
cargo test --quiet -p ngs-converter --lib transcode
cargo test --quiet --release -p ngs-bamx --lib baix
cargo test --quiet -p ngs-fault --test decode_never_panics
cargo clippy -p ngs-formats -p ngs-bamx -- -D warnings
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# BAMX v2 smoke: columnar-layout acceptance (DESIGN.md §14). The
# corruption suites run in the workspace tests above; here v1 ≡ v2
# byte-identity through the engine, and a positions-only projected scan
# reading strictly fewer shard bytes than a full scan. The v2 shard being
# smaller than v1 is pinned by codec_pins (codec gate above).
echo "==> bamx2-smoke (v1/v2 identity + projection reads fewer bytes)"
cargo test --quiet -p ngs-repro --test bamx_v2
cargo test --quiet -p ngs-bamx --test projection_bytes

# Figures: every paper table and figure regenerates from the threaded
# entry points, timed by their simulated-cluster busy time (DESIGN.md
# §4b), and no sequential twin or second serving path creeps back.
echo "==> figures (table1 + fig6-fig12 at smoke scale, no *_simulated twins)"
repro table1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 --scale 0.02 --cores 1,2,4,8 > /dev/null
if grep -rn "_simulated" crates/*/src crates/bench; then
    echo "a *_simulated twin is back: time the threaded entry point instead" >&2
    exit 1
fi
if grep -n "ngs-pipeline" crates/query/Cargo.toml; then
    echo "ngs-query serves Convert through convert_index_list only" >&2
    exit 1
fi

# The benchmark: the only timer of the serving, streaming-graph and v2
# paths. Every workload at --trace 0 and 1 for 2 s, each result line
# validated against BENCHMARK.json, plus the bare-directory check.
echo "==> perfbench smoke (every workload, both trace modes, result contract)"
bash perfbench/smoke.sh

echo "==> ci.sh: all green"
