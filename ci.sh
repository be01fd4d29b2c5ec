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

# Fault matrix: the corruption suites run in the workspace tests above,
# but the chaos verifier exercises the full engine retry/quarantine path
# end to end and exits nonzero on any failure-model violation.
echo "==> ngsp chaos (fault-injection verify)"
cargo run -p ngs-cli --bin ngsp -- chaos --plans 48 --records 300

# Power-cut matrix: kill preprocessing at evenly spaced (plus tail) byte
# offsets of the publication stream, then assert the repository reopens
# clean, resume restores a byte-identical shard set, and the query
# engine serves identical bytes (DESIGN.md §7.5).
echo "==> ngsp chaos --crash (power-cut recovery matrix)"
cargo run -p ngs-cli --bin ngsp -- chaos --crash --points 8 --records 300

# Streaming pipeline smoke: a small seeded dataset through both graphs,
# byte-identity against the batch converter, plus the quarantine /
# transient-retry drain tests under injected faults (DESIGN.md §8).
echo "==> ngsp pipeline smoke (both graphs, byte-identity, fault drain)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
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
cargo run --release -p ngs-bench --bin repro -- collate --scale 0.05 > /dev/null
python3 -c 'import json; json.load(open("BENCH_collate.json"))'

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
cargo run --release -p ngs-bench --bin repro -- obs --scale 0.05 > /dev/null
python3 -c 'import json; json.load(open("BENCH_obs.json"))'

# Query-scaling smoke: the concurrency battery behind the segmented
# store + single-flight decode (DESIGN.md §11), then a smoke-scale
# BENCH_query.json regeneration gated on the regression this exists to
# kill — warm throughput at 8 workers must not drop below 1 worker.
echo "==> query-scaling (segmented store + single-flight + engine identity)"
cargo test --quiet -p ngs-query --test store_concurrency --test single_flight
cargo test --quiet -p ngs-repro --test query_engine
echo "==> repro query (worker-scaling gate, BENCH_query.json)"
cargo run --release -p ngs-bench --bin repro -- query --scale 0.05 > /dev/null
python3 - <<'PY'
import json
rows = json.load(open("BENCH_query.json"))["rows"]
warm = {r["workers"]: r["warm"]["requests_per_sec"] for r in rows}
assert warm[8] >= warm[1], f"warm req/s regressed with workers: {warm}"
print(f"warm req/s 1->8 workers: {warm[1]} -> {warm[8]}")
PY

# Dist smoke: the distributed tier's acceptance gates (DESIGN.md §12) —
# placement math stays proptest-pinned, the socket loopback failover
# path answers byte-identically with a dead rank, the chaos matrix
# (kill-a-rank + injected delivery faults) passes, and repro dist
# emits parseable JSON.
echo "==> dist-smoke (placement proptests + socket failover + chaos matrix)"
cargo test --quiet -p ngs-dist --test placement_props
cargo test --quiet -p ngs-dist --test failover -- \
    socket_failover_after_rank_death_is_byte_identical
cargo run -p ngs-cli --bin ngsp -- chaos --dist --plans 8 --records 200
cargo run -p ngs-cli --bin ngsp -- \
    dist --transport socket --kill 0 --records 200 > /dev/null
echo "==> repro dist (placement scaling + failover latency, BENCH_dist.json)"
cargo run --release -p ngs-bench --bin repro -- dist --scale 0.05 > /dev/null
python3 -c 'import json; json.load(open("BENCH_dist.json"))'

# Load-smoke: graceful degradation under sustained overload
# (DESIGN.md §13). The deadline/priority/shed acceptance suites run in
# the workspace tests above; here the overload chaos matrix verifies
# typed shed-before-decode + byte-identity + no-quarantine under
# delivery faults end to end, and a smoke-scale BENCH_load.json is
# gated on the headline property: goodput *rate* at 2x offered load must
# hold at >= 80% of the rate at 1x (shedding the excess, not collapsing;
# completion counts are not comparable across rows because the open-loop
# replay span shrinks as the offered rate rises).
echo "==> load-smoke (overload chaos matrix + goodput-retention gate)"
cargo test --quiet -p ngs-query --test overload --test deadline_edges
cargo run -p ngs-cli --bin ngsp -- chaos --overload --plans 4 --records 200
echo "==> repro load (open-loop overload sweep, BENCH_load.json)"
cargo run --release -p ngs-bench --bin repro -- load --scale 0.05 > /dev/null
python3 - <<'PY'
import json
rows = json.load(open("BENCH_load.json"))["rows"]
rps = {r["offered_multiplier"]: r["goodput_rps"] for r in rows}
assert rps[2.0] >= 0.8 * rps[1.0], \
    f"goodput rate collapsed under 2x overload: {rps}"
print(f"goodput req/s 1x -> 2x offered: {rps[1.0]} -> {rps[2.0]}")
PY

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
# reader, clippy on the decode crates (the new view and fields modules
# deny lossy casts), and a build of the untouched benchmark package, so
# an API break against `perfbench/` fails here and not in the benchmark
# pipeline.
echo "==> ingest (read-ahead ≡ streaming, measured lengths ≡ observe, fields ≡ records, rank-count identity, perfbench builds)"
cargo test --quiet -p ngs-bgzf --test proptest_codec read_ahead
cargo test --quiet -p ngs-bgzf --lib readahead
cargo test --quiet -p ngs-repro --test proptest_lengths --test proptest_fields --test preprocess_identity --test preprocess_faults
cargo test --quiet -p ngs-converter --lib transcode
cargo test --quiet --release -p ngs-bamx --lib baix
cargo test --quiet -p ngs-fault --test decode_never_panics
cargo clippy -p ngs-formats -p ngs-bamx -- -D warnings
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# BAMX v2 smoke: columnar-layout acceptance (DESIGN.md §14). The
# corruption and byte-identity suites run in the workspace tests above;
# here the v2 chaos sweep runs end to end and a smoke-scale
# BENCH_bamx2.json is gated on the two headline properties: the v2 shard
# is smaller than v1 on disk, and a positions-only projected scan
# decodes strictly fewer column bytes than a full scan.
echo "==> bamx2-smoke (v1/v2 identity + projection gate)"
cargo test --quiet -p ngs-repro --test bamx_v2
echo "==> repro bamx2 (columnar size + projection gate, BENCH_bamx2.json)"
cargo run --release -p ngs-bench --bin repro -- bamx2 --scale 0.05 > /dev/null
python3 - <<'PY'
import json
b = json.load(open("BENCH_bamx2.json"))
assert b["v2_shard_bytes"] < b["v1_shard_bytes"], \
    f"v2 shard not smaller: {b['v2_shard_bytes']} vs {b['v1_shard_bytes']}"
assert b["positions_scan_column_bytes"] < b["full_scan_column_bytes"], \
    "projection decoded no fewer bytes than a full scan"
print(f"v2/v1 size ratio: {b['v2_over_v1_size_ratio']}; "
      f"projected scan: {b['positions_scan_column_bytes']} "
      f"of {b['full_scan_column_bytes']} column bytes")
PY

echo "==> ci.sh: all green"
