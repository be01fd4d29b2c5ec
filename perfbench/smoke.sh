#!/usr/bin/env bash
# Contract smoke test: build, run every workload for 2 s with --trace 0 and
# --trace 1 exactly as the driver does, validate each result line against
# BENCHMARK.json, and check that a run leaves neither a work directory nor
# a process behind. Run from the root of the checkout:
#
#     bash perfbench/smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mapfile -t COMMAND < <(python3 -c '
import json
print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

validate() { # workload trace  (result text on stdin)
    python3 -c '
import json, sys
workload, trace = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True and result["failed"] == 0, result
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
want = spec["end_to_end"] if trace == "0" else spec["per_layer"]
assert list(result["metrics"]) == [m["name"] for m in want], "metric names or order"
for m in want:
    got = result["metrics"][m["name"]]
    assert sorted(got) == ["unit", "value"] and got["unit"] == m["unit"], (m, got)
    assert isinstance(got["value"], (int, float)) and got["value"] == got["value"], (m, got)
    if trace == "0":
        assert got["value"] != 0, (m, got)
printed = [l.split()[0] for l in lines[:-1]]
assert printed == [m["name"] for m in want], "every metric is printed by name"
attempted = result["attempted"]
print(f"ok  {workload:<15} --trace {trace}  attempted={attempted}")
' "$1" "$2"
}

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

status=0
for workload in $(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
        if ! "${COMMAND[@]}" --workload "$workload" --seed 7 --seconds 2 --trace "$trace" \
            | validate "$workload" "$trace"; then
            echo "FAILED  $workload --trace $trace" >&2
            status=1
        fi
    done
done

# Work directories are removed on success and on failure, and every child
# process has been waited for.
if compgen -G "perfbench/work/run-*" >/dev/null; then
    echo "FAILED  a run left its work directory behind" >&2
    status=1
fi
if pgrep -f "perfbench (fixture|reference|memory|measure) " >/dev/null; then
    echo "FAILED  a run left a child process behind" >&2
    status=1
fi

# A directory holding only BENCHMARK.json and perfbench/ cannot build (the
# library crates are missing): the command must exit non-zero, and without
# a result line.
bare="perfbench/work/bare-$$"
mkdir -p "$bare/perfbench"
cp BENCHMARK.json "$bare/"
cp -r perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src perfbench/tests "$bare/perfbench/"
if out=$(cd "$bare" && CARGO_TARGET_DIR=.bench_build "${COMMAND[@]}" \
        --workload ingest --seed 1 --seconds 1 --trace 0 2>/dev/null); then
    echo "FAILED  the command succeeded without the repository" >&2
    status=1
elif grep -q '"metrics"' <<<"$out"; then
    echo "FAILED  the command printed a result without the repository" >&2
    status=1
else
    echo "ok  bare directory: non-zero exit, no result"
fi
rm -rf "$bare"
rmdir perfbench/work 2>/dev/null || true

exit $status
