#!/usr/bin/env bash
# CI gate, staged:
#
#   1. analyze - build wc-analyze and run its token rules (D1-D4) over every
#                file of src/ and bench/. Any unsuppressed finding, or a
#                reason-less or unknown-rule suppression, fails the gate
#                before we spend time on the build matrix. The run is
#                budgeted at <5s wall so it stays a pre-matrix gate, not a
#                build-matrix peer. (ctest runs the same pass as
#                lint.tree_is_clean.)
#   2. matrix  - build and test the Release and ASan+UBSan configurations.
#                The sanitizer run is what gives the determinism goldens and
#                the randomized invariant fuzzer their teeth: an optimization
#                that corrupts memory or relies on UB fails here even if its
#                output happens to look right.
#                ctest includes every examples/ binary as a smoke test and
#                scheduler_lab's bad-option cases, so they run sanitized too.
#                The invariant fuzzer (the conformance suite's gate 1, every
#                policy under hotplug churn), the allocation budget (no heap
#                allocation per event, measured by a counting operator new)
#                and the RqLoad memo's fold-order test run sanitized even
#                when the caller passes an -R filter; gate 1 then runs again
#                sanitized under WC_FUZZ_SEED=1, 2 and 3.
#   3. tsan    - build the TSan configuration and run the determinism layer
#                (golden hashes + sweep thread-count invariance) under it, so
#                the parallel sweep runner's "same report at -j1/-j2/-j4"
#                claim is also a "no data races" claim.
#   4. bench   - smoke-run the Release bench binaries with a tiny budget:
#                the google-benchmark component diagnostics (one repetition,
#                stock --benchmark_out JSON, grepped for the diagnostics that
#                must stay registered) and a scaled-down sweep, which must
#                exit 0. Then smoke-runs scripts/ab_bench.sh, the paired A/B
#                driver over simbench that every perf claim comes from, in
#                its self-vs-self mode (one pair, 1 s runs). Numbers from
#                this stage are meaningless; only exit status and the shape
#                of out/BENCH_ab.json matter. Last, the perf trajectory
#                BENCH_simbench.json (appended by `ab_bench.sh --record`)
#                must parse as an array of records, and the records of the
#                last commit and of its parent must be an unchanged prefix of
#                it: the trajectory only grows.
#   5. stream  - the streaming-telemetry soak: one >=10M-event random mix in
#                a single pass with the bounded-memory pipeline attached.
#                The binary's own WC_CHECKs enforce the contract (every
#                event analyzed, peak aggregator memory within the
#                O(tasks+cpus) budget), so this stage fails the moment the
#                stream stops being one-pass-bounded. Also runs the streamed
#                sweep matrix (--telemetry), whose pure-observer cross-check
#                re-runs the scenarios bare and compares combined hashes.
#   6. arena   - the policy-arena gate: the cross-policy conformance suite
#                (invariant fuzzing, recorder-vs-stream differential fold,
#                per-policy goldens, the paper-bug expectation matrix, CFS
#                bit-exactness) in Release AND ASan+UBSan — run explicitly so
#                a caller's -R filter on the matrix can't skip it — plus a
#                sweep_driver --policy=all smoke that must print its
#                leaderboard.
#   7. fleet   - the sharded-sweep kill/resume drill: name a small grid
#                by its --grid spec, run a single-process reference, then run
#                two concurrent shard processes into one results store —
#                SIGKILLing one mid-run and resuming it — and require the
#                wc-trend merge of the sharded store to be byte-identical
#                (cmp) to the reference merge. This is the fleet service's
#                whole contract in one stage: claims survive death, receipts
#                resume exactly, and sharding never changes a hash.
#   8. simbench - the outside-in benchmark's own tests: build simbench from
#                this checkout and run `python3 simbench/run.py --selftest`,
#                which must report 0 failed. A src/ change that breaks the
#                benchmark's build or its pinned simbench/outcomes.tsv fails
#                here.
#
# Usage: scripts/ci.sh [extra ctest args...]
#   e.g. scripts/ci.sh -R Determinism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==== [analyze] build wc-analyze ===="
cmake --preset release
cmake --build --preset release -j "$JOBS" --target wc-analyze
echo "==== [analyze] wc-analyze src bench (D1-D4) ===="
ANALYZE_T0="$(date +%s%3N)"
./build-release/src/tools/wc-analyze src bench
ANALYZE_T1="$(date +%s%3N)"
ANALYZE_MS="$((ANALYZE_T1 - ANALYZE_T0))"
echo "wc-analyze wall time: ${ANALYZE_MS}ms"
# The analyzer earns its pre-matrix slot by being effectively free; if the
# whole-tree pass ever crosses 5s the gate itself has regressed.
test "$ANALYZE_MS" -lt 5000

for preset in release asan-ubsan; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$JOBS" "$@"
done

echo "==== [asan-ubsan] fuzz suite (default seed, then seeds 1-3) + allocation budget + memo fold order ===="
# Always run the randomized invariant fuzzer sanitized, even when the caller
# filtered the matrix above with -R: the fuzzer (gate 1 of the conformance
# suite, under every policy) is where hotplug churn and the RqLoad memo
# cross-checks get their teeth, and FuzzInvariants holds its two directed
# tests. The allocation budget runs here for the same reason: it is
# the only check that the event path does not allocate per event.
# NonLeftmostPickRekeysRqLoadMemo is the directed check that a non-leftmost
# pick invalidates the memo (the fold-order bug). Gate 1 checks every queued
# thread against its affinity mask under churn too, so it also runs on three
# more fuzz seeds: each seed draws other machines, mixes and hotplug toggles.
ctest --preset asan-ubsan -j "$JOBS" \
  -R 'PolicyConformance\.MechanismInvariants|FuzzInvariants\.|AllocBudgetTest\.|NonLeftmostPickRekeysRqLoadMemo'
for seed in 1 2 3; do
  WC_FUZZ_SEED="$seed" ctest --preset asan-ubsan -j "$JOBS" -R 'PolicyConformance\.MechanismInvariants'
done

echo "==== [tsan] configure ===="
cmake --preset tsan
echo "==== [tsan] build ===="
cmake --build --preset tsan -j "$JOBS"
echo "==== [tsan] test (Determinism.*) ===="
# The test preset filters to the determinism layer: golden trace hashes plus
# SweepThreadCountInvariance, which exercises RunSweep at 1/2/4 threads.
ctest --preset tsan -j "$JOBS"

echo "==== [bench] smoke (tiny budget, Release) ===="
SMOKE_OUT="$(mktemp -d)"
trap 'rm -rf "$SMOKE_OUT"' EXIT
# The system google-benchmark predates the "0.001s" suffix syntax; pass a
# bare double.
./build-release/bench/micro_sched_ops --benchmark_min_time=0.001 \
  --benchmark_out="$SMOKE_OUT/micro.json" --benchmark_out_format=json
# The per-policy setup diagnostic and the balance-pass member-loop
# diagnostics must stay registered.
grep -q 'BM_SimulatorSetup' "$SMOKE_OUT/micro.json"
grep -q 'BM_CpuSetIterate/64' "$SMOKE_OUT/micro.json"
grep -q 'BM_TraceHashConsidered/64' "$SMOKE_OUT/micro.json"
# The event-engine diagnostic at nas_spin's pending depth.
grep -q 'BM_EventDispatch/44' "$SMOKE_OUT/micro.json"
./build-release/bench/sweep_driver --out="$SMOKE_OUT" --scale=0.02 --random=1
echo "==== [bench] ab_bench.sh harness smoke (self-vs-self, one pair) ===="
scripts/ab_bench.sh --smoke
test -s out/BENCH_ab.json
grep -q '"median_ratio"' out/BENCH_ab.json
echo "==== [bench] BENCH_simbench.json parses; earlier records unchanged ===="
python3 - <<'PY'
import json
import subprocess
import sys


def load(text, where):
    records = json.loads(text)
    if not isinstance(records, list) or not records:
        sys.exit(f"{where}: not a non-empty JSON array")
    for i, r in enumerate(records):
        ok = (isinstance(r, dict) and isinstance(r.get("commit"), str)
              and isinstance(r.get("pairs"), int) and isinstance(r.get("workloads"), dict)
              and r["workloads"])
        ok = ok and all(isinstance(m.get(name), (int, float))
                        for m in r["workloads"].values()
                        for name in ("run_s", "setup_s", "peak_rss_mb"))
        if not ok:
            sys.exit(f"{where}: record {i} lacks commit, pairs or a workload's "
                     "run_s/setup_s/peak_rss_mb")
    return records


with open("BENCH_simbench.json") as f:
    current = load(f.read(), "BENCH_simbench.json")
for rev in ("HEAD", "HEAD~1"):
    shown = subprocess.run(["git", "show", f"{rev}:BENCH_simbench.json"],
                           capture_output=True, text=True)
    if shown.returncode != 0:
        continue  # No such commit, or the file is newer than it.
    earlier = load(shown.stdout, f"{rev}:BENCH_simbench.json")
    if current[:len(earlier)] != earlier:
        sys.exit(f"BENCH_simbench.json: a record committed at {rev} changed or went")
print(f"BENCH_simbench.json: {len(current)} records")
PY

echo "==== [stream] big-mix soak (>=10M events, bounded memory) ===="
./build-release/bench/sweep_driver --out="$SMOKE_OUT" --seed=4242 --big-mix=10000000
echo "==== [stream] streamed sweep matrix + pure-observer cross-check ===="
./build-release/bench/sweep_driver --out="$SMOKE_OUT" --threads=2 --scale=0.02 \
  --random=1 --telemetry="$SMOKE_OUT/stream"
test -s "$SMOKE_OUT/stream/sweep_stream.jsonl"
# Every streamed summary is within its memory budget, and every non-empty
# machine distribution reads min <= p50 <= p95 <= p99 <= max.
python3 - "$SMOKE_OUT/stream/sweep_stream.jsonl" <<'PY'
import json, sys
for line in open(sys.argv[1]):
    row = json.loads(line)
    s = row["stream"]
    if s["within_budget"] is not True:
        sys.exit("%s: stream over budget" % row["name"])
    for metric, d in s["machine"].items():
        chain = [d["min_ns"], d["p50_ns"], d["p95_ns"], d["p99_ns"], d["max_ns"]]
        if d["count"] > 0 and chain != sorted(chain):
            sys.exit("%s %s: quantiles out of order: %s" % (row["name"], metric, chain))
PY

echo "==== [arena] cross-policy conformance (Release + ASan/UBSan) ===="
ctest --preset release -j "$JOBS" -R 'modsched\.'
ctest --preset asan-ubsan -j "$JOBS" -R 'modsched\.'
echo "==== [arena] sweep_driver --policy=all smoke ===="
./build-release/bench/sweep_driver --out="$SMOKE_OUT" --scale=0.02 --random=1 \
  --policy=all | tee "$SMOKE_OUT/arena.log"
grep -q '^leaderboard' "$SMOKE_OUT/arena.log"

echo "==== [fleet] grid spec + sharded kill/resume + merge bit-identity ===="
FLEET="$SMOKE_OUT/fleet"
mkdir -p "$FLEET"
SWEEP=./build-release/bench/sweep_driver
TREND=./build-release/src/tools/wc-trend
# A grid big enough that a kill lands mid-run but small enough for CI:
# 2 topos x 2 feature sets x 2 policies x 2 mixes x 2 seeds = 32 scenarios.
# Every shard and merge below expands this same spec in process.
GRID='topo=flat1x4,flat2x4;workload=mix;feat=stock,fixed;policy=cfs,o1;mix=6,10;seeds=2;scale=0.02;horizon_ms=40;seed=7'
# Single-process reference run and merge.
"$SWEEP" --shard=0/1 --grid="$GRID" --results="$FLEET/ref"
"$TREND" merge --grid="$GRID" --results="$FLEET/ref" \
  --out="$FLEET/ref_merged.jsonl"
# Two concurrent shard processes into one store; SIGKILL shard 1 mid-run.
# The kill may land after shard 1 already exited on a fast host — that is
# fine, the drill only requires that a killed shard resumes correctly.
"$SWEEP" --shard=0/2 --grid="$GRID" --results="$FLEET/two" &
FLEET_S0=$!
"$SWEEP" --shard=1/2 --grid="$GRID" --results="$FLEET/two" &
FLEET_S1=$!
sleep 0.2
kill -9 "$FLEET_S1" 2>/dev/null || true
wait "$FLEET_S1" || true   # Reap; nonzero/SIGKILL status is the point.
wait "$FLEET_S0"           # Shard 0 must succeed on its own.
# Resume the killed shard: its flock claims died with it, its receipt file
# may have a dirty tail; the resumed process self-repairs and finishes
# whatever the store still misses.
"$SWEEP" --shard=1/2 --grid="$GRID" --results="$FLEET/two"
"$TREND" merge --grid="$GRID" --results="$FLEET/two" \
  --out="$FLEET/two_merged.jsonl"
# The fleet contract: sharded + killed + resumed == single process, to the byte.
cmp "$FLEET/ref_merged.jsonl" "$FLEET/two_merged.jsonl"
"$TREND" diff "$FLEET/ref_merged.jsonl" "$FLEET/two_merged.jsonl" | grep -q 'identical'
# The receipts' fingerprints tie a store to its grid: merging the reference
# store under another base seed must fail verification (exit 1).
RC=0
"$TREND" merge --grid="${GRID%seed=7}seed=8" --results="$FLEET/ref" >/dev/null || RC=$?
if [ "$RC" -ne 1 ]; then
  echo "wc-trend merge under a different --grid exited $RC, want 1" >&2
  exit 1
fi
# Malformed numeric flags must take the hard-error path, not a stoi throw.
if "$SWEEP" --threads=bogus 2>/dev/null; then
  echo "sweep_driver accepted a malformed --threads value" >&2
  exit 1
fi
# A signed horizon and a repeated axis value are --grid parse errors (exit 2),
# not a wrapped horizon or a duplicate-name abort.
for BAD_GRID in 'topo=flat1x4;horizon_ms=-1' 'topo=flat1x4,flat1x4;horizon_ms=40'; do
  RC=0
  "$SWEEP" --shard=0/1 --grid="$BAD_GRID" --results="$FLEET/bad_grid" 2>/dev/null || RC=$?
  if [ "$RC" -ne 2 ]; then
    echo "sweep_driver --shard --grid='$BAD_GRID' exited $RC, want 2" >&2
    exit 1
  fi
done

echo "==== [simbench] selftest (build + pinned outcomes) ===="
SIMBENCH_LOG="$SMOKE_OUT/simbench_selftest.log"
python3 simbench/run.py --selftest | tee "$SIMBENCH_LOG"
grep -Eq '^selftest: [0-9]+ checks, 0 failed$' "$SIMBENCH_LOG"

echo "CI OK: analyze + release + asan-ubsan + tsan + bench smoke + stream soak + policy arena + fleet drill + simbench selftest all green."
