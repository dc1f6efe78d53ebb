#!/usr/bin/env bash
# Paired A/B driver over the outside-in benchmark, simbench/run.py: the one
# harness behind every perf claim.
#
# The baseline rev is checked out into a scratch worktree (build-ab/tree);
# the other side is this working tree. Each tree builds its own simbench
# (<tree>/.bench_build). Runs alternate pair by pair, base first on even
# pairs and head first on odd ones, so slow drift in host load cancels out
# of each pair instead of biasing one side. On its turn a side runs
#   python3 <tree>/simbench/run.py --workload W --seed 1 --seconds S --trace 0
# for every workload. Workloads, the end-to-end metrics with their direction
# and bound, and S (run_seconds) all come from BENCHMARK.json.
#
# For each workload and metric the report gives the base and head medians,
# the median of the per-pair head/base ratios (< 1.0 = head is lower), the
# number of pairs head won (ties count for neither), and each side's
# interquartile spread; base's is the noise a claimed gain must beat. A metric whose median ratio
# is worse than its bound is flagged; the flag does not change the exit
# status. A run that does not end in simbench's JSON line, or that reports
# failed > 0, stops the driver with exit 1.
#
# Usage: scripts/ab_bench.sh [--baseline=REV] [--pairs=N] [--smoke] [--record]
#   --baseline=REV  rev to A/B the working tree against (default: HEAD, i.e.
#                   dirty tree vs last commit; pass the parent for PR claims)
#   --pairs=N       number of alternating pairs, a positive integer
#                   (default 10, the fewest a claimed gain is judged on)
#   --smoke         harness self-test for CI: the working tree on both
#                   sides, one pair, S = 1. Only the exit status and the
#                   report's shape mean anything.
#   --record        also append the head side to BENCH_simbench.json, the
#                   perf trajectory: one record per change, holding the
#                   commit, the pair count, and per workload the head
#                   medians of every end-to-end metric. A commit id ending
#                   in "+wt" is the uncommitted working tree on top of that
#                   commit. Not with --smoke, whose numbers mean nothing.
#
# Writes out/BENCH_ab.json.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 [--baseline=REV] [--pairs=N] [--smoke] [--record]" >&2
  exit 2
}

BASELINE="HEAD"
PAIRS=10
SMOKE=0
RECORD=0
for arg in "$@"; do
  case "$arg" in
    --baseline=*) BASELINE="${arg#*=}" ;;
    --pairs=*)    PAIRS="${arg#*=}" ;;
    --smoke)      SMOKE=1 ;;
    --record)     RECORD=1 ;;
    *) usage ;;
  esac
done
if [ "$SMOKE" = 1 ] && [ "$RECORD" = 1 ]; then
  echo "--record does not take --smoke: a smoke pair is not a measurement" >&2
  exit 2
fi
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ ]]; then
  echo "invalid value '$PAIRS' for --pairs: expected a positive integer" >&2
  exit 2
fi

HEAD_ROOT="$PWD"
WORKTREE=""
cleanup() {
  if [ -n "$WORKTREE" ]; then
    git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
  fi
}
trap cleanup EXIT

if [ "$SMOKE" = 1 ]; then
  PAIRS=1
  BASELINE="working tree"
  BASE_ROOT="$HEAD_ROOT"
else
  WORKTREE="$PWD/build-ab/tree"
  BASE_ROOT="$WORKTREE"
  echo "==== [ab] check out baseline $BASELINE into $WORKTREE ===="
  git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
  git worktree add --force --detach "$WORKTREE" "$BASELINE" >/dev/null
fi

mkdir -p out
python3 - "$BASELINE" "$PAIRS" "$SMOKE" "$BASE_ROOT" "$HEAD_ROOT" out/BENCH_ab.json <<'EOF'
import json
import statistics
import subprocess
import sys

baseline, pairs, smoke, base_root, head_root, report_path = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4], sys.argv[5],
    sys.argv[6])

with open(f"{head_root}/BENCHMARK.json") as f:
    spec = json.load(f)
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
seconds = 1 if smoke else spec["run_seconds"]
roots = {"base": base_root, "head": head_root}


def run(side, workload):
    """One simbench run; returns its metrics as {name: value}."""
    cmd = ["python3", f"{roots[side]}/simbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=roots[side])
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
        failed = result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        sys.exit(f"ab: {side} {workload}: run did not end in simbench's JSON line "
                 f"with every end-to-end metric (exit {proc.returncode})")
    if proc.returncode != 0 or failed > 0:
        sys.exit(f"ab: {side} {workload}: failed={failed}, exit {proc.returncode}")
    print(f"  {side} {workload:<12}" +
          "".join(f" {m['name']}={values[m['name']]:.4g}" for m in metrics), flush=True)
    return values


# samples[side][workload][metric] is the list of per-pair values.
samples = {side: {w: {m["name"]: [] for m in metrics} for w in workloads} for side in roots}
for i in range(pairs):
    order = ("base", "head") if i % 2 == 0 else ("head", "base")
    print(f"==== [ab] pair {i + 1}/{pairs} ({' '.join(order)}) ====", flush=True)
    for side in order:
        for w in workloads:
            for name, value in run(side, w).items():
                samples[side][w][name].append(value)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


report = {"baseline": baseline, "pairs": pairs, "run_seconds": seconds,
          "workloads": {}, "worse_than_bound": []}
print(f"\nhead vs {baseline}: {pairs} pairs, S={seconds} "
      "(ratio = median of per-pair head/base)")
for w in workloads:
    report["workloads"][w] = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base, head = samples["base"][w][name], samples["head"][w][name]
        ratios = [h / b if b > 0 else 1.0 for b, h in zip(base, head)]
        ratio = statistics.median(ratios)
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        worse = ratio > 1 + m["bound"] if lower else ratio < 1 - m["bound"]
        report["workloads"][w][name] = {
            "better": m["better"], "bound": m["bound"],
            "base_median": statistics.median(base), "head_median": statistics.median(head),
            "median_ratio": ratio, "head_wins": wins, "base_iqr": iqr(base),
            "head_iqr": iqr(head), "base": base, "head": head}
        if worse:
            report["worse_than_bound"].append(f"{w}/{name}")
        r = report["workloads"][w][name]
        print(f"  {w:<12} {name:<12} base {r['base_median']:<10.4g} head "
              f"{r['head_median']:<10.4g} ratio {ratio:.3f}  head won {wins}/{pairs}  "
              f"base IQR {r['base_iqr']:.3g}{'  WORSE THAN BOUND' if worse else ''}")

with open(report_path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print(f"wrote {report_path}")
EOF

if [ "$RECORD" = 1 ]; then
  COMMIT="$(git rev-parse HEAD)"
  if [ -n "$(git status --porcelain)" ]; then
    COMMIT="$COMMIT+wt"
  fi
  python3 - "$COMMIT" out/BENCH_ab.json BENCH_simbench.json <<'EOF'
import json
import os
import sys

commit, report_path, ledger_path = sys.argv[1:]
with open(report_path) as f:
    report = json.load(f)
records = []
if os.path.exists(ledger_path):
    with open(ledger_path) as f:
        records = json.load(f)
records.append({
    "commit": commit, "pairs": report["pairs"], "run_seconds": report["run_seconds"],
    "workloads": {w: {name: m["head_median"] for name, m in metrics.items()}
                  for w, metrics in report["workloads"].items()}})
with open(ledger_path, "w") as f:
    json.dump(records, f, indent=1)
    f.write("\n")
print(f"appended {commit} to {ledger_path} ({len(records)} records)")
EOF
fi
