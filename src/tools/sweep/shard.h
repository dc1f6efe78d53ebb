// Sharded, resumable execution of a scenario grid across processes.
//
// Each `sweep_driver --shard=I/N --grid=SPEC` process expands the same grid
// and calls RunShard with its scenarios and the same results directory.
// Coordination is file-based and crash-safe:
//
//  - CLAIMS: before running a scenario, a worker takes an exclusive
//    flock(2) on `<results>/claims/<fingerprint>.lock`. flock is advisory,
//    per open-file-description, and — the property everything rests on —
//    released automatically when the holder dies, so a SIGKILLed shard
//    never wedges the fleet. A busy lock means a *live* process is running
//    that scenario; the worker moves on (work stealing, not waiting).
//
//  - RECEIPTS: a completed scenario appends one JSON line (receipts.h) to
//    this shard's own `<results>/shard-I.jsonl`. One writer per file, so
//    cross-process appends never interleave; in-process worker threads
//    serialize on a mutex.
//
//  - RESUME: at startup the runner loads every shard's receipts and skips
//    scenarios that are already DONE (fingerprint match + consistent
//    hashes; see receipts.h). After winning a claim it reloads the store
//    once more, closing the window where another shard finished the
//    scenario between our startup scan and our claim.
//
//  - STRIPING: shard I claims indices congruent to I mod N first, then
//    sweeps everyone else's stripe. Disjoint stripes mean near-zero claim
//    contention while all shards are alive; stealing means one dead shard
//    costs nothing but the time to re-run its unfinished scenarios.
//
// Thread-count invariance of scenario results (pinned by determinism_test)
// is what makes this sharding determinism-free: any partition of the
// scenarios across any number of processes yields byte-identical canonical
// receipts, which `wc-trend merge` verifies rather than assumes.
#ifndef SRC_TOOLS_SWEEP_SHARD_H_
#define SRC_TOOLS_SWEEP_SHARD_H_

#include <string>
#include <vector>

#include "src/tools/sweep/scenario.h"

namespace wcores {

struct ShardOptions {
  std::string results_dir;
  int shard_index = 0;  // I in --shard=I/N; names shard-I.jsonl.
  int shard_count = 1;  // N in --shard=I/N; the striping modulus.
  int threads = 1;      // In-process workers on top of process sharding.
};

struct ShardReport {
  int ran = 0;        // Scenarios this call executed and receipted.
  int skipped = 0;    // Already DONE in the store at startup.
  int contended = 0;  // Claim held by a live process; left to them.
  int requeued = 0;   // Stale fingerprint or conflicting receipts: re-ran.
  std::string receipts_path;
};

ShardReport RunShard(const std::vector<Scenario>& scenarios, const ShardOptions& options);

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_SHARD_H_
