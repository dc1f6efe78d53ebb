// Receipts: the verifiable, resumable result records of the fleet sweep.
//
// Every completed scenario reduces to one JSON line — name, canonical
// parameter fingerprint (grid.h), trace hash, event counts, metrics, wall
// time — appended to a per-shard `<results_dir>/shard-K.jsonl` file. The
// pair (fingerprint, trace_hash) is the paper's determinism contract made
// portable: any process, on any host, that runs the same parameterization
// must reproduce the same hash, so a results store doubles as a
// bit-for-bit verification artifact and a perf/correctness trajectory
// database for trend tooling (src/tools/trend).
//
// Resume semantics (shard.h relies on these, fleet_test pins them):
//  - a scenario is DONE iff the store holds at least one receipt whose
//    fingerprint matches the scenario's, and every such receipt agrees on
//    (trace_hash, trace_events);
//  - a fingerprint mismatch means the grid definition changed under the
//    store: the receipt is stale and the scenario re-runs;
//  - receipts that agree disagreeing — two matching fingerprints with
//    different hashes — mark a determinism violation or a corrupted store:
//    the scenario re-runs, and `wc-trend merge` reports the conflict
//    rather than guessing a winner.
//
// Loading tolerates a truncated or corrupt *trailing* line per file (a
// shard killed mid-append) by dropping it; the scenario simply re-runs on
// resume. Interior corruption is also dropped but counted separately —
// the merge tool treats it as an integrity error, because append-only
// writers cannot produce it.
#ifndef SRC_TOOLS_SWEEP_RECEIPTS_H_
#define SRC_TOOLS_SWEEP_RECEIPTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tools/sweep/scenario.h"

namespace wcores {

struct Receipt {
  std::string name;
  uint64_t fingerprint = 0;
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  uint64_t sim_events = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  double virtual_s = 0;
  bool all_exited = false;
  std::map<std::string, double> metrics;  // Workload scalars, sorted by key.
  double wall_ms = 0;                     // Host-volatile; see CanonicalLine.
};

Receipt ReceiptFromResult(const ScenarioResult& result, uint64_t fingerprint);

// Full store line, including the host-volatile wall_ms (no newline).
std::string ReceiptLine(const Receipt& r);

// Canonical form: the full line minus wall_ms. Two runs of the same
// scenario on different hosts produce byte-identical canonical lines; the
// merge tool's "sharded == single-process" equality check compares these.
std::string ReceiptCanonical(const Receipt& r);

// Parses either form. Returns false and fills *error on malformed input.
bool ParseReceiptLine(const std::string& line, Receipt* out, std::string* error);

struct ResultsStore {
  std::vector<Receipt> receipts;  // All shard files, file-name order.
  int files = 0;
  int dropped_trailing = 0;  // Tolerated: killed-mid-append tails.
  int dropped_interior = 0;  // Store damage; merge refuses these.
  std::vector<std::string> warnings;
};

// Loads every *.jsonl file in `dir` (sorted by filename). Missing dir is
// an empty store, not an error. Returns false only on I/O failure.
bool LoadResultsStore(const std::string& dir, ResultsStore* out, std::string* error);

// Scans existing file content and returns the byte offset just past the
// last complete, parseable receipt line (0 if none). The shard runner
// truncates its own file to this offset before appending, so a tail left
// by a kill cannot become interior corruption on resume.
size_t CleanReceiptPrefixBytes(const std::string& content);

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_RECEIPTS_H_
