// Parallel scenario-sweep runner.
//
// Fans a batch of independent scenarios out across host threads. Each
// scenario is one single-threaded, seed-deterministic simulation
// (RunScenario); workers share nothing but an atomic cursor into the
// scenario list, and every result is written to that scenario's own slot.
// The aggregate is therefore identical for any worker count or host
// scheduling — a property sweep_test asserts by hashing the result set at
// 1, 2, and 4 threads.
#ifndef SRC_TOOLS_SWEEP_SWEEP_H_
#define SRC_TOOLS_SWEEP_SWEEP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/tools/sweep/scenario.h"

namespace wcores {

struct SweepOptions {
  int threads = 1;  // Host worker threads; clamped to [1, scenarios].
};

struct SweepReport {
  std::vector<ScenarioResult> results;  // Same order as the input scenarios.
  double wall_ms = 0;                   // End-to-end host time for the batch.
  int threads = 1;                      // Worker count actually used.

  // Order-sensitive FNV-1a over (name, trace_hash, trace_events) of every
  // result: one value summarizing the whole sweep's behavior.
  uint64_t CombinedHash() const;
  uint64_t TotalSimEvents() const;
};

SweepReport RunSweep(const std::vector<Scenario>& scenarios, const SweepOptions& options);

// The fan-out under RunSweep and RunShard: calls body(i) once for each i in
// [0, n) on `threads` host threads, clamped to [1, n]. Work stealing by
// atomic cursor: whichever worker is free takes the next index. A single
// worker runs on the calling thread. Returns the worker count used.
int ParallelFor(size_t n, int threads, const std::function<void(size_t)>& body);

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_SWEEP_H_
