// The benchmark's workloads and its scenario runner.
//
// A workload is a closed batch of sweep scenarios (src/tools/sweep), run
// back to back on one thread. RunOne replays one scenario through the same
// public APIs RunScenario uses — Topology, CreateSchedPolicy, TraceHashSink,
// TelemetryStream, Simulator and the workload's Setup() — but times each
// phase, and in a traced run wraps the policy and the sinks in the timing
// decorators of timed.h.
#ifndef SIMBENCH_RUNNER_H_
#define SIMBENCH_RUNNER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simbench/ledger.h"
#include "src/core/stats.h"
#include "src/tools/sweep/scenario.h"

namespace simbench {

// The seed that reproduces the sweep's own scenario seeds, and the only one
// with a pinned outcome table.
inline constexpr uint64_t kDefaultSeed = 1;

const std::vector<std::string>& WorkloadNames();

// The scenario batch of `workload` at `seed`. False for an unknown name.
bool WorkloadScenarios(const std::string& workload, uint64_t seed,
                       std::vector<wcores::Scenario>* out);

struct Outcome {
  std::string name;
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  uint64_t sim_events = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  double virtual_s = 0;
  std::map<std::string, double> metrics;  // Workload completion metrics.
  wcores::SchedStats stats;
  std::string stream_summary;  // TelemetryStream::SummaryJson, when streamed.
  // Host time of each phase, indexed by its root Layer (kSetupTopology..kRun).
  std::array<int64_t, kRun + 1> phase_ns{};

  int64_t setup_ns() const {
    return phase_ns[kSetupTopology] + phase_ns[kSetupSimulator] + phase_ns[kSetupWorkload];
  }
};

// Runs `scenario` like RunScenario. With a ledger, each phase is a root span
// and the policy and sinks are timed; without one, only the phases are.
Outcome RunOne(const wcores::Scenario& scenario, Ledger* ledger);

// ---- Pinned outcomes --------------------------------------------------------
//
// Only values fixed by the trace are pinned: trace events, context switches,
// migrations, virtual time and the completion metrics. Neither sim_events
// nor the digest is, so eliding events or changing the digest function does
// not read as a failure.

// Keyed by "<workload>\t<scenario>".
using OutcomeTable = std::map<std::string, Outcome>;

Outcome OutcomeFromResult(const wcores::ScenarioResult& r);
std::string OutcomeKey(const std::string& workload, const std::string& scenario);
std::string FormatOutcomeRow(const std::string& workload, const Outcome& o);
bool LoadOutcomes(const std::string& path, OutcomeTable* table, std::string* error);

// Compares the pinned fields; on a mismatch fills *why and returns false.
bool SamePinned(const Outcome& expected, const Outcome& actual, std::string* why);

// The benchmark's own tests (selftest.cc); returns the process exit code.
int SelfTest(const std::string& outcomes_path);

}  // namespace simbench

#endif  // SIMBENCH_RUNNER_H_
