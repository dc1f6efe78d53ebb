// A scenario is one self-contained simulation: topology + scheduler
// configuration + workload + seed + horizon. Scenarios are *values* — they
// can be enumerated, shipped to a worker thread, and replayed bit-for-bit —
// which is what both the parallel sweep runner (sweep.h) and the
// determinism regression tests are built on.
//
// RunScenario constructs a fresh Simulator, attaches a TraceHashSink, runs
// to the horizon, and reduces the run to a ScenarioResult: the trace
// digest, throughput counters, and per-workload completion metrics.
#ifndef SRC_TOOLS_SWEEP_SCENARIO_H_
#define SRC_TOOLS_SWEEP_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/features.h"
#include "src/simkit/time.h"
#include "src/workloads/nas.h"

namespace wcores {

struct Scenario {
  std::string name;  // Unique within a sweep; names the result row.

  enum class Topo { kBulldozer8x8, kFlat1x4, kFlat2x4, kFlat4x8 };
  Topo topo = Topo::kBulldozer8x8;

  enum class Workload {
    kMakeR,      // §3.1 Figure 2: make x N + R processes, three autogroups.
    kTpchQ18,    // §3.3: barrier-heavy database query on unequal pools.
    kNas,        // Tables 1/3: one NAS app (nas_app, nas_threads below).
    kRandomMix,  // Seeded random hog/sleeper mix, properties_test-style.
  };
  Workload workload = Workload::kRandomMix;

  SchedFeatures features;
  uint64_t seed = 1;
  Time horizon = Seconds(2);  // Run(horizon); workloads may exit earlier.
  double scale = 1.0;         // Scales workload size/duration (see .cc).

  // kNas only.
  NasApp nas_app = NasApp::kCg;
  int nas_threads = 16;

  // kRandomMix only.
  int mix_threads = 24;

  // Scheduling policy, by registry name (src/modsched/policy_registry.h):
  // "cfs" (default), "o1", "coreidle".
  std::string policy = "cfs";

  // Attach the bounded-memory streaming telemetry pipeline (TelemetryStream)
  // alongside the trace hash. The stream is a pure observer — the trace
  // hash must be byte-identical with or without it (determinism_test pins
  // this) — so enabling it never forks the scenario's behavior.
  bool stream = false;
  Time stream_horizon = Milliseconds(100);  // Starvation-detector horizon.
};

struct ScenarioResult {
  std::string name;
  uint64_t trace_hash = 0;   // TraceHashSink digest: the determinism value.
  uint64_t trace_events = 0; // Callbacks folded into the hash.
  uint64_t sim_events = 0;   // Discrete events executed by the event queue.
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  double virtual_seconds = 0;
  double wall_ms = 0;        // Host time for this scenario alone.
  bool all_exited = false;
  // Workload-specific scalars, e.g. "make_s", "q18_s", "completion_s".
  std::map<std::string, double> metrics;

  // Streaming-telemetry reduction; populated only when Scenario::stream was
  // set. stream_summary is the one-line JSON from TelemetryStream; the
  // scalars below mirror its machine-checkable fields so the driver can
  // WC_CHECK them without parsing JSON.
  std::string stream_summary;
  uint64_t stream_events = 0;          // Callbacks analyzed.
  uint64_t stream_agg_bytes_peak = 0;  // Peak aggregator footprint.
  uint64_t stream_budget_bytes = 0;    // O(tasks + cpus) budget.
  bool stream_within_budget = true;
};

ScenarioResult RunScenario(const Scenario& scenario);

// The figure/table scenarios as a sweep matrix: each paper workload at
// `scale`, stock and AllFixed. They are reduced stand-ins named after the
// paper setups, not the bench binaries' configurations. At scale 1.0, fig2
// runs 8 s (its bench 10 s); fig3 uses seed 42, Q18 at scale 1, no
// transient threads and autogroups on (its bench: seed 3003, Q18 at scale
// 6, transients, autogroups off, only the wakeup fix); table1 runs NAS cg
// unpinned on Flat4x8 with seed 7 (its bench pins to nodes 1-2 of
// Bulldozer8x8, seed 1001). The goldens and simbench pin these values; the
// determinism tests use a smaller scale to stay fast.
std::vector<Scenario> FigureScenarios(double scale = 1.0);

// `count` seeded random scenarios (random topology, feature set, and
// workload mix) for coverage beyond the curated matrix.
std::vector<Scenario> RandomScenarios(uint64_t seed, int count);

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_SCENARIO_H_
