#include "simbench/runner.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "simbench/timed.h"
#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/trace_hash.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"

namespace simbench {

using namespace wcores;  // NOLINT(google-build-using-namespace): benchmark-local TU.

namespace {

// Paper-scenario scales, chosen so each batch takes about half a host
// second: fig_churn is the figure pair at 4x the sweep's scale 1, and
// nas_spin the table pair at 20x, where spin barriers dominate.
constexpr double kFigChurnScale = 4.0;
constexpr double kNasSpinScale = 20.0;

std::vector<Scenario> PaperScenarios(double scale, const char* first, const char* second,
                                     uint64_t seed) {
  std::vector<Scenario> out;
  for (Scenario& s : FigureScenarios(scale)) {
    if (s.name.rfind(first, 0) != 0 && s.name.rfind(second, 0) != 0) {
      continue;
    }
    if (seed != kDefaultSeed) {
      uint64_t sm = s.seed ^ (seed * 0x9e3779b97f4a7c15ULL);
      s.seed = SplitMix64(sm);
    }
    out.push_back(std::move(s));
  }
  return out;
}

Topology MakeTopo(Scenario::Topo topo) {
  switch (topo) {
    case Scenario::Topo::kBulldozer8x8:
      return Topology::Bulldozer8x8();
    case Scenario::Topo::kFlat1x4:
      return Topology::Flat(1, 4);
    case Scenario::Topo::kFlat2x4:
      return Topology::Flat(2, 4);
    case Scenario::Topo::kFlat4x8:
      return Topology::Flat(4, 8);
  }
  return Topology::Flat(1, 4);
}

// The workload half of a scenario, as scenario.cc builds it; the metrics
// closure reads completion metrics back after the run.
using MetricsFn = std::function<void(std::map<std::string, double>*)>;

MetricsFn SetupWorkload(Simulator& sim, const Scenario& s) {
  switch (s.workload) {
    case Scenario::Workload::kMakeR: {
      MakeRConfig config;
      config.make_work_per_thread = static_cast<Time>(Milliseconds(400) * s.scale);
      config.r_work = static_cast<Time>(Seconds(3) * s.scale);
      auto wl = std::make_shared<MakeRWorkload>(&sim, config);
      wl->Setup();
      return [wl](std::map<std::string, double>* m) {
        (*m)["make_s"] = ToSeconds(wl->MakeCompletionTime());
        (*m)["make_finished"] = wl->MakeFinished() ? 1 : 0;
      };
    }
    case Scenario::Workload::kTpchQ18: {
      TpchConfig config;
      config.queries = {TpchQuery18(s.scale)};
      config.seed = s.seed;
      auto wl = std::make_shared<TpchWorkload>(&sim, config);
      wl->Setup();
      return [wl](std::map<std::string, double>* m) {
        (*m)["q18_s"] = ToSeconds(wl->TotalTime());
        (*m)["finished"] = wl->Finished() ? 1 : 0;
      };
    }
    case Scenario::Workload::kNas: {
      NasConfig config;
      config.app = s.nas_app;
      config.threads = s.nas_threads;
      config.scale = s.scale;
      auto wl = std::make_shared<NasWorkload>(&sim, config);
      wl->Setup();
      return [wl](std::map<std::string, double>* m) {
        (*m)["completion_s"] = ToSeconds(wl->CompletionTime());
        (*m)["spin_s"] = ToSeconds(wl->TotalSpinTime());
        (*m)["finished"] = wl->Finished() ? 1 : 0;
      };
    }
    case Scenario::Workload::kRandomMix:
      break;
  }
  // Seeded hog / compute-sleep mix, decorrelated from the simulator's Rng.
  uint64_t sm = s.seed;
  Rng rng(SplitMix64(sm));
  int n_cores = sim.topo().n_cores();
  for (int i = 0; i < s.mix_threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores)));
    params.nice = static_cast<int>(rng.NextBelow(5)) - 2;
    if (rng.NextBool(0.2)) {
      params.affinity =
          CpuSet::Single(static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores))));
    }
    std::vector<Action> script;
    if (rng.NextBool(0.4)) {
      script = {ComputeAction{static_cast<Time>(Seconds(2) * s.scale)}};
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script)), params);
    } else {
      script = {ComputeAction{rng.NextTime(Microseconds(500), Milliseconds(4))},
                SleepAction{rng.NextTime(Microseconds(100), Milliseconds(2))}};
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script), /*repeat=*/400), params);
    }
  }
  return [](std::map<std::string, double>*) {};
}

// Completion metrics as "name=value;..." with round-trip precision, or "-".
std::string FormatMetrics(const std::map<std::string, double>& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (out.empty() ? "" : ";") + name + "=" + buf;
  }
  return out.empty() ? "-" : out;
}

// Times one phase; in a traced run the phase is also a root span.
class PhaseTimer {
 public:
  PhaseTimer(Ledger* ledger, Layer layer) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      ledger_->Enter(layer);
    } else {
      start_ = NowNs();
    }
  }
  int64_t Stop() { return ledger_ != nullptr ? ledger_->Exit() : NowNs() - start_; }

 private:
  Ledger* ledger_;
  int64_t start_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fig_churn", "nas_spin", "fleet_grid"};
  return kNames;
}

bool WorkloadScenarios(const std::string& workload, uint64_t seed, std::vector<Scenario>* out) {
  if (workload == "fig_churn") {
    *out = PaperScenarios(kFigChurnScale, "fig2_make_r/", "fig3_tpch_q18/", seed);
  } else if (workload == "nas_spin") {
    *out = PaperScenarios(kNasSpinScale, "table1_nas_cg/", "table3_nas_lu/", seed);
  } else if (workload == "fleet_grid") {
    GridSpec spec = DefaultFleetGrid();
    spec.base_seed = seed;
    *out = ExpandGrid(spec);
    for (Scenario& s : *out) {
      s.stream = true;
    }
  } else {
    return false;
  }
  return true;
}

Outcome RunOne(const Scenario& s, Ledger* ledger) {
  Outcome out;
  out.name = s.name;

  PhaseTimer topo_timer(ledger, kSetupTopology);
  Topology topo = MakeTopo(s.topo);
  out.phase_ns[kSetupTopology] = topo_timer.Stop();

  PhaseTimer sim_timer(ledger, kSetupSimulator);
  TraceHashSink hash;
  std::unique_ptr<TimedSink> timed_hash;
  TraceSink* hash_sink = &hash;
  if (ledger != nullptr) {
    timed_hash = std::make_unique<TimedSink>(&hash, ledger, kHashFirst, /*per_kind=*/true);
    hash_sink = timed_hash.get();
  }
  // The stream fans out behind the hash, as in RunScenario.
  std::unique_ptr<TelemetryStream> stream;
  std::unique_ptr<TimedSink> timed_stream;
  MultiSink multi;
  TraceSink* sink = hash_sink;
  if (s.stream) {
    stream = std::make_unique<TelemetryStream>(
        TelemetryStream::ForTopology(topo, s.stream_horizon));
    TraceSink* stream_sink = stream.get();
    if (ledger != nullptr) {
      timed_stream = std::make_unique<TimedSink>(stream.get(), ledger, kStream, false);
      stream_sink = timed_stream.get();
    }
    multi.Add(hash_sink);
    multi.Add(stream_sink);
    sink = &multi;
  }
  Simulator::Options opts;
  opts.features = s.features;
  opts.seed = s.seed;
  std::unique_ptr<SchedPolicy> policy;
  if (!s.policy.empty()) {
    policy = CreateSchedPolicy(s.policy);
    WC_CHECK(policy != nullptr, "unknown scheduler policy in scenario");
    if (ledger != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), ledger);
    }
    opts.policy = policy.get();
  }
  Simulator sim(topo, opts, sink);
  out.phase_ns[kSetupSimulator] = sim_timer.Stop();

  PhaseTimer workload_timer(ledger, kSetupWorkload);
  MetricsFn metrics_fn = SetupWorkload(sim, s);
  out.phase_ns[kSetupWorkload] = workload_timer.Stop();

  PhaseTimer run_timer(ledger, kRun);
  sim.Run(s.horizon);
  out.trace_hash = hash.digest();
  out.trace_events = hash.events();
  out.sim_events = sim.queue().executed_count();
  out.context_switches = sim.context_switches();
  out.stats = sim.sched().stats();
  out.migrations = out.stats.TotalMigrations();
  out.virtual_s = ToSeconds(sim.Now());
  metrics_fn(&out.metrics);
  if (stream) {
    // The stream's reduction is stream-layer work, so a traced run charges
    // it there rather than to the engine.
    std::unique_ptr<Span> span;
    if (ledger != nullptr) {
      span = std::make_unique<Span>(ledger, kStream);
    }
    stream->Finish(sim.Now());
    out.stream_summary = stream->SummaryJson();
  }
  out.phase_ns[kRun] = run_timer.Stop();
  return out;
}

Outcome OutcomeFromResult(const ScenarioResult& r) {
  Outcome o;
  o.name = r.name;
  o.trace_hash = r.trace_hash;
  o.trace_events = r.trace_events;
  o.sim_events = r.sim_events;
  o.context_switches = r.context_switches;
  o.migrations = r.migrations;
  o.virtual_s = r.virtual_seconds;
  o.metrics = r.metrics;
  return o;
}

std::string OutcomeKey(const std::string& workload, const std::string& scenario) {
  return workload + "\t" + scenario;
}

std::string FormatOutcomeRow(const std::string& workload, const Outcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%.17g\t",
                o.trace_events, o.context_switches, o.migrations, o.virtual_s);
  return OutcomeKey(workload, o.name) + buf + FormatMetrics(o.metrics);
}

bool LoadOutcomes(const std::string& path, OutcomeTable* table, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open outcome table " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string> f;
    std::stringstream ss(line);
    for (std::string field; std::getline(ss, field, '\t');) {
      f.push_back(field);
    }
    auto bad = [&] {
      *error = path + ":" + std::to_string(line_no) + ": malformed outcome row";
      return false;
    };
    if (f.size() != 7) {
      return bad();
    }
    Outcome o;
    o.name = f[1];
    char* end = nullptr;
    uint64_t* ints[] = {&o.trace_events, &o.context_switches, &o.migrations};
    for (int i = 0; i < 3; ++i) {
      *ints[i] = std::strtoull(f[2 + i].c_str(), &end, 10);
      if (f[2 + i].empty() || *end != '\0') {
        return bad();
      }
    }
    o.virtual_s = std::strtod(f[5].c_str(), &end);
    if (f[5].empty() || *end != '\0') {
      return bad();
    }
    if (f[6] != "-") {
      std::stringstream ms(f[6]);
      for (std::string kv; std::getline(ms, kv, ';');) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          return bad();
        }
        std::string value = kv.substr(eq + 1);
        o.metrics[kv.substr(0, eq)] = std::strtod(value.c_str(), &end);
        if (value.empty() || *end != '\0') {
          return bad();
        }
      }
    }
    if (!table->emplace(OutcomeKey(f[0], f[1]), std::move(o)).second) {
      *error = path + ":" + std::to_string(line_no) + ": duplicate scenario " + f[1];
      return false;
    }
  }
  return true;
}

bool SamePinned(const Outcome& expected, const Outcome& actual, std::string* why) {
  auto differ = [&](const char* field, const std::string& want, const std::string& got) {
    *why = std::string(field) + " expected " + want + ", got " + got;
    return false;
  };
  const std::pair<const char*, std::pair<uint64_t, uint64_t>> ints[] = {
      {"trace_events", {expected.trace_events, actual.trace_events}},
      {"context_switches", {expected.context_switches, actual.context_switches}},
      {"migrations", {expected.migrations, actual.migrations}},
  };
  for (const auto& [field, v] : ints) {
    if (v.first != v.second) {
      return differ(field, std::to_string(v.first), std::to_string(v.second));
    }
  }
  if (expected.virtual_s != actual.virtual_s) {
    return differ("virtual_s", std::to_string(expected.virtual_s), std::to_string(actual.virtual_s));
  }
  if (expected.metrics != actual.metrics) {
    return differ("metrics", FormatMetrics(expected.metrics), FormatMetrics(actual.metrics));
  }
  return true;
}

}  // namespace simbench
