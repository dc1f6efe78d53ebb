#include "src/tools/sweep/scenario.h"

#include <functional>
#include <memory>
#include <utility>

#include "src/modsched/policy_registry.h"
#include "src/simkit/check.h"
#include "src/simkit/rng.h"
#include "src/sim/simulator.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sweep/trace_hash.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/tpch.h"

namespace wcores {

namespace {

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

// The workload half of a scenario. Completion metrics are read back after
// the run by the closure each Setup* returns.
using MetricsFn = std::function<void(std::map<std::string, double>*)>;

MetricsFn SetupMakeR(Simulator& sim, const Scenario& s) {
  MakeRConfig config;
  config.make_work_per_thread = static_cast<Time>(Milliseconds(400) * s.scale);
  config.r_work = static_cast<Time>(Seconds(3) * s.scale);
  auto wl = std::make_shared<MakeRWorkload>(&sim, config);
  wl->Setup();
  return [wl](std::map<std::string, double>* metrics) {
    (*metrics)["make_s"] = ToSeconds(wl->MakeCompletionTime());
    (*metrics)["make_finished"] = wl->MakeFinished() ? 1 : 0;
  };
}

MetricsFn SetupTpch(Simulator& sim, const Scenario& s) {
  TpchConfig config;
  config.queries = {TpchQuery18(s.scale)};
  config.seed = s.seed;
  auto wl = std::make_shared<TpchWorkload>(&sim, config);
  wl->Setup();
  return [wl](std::map<std::string, double>* metrics) {
    (*metrics)["q18_s"] = ToSeconds(wl->TotalTime());
    (*metrics)["finished"] = wl->Finished() ? 1 : 0;
  };
}

MetricsFn SetupNas(Simulator& sim, const Scenario& s) {
  NasConfig config;
  config.app = s.nas_app;
  config.threads = s.nas_threads;
  config.scale = s.scale;
  auto wl = std::make_shared<NasWorkload>(&sim, config);
  wl->Setup();
  return [wl](std::map<std::string, double>* metrics) {
    (*metrics)["completion_s"] = ToSeconds(wl->CompletionTime());
    (*metrics)["spin_s"] = ToSeconds(wl->TotalSpinTime());
    (*metrics)["finished"] = wl->Finished() ? 1 : 0;
  };
}

// Hogs + compute/sleep loops + a few pinned threads, all derived from the
// scenario seed. Mirrors the properties_test mix but parameterized.
MetricsFn SetupRandomMix(Simulator& sim, const Scenario& s) {
  // Decorrelate from the simulator's own Rng(seed) stream.
  uint64_t sm = s.seed;
  Rng rng(SplitMix64(sm));
  int n_cores = sim.topo().n_cores();
  for (int i = 0; i < s.mix_threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores)));
    params.nice = static_cast<int>(rng.NextBelow(5)) - 2;
    if (rng.NextBool(0.2)) {
      params.affinity = CpuSet::Single(static_cast<CpuId>(
          rng.NextBelow(static_cast<uint64_t>(n_cores))));
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

}  // namespace

ScenarioResult RunScenario(const Scenario& scenario) {
  Topology topo = MakeTopo(scenario.topo);
  TraceHashSink hash;
  // Optional streaming pipeline, fanned out behind the hash so the digest is
  // computed from the identical callback stream (stream = pure observer).
  std::unique_ptr<TelemetryStream> stream;
  MultiSink multi;
  TraceSink* sink = &hash;
  if (scenario.stream) {
    stream = std::make_unique<TelemetryStream>(
        TelemetryStream::ForTopology(topo, scenario.stream_horizon));
    multi.Add(&hash);
    multi.Add(stream.get());
    sink = &multi;
  }
  Simulator::Options opts;
  opts.features = scenario.features;
  opts.seed = scenario.seed;
  // Policies come from the registry, one fresh instance per scenario
  // (policies hold per-machine state; sweep workers run concurrently). The
  // default "cfs" routes through the registry too, so the determinism
  // goldens pin CfsPolicy *behind the policy interface*.
  std::unique_ptr<SchedPolicy> policy = CreateSchedPolicy(scenario.policy);
  WC_CHECK(policy != nullptr, "unknown scheduler policy in scenario");
  opts.policy = policy.get();
  Simulator sim(topo, opts, sink);

  MetricsFn metrics_fn;
  switch (scenario.workload) {
    case Scenario::Workload::kMakeR:
      metrics_fn = SetupMakeR(sim, scenario);
      break;
    case Scenario::Workload::kTpchQ18:
      metrics_fn = SetupTpch(sim, scenario);
      break;
    case Scenario::Workload::kNas:
      metrics_fn = SetupNas(sim, scenario);
      break;
    case Scenario::Workload::kRandomMix:
      metrics_fn = SetupRandomMix(sim, scenario);
      break;
  }
  sim.Run(scenario.horizon);

  ScenarioResult result;
  result.name = scenario.name;
  result.trace_hash = hash.digest();
  result.trace_events = hash.events();
  result.sim_events = sim.queue().executed_count();
  result.context_switches = sim.context_switches();
  result.migrations = sim.sched().stats().migrations_periodic +
                      sim.sched().stats().migrations_idle +
                      sim.sched().stats().migrations_nohz +
                      sim.sched().stats().migrations_hotplug;
  result.virtual_seconds = ToSeconds(sim.Now());
  result.all_exited = sim.alive_threads() == 0;
  metrics_fn(&result.metrics);
  if (stream) {
    stream->Finish(sim.Now());
    result.stream_summary = stream->SummaryJson();
    result.stream_events = stream->events();
    result.stream_agg_bytes_peak = stream->PeakAggregatorBytes();
    result.stream_budget_bytes = stream->BudgetBytes();
    result.stream_within_budget = stream->WithinBudget();
  }
  return result;
}

std::vector<Scenario> FigureScenarios(double scale) {
  std::vector<Scenario> out;
  auto add = [&](Scenario s, const char* base) {
    s.scale = scale;
    s.name = std::string(base) + "/stock";
    s.features = SchedFeatures::Stock();
    out.push_back(s);
    s.name = std::string(base) + "/fixed";
    s.features = SchedFeatures::AllFixed();
    out.push_back(s);
  };

  Scenario make_r;
  make_r.workload = Scenario::Workload::kMakeR;
  make_r.topo = Scenario::Topo::kBulldozer8x8;
  make_r.seed = 3001;
  make_r.horizon = static_cast<Time>(Seconds(8) * scale);
  add(make_r, "fig2_make_r");

  Scenario tpch;
  tpch.workload = Scenario::Workload::kTpchQ18;
  tpch.topo = Scenario::Topo::kBulldozer8x8;
  tpch.seed = 42;
  tpch.horizon = static_cast<Time>(Seconds(4) * scale);
  add(tpch, "fig3_tpch_q18");

  Scenario nas_cg;
  nas_cg.workload = Scenario::Workload::kNas;
  nas_cg.nas_app = NasApp::kCg;
  nas_cg.nas_threads = 16;
  nas_cg.topo = Scenario::Topo::kFlat4x8;
  nas_cg.seed = 7;
  nas_cg.horizon = static_cast<Time>(Seconds(4) * scale);
  add(nas_cg, "table1_nas_cg");

  Scenario nas_lu;
  nas_lu.workload = Scenario::Workload::kNas;
  nas_lu.nas_app = NasApp::kLu;
  nas_lu.nas_threads = 16;
  nas_lu.topo = Scenario::Topo::kBulldozer8x8;
  nas_lu.seed = 11;
  nas_lu.horizon = static_cast<Time>(Seconds(4) * scale);
  add(nas_lu, "table3_nas_lu");

  Scenario mix;
  mix.workload = Scenario::Workload::kRandomMix;
  mix.topo = Scenario::Topo::kFlat2x4;
  mix.mix_threads = 24;
  mix.seed = 1234;
  mix.horizon = static_cast<Time>(Seconds(3) * scale);
  add(mix, "random_mix");

  return out;
}

std::vector<Scenario> RandomScenarios(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Scenario> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Scenario s;
    s.name = "random/" + std::to_string(seed) + "-" + std::to_string(i);
    switch (rng.NextBelow(4)) {
      case 0: s.topo = Scenario::Topo::kFlat1x4; break;
      case 1: s.topo = Scenario::Topo::kFlat2x4; break;
      case 2: s.topo = Scenario::Topo::kFlat4x8; break;
      default: s.topo = Scenario::Topo::kBulldozer8x8; break;
    }
    s.workload = Scenario::Workload::kRandomMix;
    s.mix_threads = static_cast<int>(rng.NextInRange(8, 64));
    s.features.fix_group_imbalance = rng.NextBool(0.5);
    s.features.fix_group_construction = rng.NextBool(0.5);
    s.features.fix_overload_wakeup = rng.NextBool(0.5);
    s.features.fix_missing_domains = rng.NextBool(0.5);
    s.features.autogroup_enabled = rng.NextBool(0.8);
    s.seed = rng.Next();
    s.horizon = rng.NextTime(Milliseconds(500), Seconds(2));
    s.scale = 0.25;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace wcores
