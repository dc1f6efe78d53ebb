// Cross-policy conformance suite: every policy in the registry is run
// through the same three gates.
//
//  1. Mechanism invariants under fuzz — seeded random topologies, feature
//     sets, and workload mixes, with PolicyInvariantChecker sweeps at fixed
//     virtual-time intervals (census, placement legality, vruntime/load
//     conservation, rq structure, idle-index and sanity-checker parity).
//  2. Differential fold — the one-pass streaming analyzer and the
//     whole-trace recorder observe the identical callback stream; every
//     incremental accumulator must equal the from-scratch reduction, bit
//     for bit, under every policy.
//  3. Golden trace hashes — each policy's digest over a fixed mini-matrix
//     is pinned, so a behavior change in *any* policy (not just CFS) fails
//     loudly and prints the per-scenario hashes that moved.
//
// A new policy gets all of this from its one registration line in
// src/modsched/policy_registry.cc; its only extra duty is adding a golden
// row here and an expectation row in policy_bug_matrix_test.cc.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/modsched/modules.h"
#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sweep/scenario.h"
#include "src/tools/sweep/sweep.h"
#include "tests/modsched/conformance_harness.h"

namespace wcores {
namespace {

using conformance::BaseSeed;
using conformance::PolicyInvariantChecker;
using conformance::RandomFeatures;
using conformance::RandomTopology;
using conformance::RearmingCheck;
using conformance::ReproCommand;
using conformance::SpawnRandomMix;

constexpr int kRunsPerPolicy = 3;

TEST(PolicyConformance, RegistryHasAtLeastThreeDistinctPolicies) {
  const std::vector<std::string>& names = SchedPolicyNames();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "cfs");  // The default comes first.
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << "duplicate registration";
    }
    std::unique_ptr<SchedPolicy> a = CreateSchedPolicy(names[i]);
    std::unique_ptr<SchedPolicy> b = CreateSchedPolicy(names[i]);
    ASSERT_NE(a, nullptr) << names[i];
    ASSERT_NE(b, nullptr) << names[i];
    EXPECT_NE(a.get(), b.get()) << "factory must return fresh instances";
    EXPECT_EQ(names[i], a->name()) << "registry key disagrees with policy name()";
  }
  EXPECT_EQ(CreateSchedPolicy("no-such-policy"), nullptr);
}

// One gate-1 run: a seeded random machine, feature set, and mix under
// `policy`, swept by PolicyInvariantChecker every kCheckInterval.
void FuzzMechanismInvariants(SchedPolicy* policy, uint64_t seed) {
  uint64_t sm = seed;
  Rng rng(SplitMix64(sm));
  Topology topo = RandomTopology(rng);
  Simulator::Options opts;
  opts.features = RandomFeatures(rng);
  opts.seed = seed;
  opts.policy = policy;
  Simulator sim(topo, opts);
  SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));

  PolicyInvariantChecker checker(&sim);
  sim.After(conformance::kCheckInterval, RearmingCheck{&checker, &sim});
  sim.Run(conformance::kCheckHorizon);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  EXPECT_GT(checker.checks(), 100) << "fuzz run did too little work to mean anything";
}

// Gate 1: the core's invariants hold at every check instant, whichever
// policy is deciding placement and ordering.
TEST(PolicyConformance, MechanismInvariantsHoldUnderEveryPolicy) {
  uint64_t base = BaseSeed();
  for (const std::string& name : SchedPolicyNames()) {
    for (int run = 0; run < kRunsPerPolicy; ++run) {
      uint64_t seed = base + static_cast<uint64_t>(run);
      SCOPED_TRACE(ReproCommand(name, seed));
      std::unique_ptr<SchedPolicy> policy = CreateSchedPolicy(name);
      ASSERT_NE(policy, nullptr);
      FuzzMechanismInvariants(policy.get(), seed);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// Gate 1 for the §5 core module, which stays out of the registry: the
// cache-affinity and numa-locality modules under ModularPolicy's
// arbitration keep every mechanism invariant too.
TEST(PolicyConformance, MechanismInvariantsHoldUnderModularPolicy) {
  uint64_t base = BaseSeed();
  for (int run = 0; run < kRunsPerPolicy; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    SCOPED_TRACE(ReproCommand("modular", seed));
    ModularPolicy policy;
    policy.Add(std::make_unique<CacheAffinityModule>());
    policy.Add(std::make_unique<NumaLocalityModule>());
    FuzzMechanismInvariants(&policy, seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Gate 2: streaming accumulators equal the recorder's from-scratch fold
// under every policy — the differential-fuzz half of the suite. A policy
// that, say, drops a trace callback or emits a switch-out without the
// matching switch-in breaks the fold equality even if no invariant sweep
// happens to land on the broken instant.
TEST(PolicyConformance, StreamFoldMatchesRecorderUnderEveryPolicy) {
  uint64_t base = BaseSeed() + 55000ULL;
  for (const std::string& name : SchedPolicyNames()) {
    for (int run = 0; run < 2; ++run) {
      uint64_t seed = base + static_cast<uint64_t>(run);
      SCOPED_TRACE(ReproCommand(name, seed));
      uint64_t sm = seed;
      Rng rng(SplitMix64(sm));
      Topology topo = RandomTopology(rng);
      std::unique_ptr<SchedPolicy> policy = CreateSchedPolicy(name);
      ASSERT_NE(policy, nullptr);
      Simulator::Options opts;
      opts.features = RandomFeatures(rng);
      opts.seed = seed;
      opts.policy = policy.get();

      EventRecorder recorder;
      TelemetryStream stream(TelemetryStream::ForTopology(topo));
      MultiSink multi;
      multi.Add(&recorder);
      multi.Add(&stream);
      Simulator sim(topo, opts, &multi);
      SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));
      sim.Run(Milliseconds(100));
      stream.Finish(sim.Now());

      ASSERT_EQ(recorder.dropped(), 0u);
      ASSERT_EQ(stream.events(), recorder.events().size());

      struct Totals {
        uint64_t runtime = 0, wait = 0, switches = 0, wakeups = 0, migrations = 0;
      };
      std::map<ThreadId, Totals> batch;
      for (const TraceEvent& e : recorder.events()) {
        switch (e.kind) {
          case TraceEvent::Kind::kSwitchIn:
            batch[e.tid].wait += static_cast<uint64_t>(e.value);
            break;
          case TraceEvent::Kind::kSwitchOut:
            batch[e.tid].runtime += static_cast<uint64_t>(e.value);
            batch[e.tid].switches += 1;
            break;
          case TraceEvent::Kind::kWakeupLatency:
            batch[e.tid].wakeups += 1;
            break;
          case TraceEvent::Kind::kMigration:
            batch[e.tid].migrations += 1;
            break;
          default:
            break;
        }
      }
      ASSERT_GT(batch.size(), 0u) << "run produced no per-task events";
      uint64_t sum_runtime = 0;
      uint64_t sum_wait = 0;
      for (const auto& [tid, t] : batch) {
        const TelemetryStream::TaskStats& s = stream.Task(tid);
        ASSERT_TRUE(s.seen) << "tid " << tid << " missing from the stream";
        ASSERT_EQ(s.runtime_ns, t.runtime) << "tid " << tid << " runtime diverged";
        ASSERT_EQ(s.wait_ns, t.wait) << "tid " << tid << " wait diverged";
        ASSERT_EQ(s.switches, t.switches) << "tid " << tid;
        ASSERT_EQ(s.wakeups, t.wakeups) << "tid " << tid;
        ASSERT_EQ(s.migrations, t.migrations) << "tid " << tid;
        sum_runtime += t.runtime;
        sum_wait += t.wait;
      }
      ASSERT_EQ(stream.Machine().oncpu.sum_ns, sum_runtime);
      ASSERT_EQ(stream.Machine().rq_wait.sum_ns, sum_wait);
    }
  }
}

// Gate 3: per-policy golden trace hashes over a fixed mini-matrix (the
// figure scenarios at scale 0.05 plus two seeded random mixes). Pinning the
// *combined* digest per policy keeps the table one line per policy; on a
// mismatch the failure prints every per-scenario hash so the divergence is
// localizable. Regenerate a row only for an intentional behavior change in
// that policy.
TEST(PolicyConformance, PerPolicyGoldenTraceHashes) {
  const std::map<std::string, uint64_t> kGolden = {
      {"cfs", 0x2299610f289cd877ULL},
      {"o1", 0xedc8248f6bb3edabULL},
      {"coreidle", 0x97e04ffda6923464ULL},
  };
  for (const std::string& name : SchedPolicyNames()) {
    std::vector<Scenario> matrix = FigureScenarios(0.05);
    for (Scenario& s : RandomScenarios(4321, 2)) {
      matrix.push_back(std::move(s));
    }
    for (Scenario& s : matrix) {
      s.policy = name;
    }
    SweepOptions opts;
    opts.threads = 1;
    SweepReport report = RunSweep(matrix, opts);
    auto it = kGolden.find(name);
    if (it == kGolden.end()) {
      ADD_FAILURE() << "policy '" << name
                    << "' has no golden hash row — add one to PerPolicyGoldenTraceHashes";
      continue;
    }
    if (report.CombinedHash() != it->second) {
      std::string detail;
      for (const ScenarioResult& r : report.results) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\n  %-24s %016llx", r.name.c_str(),
                      static_cast<unsigned long long>(r.trace_hash));
        detail += buf;
      }
      ADD_FAILURE() << "policy '" << name << "' combined hash "
                    << std::hex << report.CombinedHash() << " != golden " << it->second
                    << std::dec << "; per-scenario hashes:" << detail;
    }
  }
}

}  // namespace
}  // namespace wcores
