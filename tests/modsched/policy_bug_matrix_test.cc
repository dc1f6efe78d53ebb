// Which of the paper's four bugs does each policy exhibit?
//
// The directed scenarios from §3 (Fig. 2 group imbalance, Table 1 group
// construction, Fig. 3 overload-on-wakeup, Fig. 5 missing domains) are run
// under every registered policy, probing each bug's observable signature.
// The cfs/stock and cfs/fixed rows are the signature tests for CFS itself;
// tests/integration/bugs_test.cc pins only the fixes' magnitudes. The
// expectation table below is checked in, so a policy change that silently
// acquires or sheds one of the pathologies fails here.
//
// The "fixed" row ablates per bug, the paper's own methodology: each probe
// enables only the fix flag targeting the bug it probes, everything else
// stock. Composing all four fixes is NOT equivalent — the min-load metric
// (the group-imbalance fix) halves the gap to the busiest group's
// *least*-loaded cpu, and when a pinned group is internally uneven that
// budget drops below one autogroup-divided thread load, so AllFixed leaves
// the pinned NAS run confined even though fix_group_construction alone
// spreads it. The ablation keeps each cell about one bug.
//
// Why the table looks the way it does:
//  * cfs/stock exhibits all four — that is the paper.
//  * cfs/fixed exhibits none — each paper patch kills the bug it targets.
//  * o1 (Linux 2.6.8) places wakes on the previous cpu and trusts the
//    balancer: it stacks wakeups (overload-on-wakeup by design) and, since
//    it inherits the stock CFS balancers, keeps their group-imbalance,
//    group-construction, and missing-domain blind spots.
//  * coreidle packs onto a consolidated active set instead of waking onto
//    busy prev cpus, and its active set ignores domains entirely, so the
//    wakeup and hotplug signatures disappear; but packing plus the stock
//    balancers it inherits keeps the pinned two-node NAS run on one node —
//    the same observable as the construction bug, from consolidation
//    rather than from Core 0's broken group list.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

namespace wcores {
namespace {

// One row per (policy, feature set) the arena cares about. "fixed" only
// exists for cfs: the fix flags patch CFS decision paths, so for policies
// that replace those paths the stock row is the policy's behavior.
struct BugMatrixRow {
  const char* policy;        // Registry name; "" = built-in default CFS.
  bool fixed_features;       // Each probe enables the fix for its own bug.
  bool group_imbalance;      // Fig. 2: idle cores while autogrouped make overloads others.
  bool group_construction;   // Table 1: pinned-to-two-nodes app runs on one node.
  bool overload_wakeup;      // Fig. 3: wakes land on busy cores despite idle ones.
  bool missing_domains;      // Fig. 5: after hotplug, threads never leave spawn node.
};

constexpr BugMatrixRow kExpected[] = {
    {"cfs", false, true, true, true, true},
    {"cfs", true, false, false, false, false},
    {"o1", false, true, true, true, true},
    {"coreidle", false, false, true, false, false},
};

// The feature set a probe runs under: stock, except a "fixed" row turns on
// the one flag that patches the bug this probe measures.
SchedFeatures MatrixFeatures(const BugMatrixRow& row, bool SchedFeatures::* fix) {
  SchedFeatures f;
  if (row.fixed_features) {
    f.*fix = true;
  }
  return f;
}

// The simulator borrows both the topology and the policy, so all three live
// together, initialized in place (no return-by-value: a move would relocate
// the topology the simulator holds a reference to). Declaration order is
// lifetime order; the simulator is destroyed first.
struct PolicyRun {
  Topology topo = Topology::Bulldozer8x8();
  std::unique_ptr<SchedPolicy> policy;
  std::unique_ptr<Simulator> sim;

  PolicyRun(const BugMatrixRow& row, SchedFeatures features, uint64_t seed,
            bool autogroup = true) {
    Simulator::Options opts;
    opts.features = features;
    opts.features.autogroup_enabled = autogroup;
    opts.seed = seed;
    if (row.policy[0] != '\0') {
      policy = CreateSchedPolicy(row.policy);
      EXPECT_NE(policy, nullptr) << row.policy;
      opts.policy = policy.get();
    }
    sim = std::make_unique<Simulator>(topo, opts);
  }
};

std::string RowName(const BugMatrixRow& row) {
  return std::string(row.policy) + (row.fixed_features ? "/fixed" : "/stock");
}

// Fig. 2 signature: during the make+R phase, repeatedly observe some core
// idle while another holds >= 2 runnable threads.
bool ExhibitsGroupImbalance(const BugMatrixRow& row) {
  PolicyRun run(row, MatrixFeatures(row, &SchedFeatures::fix_group_imbalance), 12);
  Simulator& sim = *run.sim;
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(400);
  config.r_work = Seconds(3);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  int idle_with_overload = 0;
  for (Time t = Milliseconds(60); t <= Milliseconds(300); t += Milliseconds(20)) {
    sim.At(t, [&sim, &idle_with_overload] {
      bool any_idle = false;
      bool any_overloaded = false;
      for (CpuId c = 0; c < sim.topo().n_cores(); ++c) {
        int nr = sim.sched().NrRunning(c);
        any_idle = any_idle || nr == 0;
        any_overloaded = any_overloaded || nr >= 2;
      }
      if (any_idle && any_overloaded) {
        ++idle_with_overload;
      }
    });
  }
  sim.Run(Seconds(8));
  return idle_with_overload >= 5;
}

// Node-confinement probe shared by the Table 1 and Fig. 5 signatures:
// sample every 10 ms; while the app is still running anywhere (active
// sample), check whether any cpu OUTSIDE `home_node` runs work. "Confined"
// means a meaningful active window with zero escapes — the activity guard
// keeps a fast-finishing run from passing vacuously.
struct ConfinementProbe {
  Simulator* sim = nullptr;
  int home_node = 1;
  int active_samples = 0;
  int escaped_samples = 0;

  void Sample() {
    const Topology& topo = sim->topo();
    bool active = false;
    bool escaped = false;
    for (CpuId c = 0; c < topo.n_cores(); ++c) {
      if (sim->sched().NrRunning(c) > 0) {
        active = true;
        escaped = escaped || topo.NodeOf(c) != home_node;
      }
    }
    active_samples += active ? 1 : 0;
    escaped_samples += escaped ? 1 : 0;
  }

  bool Confined() const {
    EXPECT_GE(active_samples, 10) << "app finished before the probe saw it run";
    return escaped_samples == 0;
  }
};

void ScheduleConfinementSamples(Simulator& sim, ConfinementProbe& probe) {
  for (Time t = Milliseconds(10); t <= Seconds(2); t += Milliseconds(10)) {
    sim.At(t, [&probe] { probe.Sample(); });
  }
}

// Table 1 signature: an app pinned to nodes 1 and 2, spawned on node 1,
// never runs anything outside node 1 while it is active.
bool ExhibitsGroupConstruction(const BugMatrixRow& row) {
  PolicyRun run(row, MatrixFeatures(row, &SchedFeatures::fix_group_construction), 14);
  Simulator& sim = *run.sim;
  const Topology& topo = sim.topo();
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 16;
  config.affinity = topo.CpusOfNode(1) | topo.CpusOfNode(2);
  config.spawn_cpu = topo.CpusOfNode(1).First();
  config.scale = 0.3;
  NasWorkload wl(&sim, config);
  wl.Setup();
  ConfinementProbe probe{&sim, /*home_node=*/1};
  ScheduleConfinementSamples(sim, probe);
  sim.Run(Seconds(40));
  return probe.Confined();
}

// Fig. 3 signature: with a barrier-heavy query plus transient noise, a
// significant fraction of wakeups land on busy cores even though the
// 64-core machine is never saturated.
bool ExhibitsOverloadOnWakeup(const BugMatrixRow& row) {
  PolicyRun run(row, MatrixFeatures(row, &SchedFeatures::fix_overload_wakeup), 16,
                /*autogroup=*/false);
  Simulator& sim = *run.sim;
  TpchConfig config;
  config.queries = {TpchQuery18(/*scale=*/2.0)};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  TransientThreadGenerator::Options topts;
  TransientThreadGenerator transients(&sim, topts);
  transients.Start();
  sim.Run(Seconds(30));
  const SchedStats& stats = sim.sched().stats();
  EXPECT_GT(stats.wakeups, 0u);
  return stats.wakeups_on_busy > stats.wakeups / 50;
}

// Fig. 5 signature: after a cpu is offlined and re-onlined, threads spawned
// on node 1 never run anywhere else.
bool ExhibitsMissingDomains(const BugMatrixRow& row) {
  PolicyRun run(row, MatrixFeatures(row, &SchedFeatures::fix_missing_domains), 18);
  Simulator& sim = *run.sim;
  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 16;
  config.spawn_cpu = 8;  // Node 1.
  config.scale = 0.3;
  NasWorkload wl(&sim, config);
  wl.Setup();
  ConfinementProbe probe{&sim, /*home_node=*/1};
  ScheduleConfinementSamples(sim, probe);
  sim.Run(Seconds(40));
  return probe.Confined();
}

TEST(PolicyBugMatrix, EveryPolicyMatchesItsExpectedBugSignature) {
  for (const BugMatrixRow& row : kExpected) {
    SCOPED_TRACE(RowName(row));
    EXPECT_EQ(ExhibitsGroupImbalance(row), row.group_imbalance) << "group-imbalance signature";
    EXPECT_EQ(ExhibitsGroupConstruction(row), row.group_construction)
        << "group-construction signature";
    EXPECT_EQ(ExhibitsOverloadOnWakeup(row), row.overload_wakeup)
        << "overload-on-wakeup signature";
    EXPECT_EQ(ExhibitsMissingDomains(row), row.missing_domains) << "missing-domains signature";
  }
}

// The table must cover the registry: a newly registered policy needs a row
// (and a deliberate decision about which bugs it exhibits) before it ships.
TEST(PolicyBugMatrix, ExpectationTableCoversEveryRegisteredPolicy) {
  for (const std::string& name : SchedPolicyNames()) {
    bool found = false;
    for (const BugMatrixRow& row : kExpected) {
      found = found || name == row.policy;
    }
    EXPECT_TRUE(found) << "policy '" << name
                       << "' registered but absent from the bug-expectation table";
  }
}

}  // namespace
}  // namespace wcores
