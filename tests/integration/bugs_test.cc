// End-to-end magnitude of the four bugs of §3: each test runs the same
// workload under the stock (buggy) scheduler and under the fixed one, and
// checks that the fix speeds it up by the paper's shape. Each bug's
// signature (idle cores beside overloaded ones, wakeups on busy cores,
// threads confined to one node) is probed, stock and fixed, by the cfs rows
// of PolicyBugMatrix (tests/modsched/policy_bug_matrix_test.cc).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

namespace wcores {
namespace {

// ---------------------------------------------------------------- §3.1 -----

double MakeCompletionSeconds(const SchedFeatures& features) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = features;
  opts.seed = 11;
  Simulator sim(topo, opts);
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(300);
  config.r_work = Seconds(3);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(10));
  EXPECT_TRUE(wl.MakeFinished());
  return ToSeconds(wl.MakeCompletionTime());
}

TEST(GroupImbalanceBugTest, FixSpeedsUpMake) {
  SchedFeatures stock;
  SchedFeatures fixed;
  fixed.fix_group_imbalance = true;
  double buggy = MakeCompletionSeconds(stock);
  double good = MakeCompletionSeconds(fixed);
  // Paper: make completion decreased by 13% with the fix.
  EXPECT_LT(good, buggy * 0.97) << "buggy=" << buggy << " fixed=" << good;
}

// ---------------------------------------------------------------- §3.2 -----

double PinnedNasSeconds(NasApp app, const SchedFeatures& features, double scale) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = features;
  opts.seed = 13;
  Simulator sim(topo, opts);
  NasConfig config;
  config.app = app;
  config.threads = 16;  // As many threads as cores on two nodes.
  config.affinity = topo.CpusOfNode(1) | topo.CpusOfNode(2);  // numactl --cpunodebind=1,2
  config.spawn_cpu = topo.CpusOfNode(1).First();
  config.scale = scale;
  NasWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(120));
  EXPECT_TRUE(wl.Finished()) << NasAppName(app);
  return ToSeconds(wl.CompletionTime());
}

TEST(GroupConstructionBugTest, PinnedLuIsManyTimesSlower) {
  SchedFeatures stock;
  SchedFeatures fixed;
  fixed.fix_group_construction = true;
  double buggy = PinnedNasSeconds(NasApp::kLu, stock, 0.2);
  double good = PinnedNasSeconds(NasApp::kLu, fixed, 0.2);
  // Paper Table 1: lu speeds up 27x. The shape requirement: a large
  // super-linear factor (>4x), far above the 2x CPU-share bound.
  EXPECT_GT(buggy / good, 4.0) << "buggy=" << buggy << " fixed=" << good;
}

TEST(GroupConstructionBugTest, PinnedEpSpeedsUpAboutTwoTimes) {
  SchedFeatures stock;
  SchedFeatures fixed;
  fixed.fix_group_construction = true;
  double buggy = PinnedNasSeconds(NasApp::kEp, stock, 0.5);
  double good = PinnedNasSeconds(NasApp::kEp, fixed, 0.5);
  // ep is embarrassingly parallel: the impact is the pure 2x CPU-share loss.
  EXPECT_GT(buggy / good, 1.5);
  EXPECT_LT(buggy / good, 3.0);
}

// ---------------------------------------------------------------- §3.3 -----

double TpchQ18Seconds(const SchedFeatures& features) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = features;
  opts.features.autogroup_enabled = false;  // As in the paper's Figure 3 runs.
  opts.seed = 15;
  Simulator sim(topo, opts);
  TpchConfig config;
  config.queries = {TpchQuery18(/*scale=*/4.0)};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  TransientThreadGenerator::Options topts;
  topts.mean_interval = Milliseconds(2);
  TransientThreadGenerator transients(&sim, topts);
  transients.Start();
  sim.Run(Seconds(30));
  EXPECT_TRUE(wl.Finished());
  return ToSeconds(wl.TotalTime());
}

TEST(OverloadOnWakeupBugTest, FixSpeedsUpTpchQ18) {
  SchedFeatures stock;
  SchedFeatures fixed;
  fixed.fix_overload_wakeup = true;
  double buggy = TpchQ18Seconds(stock);
  double good = TpchQ18Seconds(fixed);
  // Paper Table 2: -22.2% on Q18. Shape: a measurable speedup.
  EXPECT_LT(good, buggy * 0.98) << "buggy=" << buggy << " fixed=" << good;
}

// ---------------------------------------------------------------- §3.4 -----

double HotplugNasSeconds(NasApp app, const SchedFeatures& features, double scale) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = features;
  opts.seed = 17;
  Simulator sim(topo, opts);
  // Disable and re-enable a core before launching (the /proc interface).
  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  NasConfig config;
  config.app = app;
  config.threads = 64;
  config.spawn_cpu = 0;  // All threads fork from the same root process.
  config.scale = scale;
  NasWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(600));
  EXPECT_TRUE(wl.Finished()) << NasAppName(app);
  return ToSeconds(wl.CompletionTime());
}

TEST(MissingDomainsBugTest, HotplugConfinesLuToOneNode) {
  SchedFeatures stock;
  SchedFeatures fixed;
  fixed.fix_missing_domains = true;
  double buggy = HotplugNasSeconds(NasApp::kLu, stock, 0.1);
  double good = HotplugNasSeconds(NasApp::kLu, fixed, 0.1);
  // Paper Table 3: lu runs 138x faster without the bug. Shape: a large
  // super-linear factor, well above the 8x CPU-share bound.
  EXPECT_GT(buggy / good, 8.0) << "buggy=" << buggy << " fixed=" << good;
}

// ------------------------------------------------------------- memo keys ---

// Mid-run feature toggling, as the ablation driver does it: scheduler
// feature flags feed the autogroup divisors that the RqLoad memo bakes into
// its cached sums, so a flip that bumps no divisor epoch would keep serving
// pre-toggle values under post-toggle semantics. The probe is at the *same
// instant* with the same load_versions on purpose — only the divisor epoch
// in the key can tell the stale fills apart from fresh ones.
TEST(FeatureToggleTest, MidRunGroupImbalanceToggleInvalidatesLoadMemos) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features.fix_group_imbalance = true;  // Balancing populates group stats.
  opts.features.autogroup_enabled = true;
  opts.seed = 21;
  Simulator sim(topo, opts);
  AutogroupId grp = sim.CreateAutogroup();
  for (int i = 0; i < 24; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(i % topo.n_cores());
    params.autogroup = i % 2 == 0 ? grp : kRootAutogroup;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              params);
  }
  sim.Run(Milliseconds(50));

  Scheduler& sched = sim.sched();
  const Time now = sim.Now();
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    (void)sched.RqLoad(now, c);  // Populate the per-rq memo at this instant.
  }

  SchedFeatures toggled = opts.features;
  toggled.fix_group_imbalance = false;  // The ablation's flip...
  toggled.autogroup_enabled = false;    // ...and one that changes every divisor.
  sched.UpdateFeatures(toggled);

  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    ASSERT_EQ(sched.RqLoad(now, c), sched.RqLoadRecomputed(now, c))
        << "cpu " << c << ": memo served a pre-toggle load";
  }

  // Flip back: fills made under the toggled flags must not leak into
  // this one either, and the run must stay healthy afterwards.
  sched.UpdateFeatures(opts.features);
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    ASSERT_EQ(sched.RqLoad(now, c), sched.RqLoadRecomputed(now, c)) << "cpu " << c;
  }
  sim.Run(Milliseconds(100));
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    ASSERT_EQ(sched.RqLoad(sim.Now(), c), sched.RqLoadRecomputed(sim.Now(), c)) << "cpu " << c;
  }
}

}  // namespace
}  // namespace wcores
