#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>

#include "src/sim/simulator.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

namespace wcores {
namespace {

Simulator::Options Fixed() {
  Simulator::Options opts;
  opts.features = SchedFeatures::AllFixed();
  return opts;
}

// ---- NAS ---------------------------------------------------------------------

TEST(NasWorkloadTest, AllAppsRunToCompletion) {
  for (NasApp app : AllNasApps()) {
    Topology topo = Topology::Flat(2, 4, 2);
    Simulator sim(topo, Fixed());
    NasConfig config;
    config.app = app;
    config.threads = 8;
    config.scale = 0.05;
    NasWorkload wl(&sim, config);
    wl.Setup();
    sim.Run(Seconds(120));
    EXPECT_TRUE(wl.Finished()) << NasAppName(app);
    EXPECT_GT(wl.CompletionTime(), 0u) << NasAppName(app);
    EXPECT_GT(wl.TotalComputeTime(), 0u) << NasAppName(app);
  }
}

TEST(NasWorkloadTest, AppNamesAreUnique) {
  std::set<std::string> names;
  for (NasApp app : AllNasApps()) {
    names.insert(NasAppName(app));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(NasWorkloadTest, AffinityIsRespected) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 8;
  config.affinity = topo.CpusOfNode(2);
  config.scale = 0.1;
  NasWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(60));
  EXPECT_TRUE(wl.Finished());
  for (ThreadId tid : wl.threads()) {
    EXPECT_TRUE(topo.CpusOfNode(2).Test(sim.sched().Entity(tid).cpu));
  }
}

// The precondition holds in every build type, NDEBUG included.
TEST(NasWorkloadDeathTest, SecondSetupAborts) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Fixed());
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 2;
  NasWorkload wl(&sim, config);
  wl.Setup();
  EXPECT_DEATH(wl.Setup(), "WC_CHECK failed: Setup called twice");
}

// cg's thread: compute, lock, critical section, unlock per iteration, then
// ExitAction on every call after the last unlock.
TEST(LockComputeBehaviorTest, ExitsAfterTheLastUnlock) {
  Rng rng(1);
  BehaviorContext ctx;
  ctx.rng = &rng;
  const SyncId lock = 3;
  LockComputeBehavior behavior(lock, Milliseconds(1), Microseconds(50), /*iterations=*/2);
  for (int i = 0; i < 2; ++i) {
    Action compute = behavior.Next(ctx);
    ASSERT_TRUE(std::holds_alternative<ComputeAction>(compute)) << i;
    EXPECT_GE(std::get<ComputeAction>(compute).duration, Microseconds(700)) << i;
    EXPECT_LE(std::get<ComputeAction>(compute).duration, Microseconds(1300)) << i;
    Action acquire = behavior.Next(ctx);
    ASSERT_TRUE(std::holds_alternative<SpinLockAction>(acquire)) << i;
    EXPECT_EQ(std::get<SpinLockAction>(acquire).lock, lock) << i;
    Action critical = behavior.Next(ctx);
    ASSERT_TRUE(std::holds_alternative<ComputeAction>(critical)) << i;
    EXPECT_EQ(std::get<ComputeAction>(critical).duration, Microseconds(50)) << i;
    Action release = behavior.Next(ctx);
    ASSERT_TRUE(std::holds_alternative<SpinUnlockAction>(release)) << i;
    EXPECT_EQ(std::get<SpinUnlockAction>(release).lock, lock) << i;
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::holds_alternative<ExitAction>(behavior.Next(ctx))) << i;
  }
}

TEST(NasWorkloadTest, LuSpinsMoreThanEp) {
  // The synchronization structure must differ: lu's pipeline burns spin
  // cycles even in a healthy run; ep burns almost none.
  Topology topo = Topology::Flat(2, 4, 2);
  Simulator sim(topo, Fixed());
  NasConfig lu_config;
  lu_config.app = NasApp::kLu;
  lu_config.threads = 8;
  lu_config.scale = 0.05;
  NasWorkload lu(&sim, lu_config);
  lu.Setup();
  sim.Run(Seconds(60));
  ASSERT_TRUE(lu.Finished());

  Simulator sim2(topo, Fixed());
  NasConfig ep_config;
  ep_config.app = NasApp::kEp;
  ep_config.threads = 8;
  ep_config.scale = 0.05;
  NasWorkload ep(&sim2, ep_config);
  ep.Setup();
  sim2.Run(Seconds(60));
  ASSERT_TRUE(ep.Finished());

  EXPECT_GT(lu.TotalSpinTime(), ep.TotalSpinTime());
}

TEST(NasWorkloadTest, ScaleShortensRuns) {
  Topology topo = Topology::Flat(2, 4, 2);
  double times[2];
  int i = 0;
  for (double scale : {0.05, 0.1}) {
    Simulator sim(topo, Fixed());
    NasConfig config;
    config.app = NasApp::kBt;
    config.threads = 8;
    config.scale = scale;
    NasWorkload wl(&sim, config);
    wl.Setup();
    sim.Run(Seconds(60));
    EXPECT_TRUE(wl.Finished());
    times[i++] = ToSeconds(wl.CompletionTime());
  }
  EXPECT_LT(times[0], times[1]);
}

// ---- make + R ----------------------------------------------------------------------

TEST(MakeRWorkloadTest, RunsToCompletion) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(50);
  config.r_work = Milliseconds(500);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(30));
  EXPECT_TRUE(wl.MakeFinished());
  EXPECT_EQ(wl.make_threads().size(), 64u);
  EXPECT_EQ(wl.r_threads().size(), 2u);
  for (Time t : wl.RCompletionTimes()) {
    EXPECT_GT(t, 0u);
  }
}

TEST(MakeRWorkloadTest, ThreeAutogroups) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  MakeRConfig config;
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  // make threads share one autogroup; each R has its own.
  AutogroupId make_group = sim.sched().Entity(wl.make_threads()[0]).autogroup;
  for (ThreadId tid : wl.make_threads()) {
    EXPECT_EQ(sim.sched().Entity(tid).autogroup, make_group);
  }
  AutogroupId r0 = sim.sched().Entity(wl.r_threads()[0]).autogroup;
  AutogroupId r1 = sim.sched().Entity(wl.r_threads()[1]).autogroup;
  EXPECT_NE(r0, make_group);
  EXPECT_NE(r1, make_group);
  EXPECT_NE(r0, r1);
  // The load division: a make thread's divisor is 64x an R thread's.
  EXPECT_DOUBLE_EQ(sim.sched().AutogroupDivisor(make_group), 64.0);
  EXPECT_DOUBLE_EQ(sim.sched().AutogroupDivisor(r0), 1.0);
}

// ---- TPC-H ----------------------------------------------------------------------------

TEST(TpchWorkloadTest, FullSuiteHas22Queries) {
  std::vector<TpchQuerySpec> suite = FullTpchSuite();
  EXPECT_EQ(suite.size(), 22u);
  EXPECT_EQ(TpchQuery18().id, 18);
  EXPECT_GT(TpchQuery18().stages, 0);
}

TEST(TpchWorkloadTest, Query18IsTheFinestGrained) {
  // Q18 is "one of the queries most sensitive to the bug": most stages.
  std::vector<TpchQuerySpec> suite = FullTpchSuite();
  int q18_stages = TpchQuery18().stages;
  for (const TpchQuerySpec& q : suite) {
    EXPECT_LE(q.stages, q18_stages) << "query " << q.id;
  }
}

TEST(TpchWorkloadTest, RunsAndRecordsQueryTimes) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  TpchConfig config;
  config.queries = {TpchQuery18(0.3), TpchQuerySpec{1, 5, Milliseconds(1), 0.2}};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(30));
  EXPECT_TRUE(wl.Finished());
  EXPECT_EQ(wl.TotalWorkers(), 64);
  ASSERT_EQ(wl.QueryTimes().size(), 2u);
  EXPECT_GT(wl.QueryTimes()[0], 0u);
  EXPECT_GT(wl.QueryTimes()[1], 0u);
}

TEST(TpchWorkloadTest, WorkerPoolsGetDistinctAutogroups) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  TpchConfig config;
  config.queries = {TpchQuerySpec{1, 2, Milliseconds(1), 0.0}};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  std::set<AutogroupId> groups;
  for (ThreadId tid : wl.workers()) {
    groups.insert(sim.sched().Entity(tid).autogroup);
  }
  EXPECT_EQ(groups.size(), config.pool_sizes.size());
}

TEST(TpchWorkloadTest, WorkersSleepNotSpin) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator sim(topo, Fixed());
  TpchConfig config;
  config.queries = {TpchQuery18(0.5)};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(30));
  ASSERT_TRUE(wl.Finished());
  for (ThreadId tid : wl.workers()) {
    EXPECT_EQ(sim.thread(tid).spin_time, 0u);
  }
}

// ---- Transient threads -------------------------------------------------------------------

TEST(TransientTest, SpawnsAtRoughlyTheConfiguredRate) {
  Topology topo = Topology::Flat(2, 4, 1);
  Simulator sim(topo, Fixed());
  TransientThreadGenerator::Options opts;
  opts.mean_interval = Milliseconds(2);
  opts.stop_at = Seconds(1);
  TransientThreadGenerator gen(&sim, opts);
  gen.Start();
  sim.Run(Seconds(2));
  // ~500 expected over 1s of spawning.
  EXPECT_GT(gen.spawned(), 350u);
  EXPECT_LT(gen.spawned(), 700u);
  EXPECT_EQ(sim.alive_threads(), 0);  // All transient threads exit quickly.
}

TEST(TransientTest, StopAtHaltsSpawning) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Fixed());
  TransientThreadGenerator::Options opts;
  opts.mean_interval = Milliseconds(10);
  opts.stop_at = Milliseconds(100);
  TransientThreadGenerator gen(&sim, opts);
  gen.Start();
  sim.Run(Seconds(1));
  uint64_t after_stop = gen.spawned();
  sim.Run(Seconds(2));
  EXPECT_EQ(gen.spawned(), after_stop);
}

TEST(TransientTest, ThreadsAreShortLived) {
  // "tasks that last less than a millisecond" (§3.3).
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Fixed());
  TransientThreadGenerator::Options opts;
  opts.stop_at = Milliseconds(100);
  TransientThreadGenerator gen(&sim, opts);
  gen.Start();
  sim.Run(Seconds(1));
  for (int i = 0; i < sim.thread_count(); ++i) {
    const SimThread& t = sim.thread(i);
    EXPECT_LT(t.total_compute, Milliseconds(1));
  }
}

}  // namespace
}  // namespace wcores
