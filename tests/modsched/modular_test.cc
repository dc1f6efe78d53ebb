// The modular scheduler of §5: optimization modules suggest placements, the
// core (ModularPolicy) enforces the work-conserving invariant.
#include "src/modsched/modules.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/simulator.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

namespace wcores {
namespace {

class NullClient : public SchedClient {
 public:
  void KickCpu(CpuId) override {}
  void NohzKick(CpuId) override {}
};

std::unique_ptr<ModularPolicy> PolicyWith(std::unique_ptr<WakeModule> module) {
  auto policy = std::make_unique<ModularPolicy>();
  policy->Add(std::move(module));
  return policy;
}

TEST(ModularSchedTest, SuggestionHonoredWhenTargetIdle) {
  Topology topo = Topology::Flat(2, 2, 1);
  NullClient client;
  auto policy = PolicyWith(std::make_unique<CacheAffinityModule>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 3;
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 3);
  sched.BlockCurrent(Milliseconds(1), 3);
  // Waker on another node; the module wants the (idle) previous core.
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 0);
  EXPECT_EQ(cpu, 3);
  EXPECT_EQ(policy->suggestions(), 1u);
  EXPECT_EQ(policy->vetoes(), 0u);
}

TEST(ModularSchedTest, CoreVetoesBusySuggestionWhenIdleCoreExists) {
  Topology topo = Topology::Flat(2, 2, 1);
  NullClient client;
  auto policy = PolicyWith(std::make_unique<CacheAffinityModule>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 0;
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 0);
  sched.BlockCurrent(Milliseconds(1), 0);
  // Occupy the previous core; cores 1-3 idle. The module suggests busy
  // core 0; the invariant-preserving core must override.
  ThreadParams q;
  q.parent_cpu = 0;
  sched.CreateThread(Milliseconds(1), q);
  sched.PickNext(Milliseconds(1), 0);
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 0);
  EXPECT_NE(cpu, 0);
  EXPECT_TRUE(sched.IsIdleCpu(0) || sched.NrRunning(cpu) >= 1);
  EXPECT_EQ(policy->vetoes(), 1u);
}

TEST(ModularSchedTest, SuggestionTakenWhenNoIdleCoreExists) {
  Topology topo = Topology::Flat(1, 2, 1);
  NullClient client;
  auto policy = PolicyWith(std::make_unique<CacheAffinityModule>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(2), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 0;
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 0);
  sched.BlockCurrent(Milliseconds(1), 0);
  // Fill both cores.
  for (CpuId c = 0; c < 2; ++c) {
    ThreadParams q;
    q.parent_cpu = c;
    sched.CreateThread(Milliseconds(1), q);
    sched.PickNext(Milliseconds(1), c);
  }
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 1);
  EXPECT_EQ(cpu, 0);  // Busy, but nothing idle: cache reuse wins.
  EXPECT_EQ(policy->suggestions(), 1u);
}

TEST(ModularSchedTest, AbstainingModuleFallsThroughToStockPath) {
  Topology topo = Topology::Flat(1, 2, 1);
  NullClient client;
  class Abstainer : public WakeModule {
   public:
    CpuId Suggest(const Scheduler&, const SchedEntity&, const CpuSet&) const override {
      return kInvalidCpu;
    }
    const char* name() const override { return "abstain"; }
  };
  auto policy = PolicyWith(std::make_unique<Abstainer>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(2), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 0;
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 0);
  sched.BlockCurrent(Milliseconds(1), 0);
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 0);
  EXPECT_EQ(cpu, 0);  // Stock path: previous core, idle.
  EXPECT_EQ(policy->suggestions(), 0u);
  EXPECT_EQ(policy->last_winner(), nullptr);
}

// The policy owns its modules and consults them in the order added: the
// cache module outranks load-spread. Nothing else keeps the modules alive,
// so a lifetime bug would be a use-after-free under ASan.
TEST(ModularSchedTest, ChainOwnsModulesAddedByUniquePtr) {
  Topology topo = Topology::Flat(2, 2, 1);
  NullClient client;
  auto policy = std::make_unique<ModularPolicy>();
  policy->Add(std::make_unique<CacheAffinityModule>());
  policy->Add(std::make_unique<LoadSpreadModule>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 2;
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 2);
  sched.BlockCurrent(Milliseconds(1), 2);
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 0);
  EXPECT_EQ(cpu, 2);
  EXPECT_STREQ(policy->last_winner(), "cache-affinity");
}

TEST(ModularSchedTest, NumaLocalityPrefersIdleCoreOfOwnNode) {
  Topology topo = Topology::Flat(2, 2, 1);
  NullClient client;
  auto policy = PolicyWith(std::make_unique<NumaLocalityModule>());
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client, nullptr,
                  policy.get());
  ThreadParams p;
  p.parent_cpu = 2;  // Node 1.
  ThreadId tid = sched.CreateThread(0, p);
  sched.PickNext(0, 2);
  sched.BlockCurrent(Milliseconds(1), 2);
  // Occupy core 2; core 3 (same node) idle.
  ThreadParams q;
  q.parent_cpu = 2;
  sched.CreateThread(Milliseconds(1), q);
  sched.PickNext(Milliseconds(1), 2);
  CpuId cpu = sched.Wake(Milliseconds(2), tid, 2);
  EXPECT_EQ(cpu, 3);
  EXPECT_STREQ(policy->last_winner(), "numa-locality");
}

// The §5 demonstration: an aggressively cache-greedy module under the
// invariant-enforcing core does NOT reintroduce the Overload-on-Wakeup
// pathology on the database workload.
TEST(ModularSchedTest, GreedyCacheModuleCannotReintroduceOverloadOnWakeup) {
  auto run = [](bool modular) {
    Topology topo = Topology::Bulldozer8x8();
    Simulator::Options opts;
    opts.features.autogroup_enabled = false;
    opts.seed = 404;
    std::unique_ptr<ModularPolicy> policy;
    if (modular) {
      policy = PolicyWith(std::make_unique<CacheAffinityModule>());
      opts.policy = policy.get();
    }
    Simulator sim(topo, opts);
    TpchConfig config;
    config.queries = {TpchQuery18(2.0)};
    TpchWorkload db(&sim, config);
    db.Setup();
    TransientThreadGenerator::Options topts;
    TransientThreadGenerator transients(&sim, topts);
    transients.Start();
    sim.Run(Seconds(30));
    EXPECT_TRUE(db.Finished());
    return ToSeconds(db.TotalTime());
  };
  double stock = run(false);    // Overload-on-Wakeup bug active.
  double modular = run(true);   // Greedy module + invariant-enforcing core.
  // The modular configuration must not be slower than the buggy stock
  // scheduler: the core's veto turns the greedy module into (at worst) the
  // paper's wakeup fix.
  EXPECT_LT(modular, stock * 1.02) << "stock=" << stock << " modular=" << modular;
}

}  // namespace
}  // namespace wcores
