// The one invariant-fuzz harness: seeded random topologies, feature sets and
// workload mixes, with the *mechanism-level* invariants checked at fixed
// virtual-time intervals, optionally under random hotplug churn. Every
// policy in the registry (src/modsched/policy_registry.h) and the modular
// policy run through it (conformance_test.cc), and the directed fuzz tests
// (tests/integration/fuzz_invariants_test.cc) and the NOHZ kick-target test
// (tests/core/balance_test.cc) borrow its helpers and oracles. These are the
// guarantees the core owes regardless of which policy is making decisions:
//
//  * Thread census — every alive thread is exactly one of running / queued /
//    blocked; per-cpu counts match rq nr_running; the running entity matches
//    CurrentThread.
//  * Placement legality — every on_rq entity sits on an online cpu inside
//    its affinity mask, hotplug churn included: the core's
//    select_fallback_rq step widens a mask with no online cpu to every cpu
//    before it places the thread, so no placement leaves the mask.
//  * Per-cfs_rq min_vruntime never decreases (the runqueue owns vruntime
//    accounting even when a policy picks non-leftmost entities).
//  * Load-sum conservation — cached RqLoad equals a from-scratch
//    recomputation, bit for bit, and an online empty runqueue's load is
//    exactly +0.0 (the premise the group fold relies on to skip its reads).
//  * Group-fold twin — ComputeGroupStats equals GroupStatsRecomputed (census
//    equal, metric bit-equal) for every group of every level of every online
//    cpu, so each group's build-time weight is its online member count, and
//    for the whole machine's mask, which under churn holds offline cpus that
//    no group does.
//  * Runqueue structure (red-black invariants, weight accounting), the
//    stat mirrors (ValidateStatMirrors), and LongestIdleCpu and
//    NohzKickTarget vs. linear-scan oracles.
//  * Sanity-checker parity — Algorithm 2's CheckOnce fires iff an
//    independent scan finds an idle core next to a stealable backlog. (How
//    *often* it fires is the policy's business — COREIDLE packs on purpose —
//    but the detector and the scan must always agree.)
//
// Seeding: WC_FUZZ_SEED (env) overrides the base seed, so a CI failure is
// reproducible locally, and every failure message carries the repro command.
#ifndef TESTS_MODSCHED_CONFORMANCE_HARNESS_H_
#define TESTS_MODSCHED_CONFORMANCE_HARNESS_H_

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"

namespace wcores {
namespace conformance {

constexpr uint64_t kDefaultBaseSeed = 20260805ULL;
constexpr Time kHorizon = Milliseconds(300);
constexpr Time kCheckInterval = Microseconds(997);      // Odd: drifts across ticks.
constexpr Time kHotplugInterval = Microseconds(13831);  // ~21 toggles per run.

// The base seed: kDefaultBaseSeed, or WC_FUZZ_SEED when it is set. A value
// that is not a whole unsigned decimal number ("", "abc", "12x", "-1")
// aborts with a message naming the variable instead of fuzzing some other
// seed.
inline uint64_t BaseSeed(const char* env = std::getenv("WC_FUZZ_SEED")) {
  if (env == nullptr) {
    return kDefaultBaseSeed;
  }
  uint64_t seed = 0;
  const char* end = env + std::strlen(env);
  auto [ptr, ec] = std::from_chars(env, end, seed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "WC_FUZZ_SEED='%s' is not an unsigned decimal integer\n", env);
    std::abort();
  }
  return seed;
}

// The note every randomized run carries on failure, naming the running
// test. A test seeds its runs at WC_FUZZ_SEED + offset (+ the run index), so
// WC_FUZZ_SEED = seed - offset makes the failing run that test's first.
inline std::string ReproCommand(const std::string& label, uint64_t seed, uint64_t offset = 0) {
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string filter = test == nullptr ? std::string()
                                       : std::string(test->test_suite_name()) + "." + test->name();
  return label + " seed=" + std::to_string(seed) +
         "; reproduce with: WC_FUZZ_SEED=" + std::to_string(seed - offset) +
         " ctest --test-dir build -R '" + filter + "' --output-on-failure";
}

inline Topology RandomTopology(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: return Topology::Flat(1, 4);
    case 1: return Topology::Flat(2, 4);
    case 2: return Topology::Flat(4, 8);
    default: return Topology::Bulldozer8x8();
  }
}

inline SchedFeatures RandomFeatures(Rng& rng) {
  SchedFeatures f;
  f.fix_group_imbalance = rng.NextBool(0.5);
  f.fix_group_construction = rng.NextBool(0.5);
  f.fix_overload_wakeup = rng.NextBool(0.5);
  f.fix_missing_domains = rng.NextBool(0.5);
  f.autogroup_enabled = rng.NextBool(0.8);
  return f;
}

inline void SpawnRandomMix(Simulator& sim, Rng& rng, int threads) {
  int n_cores = sim.topo().n_cores();
  AutogroupId groups[3] = {kRootAutogroup, sim.CreateAutogroup(), sim.CreateAutogroup()};
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores)));
    params.nice = static_cast<int>(rng.NextBelow(7)) - 3;
    params.autogroup = groups[rng.NextBelow(3)];
    if (rng.NextBool(0.25)) {
      params.affinity =
          CpuSet::Single(static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores))));
    }
    std::vector<Action> script;
    if (rng.NextBool(0.3)) {
      script = {ComputeAction{Seconds(1)}};  // Hog: outlives the horizon.
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script)), params);
    } else {
      script = {ComputeAction{rng.NextTime(Microseconds(200), Milliseconds(3))},
                SleepAction{rng.NextTime(Microseconds(100), Milliseconds(2))}};
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script), /*repeat=*/1000), params);
    }
  }
}

// The LongestIdleCpu oracle: from-scratch linear scan, original tie-break
// (lowest idle_since, then lowest cpu id).
inline CpuId ScanLongestIdle(const Scheduler& sched, int n_cores) {
  CpuId best = kInvalidCpu;
  Time best_since = kTimeNever;
  for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
    if (!sched.IsOnline(cpu) || !sched.IsIdleCpu(cpu)) {
      continue;
    }
    if (sched.IdleSince(cpu) < best_since) {
      best_since = sched.IdleSince(cpu);
      best = cpu;
    }
  }
  return best;
}

// The NohzKickTarget oracle: the first online tickless idle cpu, ascending.
inline CpuId ScanKickTarget(const Scheduler& sched, int n_cores) {
  for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
    if (sched.IsOnline(cpu) && sched.IsTickless(cpu) && sched.IsIdleCpu(cpu)) {
      return cpu;
    }
  }
  return kInvalidCpu;
}

// ComputeGroupStats against its from-scratch twin over `group.cpus`.
inline void ExpectGroupStatsMatchTwin(const Scheduler& sched, Time now, const SchedGroup& group) {
  const CpuSet& cpus = group.cpus;
  Scheduler::GroupLoadStats fast = sched.ComputeGroupStats(now, group);
  Scheduler::GroupLoadStats twin = sched.GroupStatsRecomputed(now, cpus);
  ASSERT_EQ(fast.n_cpus, twin.n_cpus) << "group " << cpus << " at t=" << now;
  ASSERT_EQ(fast.nr_running, twin.nr_running) << "group " << cpus << " at t=" << now;
  ASSERT_EQ(fast.imbalanced, twin.imbalanced) << "group " << cpus << " at t=" << now;
  ASSERT_EQ(std::bit_cast<uint64_t>(fast.metric), std::bit_cast<uint64_t>(twin.metric))
      << "group " << cpus << " metric " << fast.metric << " != twin " << twin.metric
      << " at t=" << now;
}

// One mechanism-invariant sweep over the whole machine at the current
// instant. Policy-agnostic by construction: nothing here asks who decided a
// placement, only whether the core's bookkeeping is coherent and legal.
class InvariantChecker {
 public:
  explicit InvariantChecker(Simulator* sim)
      : sim_(sim), checker_(sim), last_min_vruntime_(sim->topo().n_cores(), 0) {}

  int checks() const { return checks_; }

  void Check() {
    checks_ += 1;
    const Scheduler& sched = sim_->sched();
    const Time now = sim_->Now();
    const int n_cores = sim_->topo().n_cores();

    // Census, classified from the entity side.
    std::vector<int> on_rq_count(n_cores, 0);
    std::vector<int> running_count(n_cores, 0);
    for (ThreadId tid = 0; tid < sched.ThreadCount(); ++tid) {
      const SchedEntity& se = sched.Entity(tid);
      if (se.running) {
        ASSERT_TRUE(se.on_rq) << "tid " << tid << " running but not on_rq";
      }
      if (se.on_rq) {
        ASSERT_GE(se.cpu, 0) << "tid " << tid;
        ASSERT_LT(se.cpu, n_cores) << "tid " << tid;
        ASSERT_TRUE(sched.IsOnline(se.cpu)) << "tid " << tid << " queued on offline cpu";
        ASSERT_TRUE(se.affinity.Test(se.cpu))
            << "tid " << tid << " placed outside its affinity mask on cpu " << se.cpu;
        on_rq_count[se.cpu] += 1;
        if (se.running) {
          running_count[se.cpu] += 1;
          ASSERT_EQ(sched.CurrentThread(se.cpu), tid)
              << "tid " << tid << " claims to run on cpu " << se.cpu;
        }
      }
    }
    for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
      ASSERT_EQ(on_rq_count[cpu], sched.NrRunning(cpu))
          << "cpu " << cpu << ": entity census disagrees with rq nr_running at t=" << now;
      ASSERT_LE(running_count[cpu], 1) << "cpu " << cpu << ": two running entities";
      ThreadId curr = sched.CurrentThread(cpu);
      ASSERT_EQ(running_count[cpu], curr != kInvalidThread ? 1 : 0) << "cpu " << cpu;

      ASSERT_TRUE(sched.ValidateRq(cpu)) << "cpu " << cpu << " rq invariants broken at t=" << now;

      Time mv = sched.MinVruntime(cpu);
      ASSERT_GE(mv, last_min_vruntime_[cpu]) << "cpu " << cpu << " min_vruntime went backwards";
      last_min_vruntime_[cpu] = mv;

      ASSERT_EQ(sched.RqLoad(now, cpu), sched.RqLoadRecomputed(now, cpu))
          << "cpu " << cpu << " cached load diverged from recomputation at t=" << now;
      if (sched.OnlineCpus().Test(cpu) && sched.NrRunning(cpu) == 0) {
        ASSERT_EQ(std::bit_cast<uint64_t>(sched.RqLoad(now, cpu)), uint64_t{0})
            << "cpu " << cpu << " is empty but its load is not +0.0 at t=" << now;
      }
    }

    ASSERT_TRUE(sched.ValidateStatMirrors()) << "stat mirrors diverged at t=" << now;
    for (CpuId cpu : sched.OnlineCpus()) {
      for (const SchedDomain& sd : sched.Domains(cpu).domains) {
        for (const SchedGroup& group : sd.groups()) {
          ASSERT_NO_FATAL_FAILURE(ExpectGroupStatsMatchTwin(sched, now, group));
        }
      }
    }
    // Weighted as BuildDomains weighs a group: its online members.
    const SchedGroup machine{sim_->topo().AllCpus(), kInvalidNode, sched.OnlineCpus().Count()};
    ASSERT_NO_FATAL_FAILURE(ExpectGroupStatsMatchTwin(sched, now, machine));
    ASSERT_EQ(sched.LongestIdleCpu(sim_->topo().AllCpus()), ScanLongestIdle(sched, n_cores))
        << "LongestIdleCpu disagrees with linear scan at t=" << now;
    ASSERT_EQ(sched.NohzKickTarget(), ScanKickTarget(sched, n_cores))
        << "NohzKickTarget disagrees with linear scan at t=" << now;

    // Sanity-checker parity with an independent scan.
    bool expect_violation = false;
    for (CpuId idle : sched.OnlineCpus()) {
      if (sched.NrRunning(idle) >= 1) {
        continue;
      }
      for (CpuId busy : sched.OnlineCpus()) {
        if (busy != idle && sched.NrRunning(busy) >= 2 && sched.CanSteal(idle, busy)) {
          expect_violation = true;
          break;
        }
      }
      if (expect_violation) {
        break;
      }
    }
    CpuId idle_cpu = kInvalidCpu;
    CpuId overloaded_cpu = kInvalidCpu;
    bool fired = checker_.CheckOnce(&idle_cpu, &overloaded_cpu);
    ASSERT_EQ(fired, expect_violation) << "sanity checker disagrees with independent scan";
    if (fired) {
      ASSERT_TRUE(sched.IsIdleCpu(idle_cpu));
      ASSERT_GE(sched.NrRunning(overloaded_cpu), 2);
      ASSERT_TRUE(sched.CanSteal(idle_cpu, overloaded_cpu));
    }
  }

 private:
  Simulator* sim_;
  SanityChecker checker_;
  std::vector<Time> last_min_vruntime_;
  int checks_ = 0;
};

// Re-arming check callback: one sweep every kCheckInterval until kHorizon.
// A named struct (two pointers, so it fits InlineCallback's inline buffer)
// rather than a lambda because it reschedules *itself*.
struct RearmingCheck {
  InvariantChecker* checker;
  Simulator* sim;
  void operator()() const {
    checker->Check();
    if (sim->Now() < kHorizon && !::testing::Test::HasFatalFailure()) {
      sim->After(kCheckInterval, *this);
    }
  }
};

// Random hotplug churn: every kHotplugInterval, toggle one non-boot cpu.
// Cpu 0 stays online so evacuation and affinity fallback always have a
// target. Same self-rescheduling shape as RearmingCheck; the Rng lives in
// the caller because the callback must stay two pointers wide.
struct RearmingHotplug {
  Simulator* sim;
  Rng* rng;
  void operator()() const {
    int n_cores = sim->topo().n_cores();
    if (n_cores > 1) {
      CpuId victim = static_cast<CpuId>(1 + rng->NextBelow(static_cast<uint64_t>(n_cores - 1)));
      sim->SetCpuOnline(victim, !sim->sched().IsOnline(victim));
    }
    if (sim->Now() < kHorizon && !::testing::Test::HasFatalFailure()) {
      sim->After(kHotplugInterval, *this);
    }
  }
};

}  // namespace conformance
}  // namespace wcores

#endif  // TESTS_MODSCHED_CONFORMANCE_HARNESS_H_
