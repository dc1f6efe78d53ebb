// Randomized property fuzzer: seeded random topologies, feature sets, and
// workload mixes, with scheduler invariants checked at fixed virtual-time
// intervals throughout each run.
//
// Invariants per check:
//  * Thread conservation — every alive thread is exactly one of running /
//    queued / blocked; per-cpu on_rq counts match rq->nr_running; the
//    running entity matches CurrentThread.
//  * Per-cfs_rq min_vruntime never decreases.
//  * Load-sum conservation — the (cached) RqLoad equals a from-scratch
//    recomputation, bit for bit.
//  * Runqueue structure — red-black invariants, vruntime ordering, weight
//    accounting (Scheduler::ValidateRq).
//  * Sanity-checker parity — Algorithm 2's CheckOnce fires iff a core is
//    idle while another runqueue holds a thread it could steal.
//
// Seeding: the base seed comes from WC_FUZZ_SEED (env) so a CI failure is
// reproducible locally; every failure message carries the repro command.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

constexpr uint64_t kDefaultBaseSeed = 20260805ULL;
constexpr int kRuns = 6;
constexpr Time kHorizon = Milliseconds(300);
constexpr Time kCheckInterval = Microseconds(997);  // Odd: drifts across ticks.
constexpr Time kHotplugInterval = Microseconds(13831);  // ~21 toggles per run.

uint64_t BaseSeed() {
  const char* env = std::getenv("WC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefaultBaseSeed;
}

std::string ReproCommand(uint64_t seed) {
  return "reproduce with: WC_FUZZ_SEED=" + std::to_string(seed) +
         " ctest --test-dir build -R FuzzInvariants --output-on-failure";
}

Topology RandomTopology(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: return Topology::Flat(1, 4);
    case 1: return Topology::Flat(2, 4);
    case 2: return Topology::Flat(4, 8);
    default: return Topology::Bulldozer8x8();
  }
}

SchedFeatures RandomFeatures(Rng& rng) {
  SchedFeatures f;
  f.fix_group_imbalance = rng.NextBool(0.5);
  f.fix_group_construction = rng.NextBool(0.5);
  f.fix_overload_wakeup = rng.NextBool(0.5);
  f.fix_missing_domains = rng.NextBool(0.5);
  f.autogroup_enabled = rng.NextBool(0.8);
  return f;
}

void SpawnRandomMix(Simulator& sim, Rng& rng, int threads) {
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

// The LongestIdleCpu oracle: a from-scratch linear scan with the original
// tie-break (lowest idle_since, then lowest cpu id).
CpuId ScanLongestIdle(const Scheduler& sched, int n_cores) {
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
CpuId ScanKickTarget(const Scheduler& sched, int n_cores) {
  for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
    if (sched.IsOnline(cpu) && sched.IsTickless(cpu) && sched.IsIdleCpu(cpu)) {
      return cpu;
    }
  }
  return kInvalidCpu;
}

// One invariant sweep over the whole machine at the current instant.
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

    // Thread conservation: classify every entity once, from the entity
    // side, and reconcile against every runqueue's own counters.
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

      // Runqueue structure.
      ASSERT_TRUE(sched.ValidateRq(cpu)) << "cpu " << cpu << " rq invariants broken at t=" << now;

      // min_vruntime monotonicity.
      Time mv = sched.MinVruntime(cpu);
      ASSERT_GE(mv, last_min_vruntime_[cpu]) << "cpu " << cpu << " min_vruntime went backwards";
      last_min_vruntime_[cpu] = mv;

      // Load-sum conservation: cached == recomputed, exactly.
      ASSERT_EQ(sched.RqLoad(now, cpu), sched.RqLoadRecomputed(now, cpu))
          << "cpu " << cpu << " cached load diverged from recomputation at t=" << now;

      // The group fold's premise (ComputeGroupStats skips these reads): an
      // online empty runqueue's load is exactly +0.0, bit for bit.
      if (sched.OnlineCpus().Test(cpu) && sched.NrRunning(cpu) == 0) {
        ASSERT_EQ(std::bit_cast<uint64_t>(sched.RqLoad(now, cpu)), uint64_t{0})
            << "cpu " << cpu << " is empty but its load is not +0.0 at t=" << now;
      }
    }

    // Stat mirrors: nr_running/load_version write-through, the overload
    // count, and tickless == idle on every online cpu. The mask-served
    // answers must match fresh linear scans: LongestIdleCpu with the
    // original tie-break (lowest idle_since, then lowest cpu), and the
    // NOHZ kick target (lowest online tickless idle cpu).
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "stat mirrors diverged at t=" << now;
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
      violations_seen_ += 1;
    }
  }

  int violations_seen() const { return violations_seen_; }

 private:
  Simulator* sim_;
  SanityChecker checker_;
  std::vector<Time> last_min_vruntime_;
  int checks_ = 0;
  int violations_seen_ = 0;
};

// Re-arming check callback: one sweep every kCheckInterval until the
// horizon. A named struct (two pointers, trivially copyable) rather than a
// lambda because it reschedules *itself* — a std::function-free event queue
// cannot store a callable that owns another callable.
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

// Random hotplug churn: periodically toggle one non-boot cpu. Cpu 0 stays
// online so evacuation and affinity fallback always have a target. Same
// self-rescheduling shape as RearmingCheck; the Rng lives out-of-line in the
// test body because the callback must stay two pointers wide.
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

TEST(FuzzInvariants, RandomTopologiesAndWorkloads) {
  uint64_t base = BaseSeed();
  for (int run = 0; run < kRuns; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    SCOPED_TRACE(ReproCommand(seed));

    uint64_t sm = seed;
    Rng rng(SplitMix64(sm));
    Topology topo = RandomTopology(rng);
    Simulator::Options opts;
    opts.features = RandomFeatures(rng);
    opts.seed = seed;
    Simulator sim(topo, opts);
    SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));

    InvariantChecker checker(&sim);
    // Scheduled through the event queue so checks interleave
    // deterministically with scheduler activity.
    sim.After(kCheckInterval, RearmingCheck{&checker, &sim});
    // Half the runs add hotplug churn, so the tickless mask, the RqLoad memo,
    // and domain regeneration are all fuzzed across offline/online
    // transitions, not just in the steady topology.
    Rng hotplug_rng(SplitMix64(sm));
    if (rng.NextBool(0.5)) {
      sim.After(kHotplugInterval / 2, RearmingHotplug{&sim, &hotplug_rng});
    }
    sim.Run(kHorizon);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    EXPECT_GT(checker.checks(), 100) << "fuzz run did too little work to mean anything";
  }
}

// Directed variant: pin every thread to one core of a 4-core machine, so
// three cores idle while the pinned runqueue stacks up. The sanity checker
// must NOT fire (affinity forbids stealing); un-pinning one thread via a
// fresh unpinned spawn must make it fire at the next check.
TEST(FuzzInvariants, SanityCheckerFiresOnStealableBacklog) {
  Topology topo = Topology::Flat(1, 4);
  Simulator::Options opts;
  opts.seed = 7;
  Simulator sim(topo, opts);

  Simulator::SpawnParams pinned;
  pinned.affinity = CpuSet::Single(0);
  pinned.parent_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              pinned);
  }
  sim.Run(Milliseconds(1));

  SanityChecker checker(&sim);
  CpuId idle_cpu = kInvalidCpu;
  CpuId overloaded_cpu = kInvalidCpu;
  EXPECT_FALSE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
      << "checker fired although every queued thread is pinned to the busy core";

  // An unpinned hog spawned onto the overloaded core is stealable; between
  // its enqueue and the next balancing pass the invariant is violated.
  Simulator::SpawnParams unpinned;
  unpinned.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
            unpinned);
  ASSERT_GE(sim.sched().NrRunning(0), 2);
  bool any_idle = false;
  for (CpuId c = 1; c < 4; ++c) {
    any_idle = any_idle || sim.sched().IsIdleCpu(c);
  }
  if (any_idle) {
    EXPECT_TRUE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
        << "a core idles while cpu0 holds an unpinned waiting thread";
    EXPECT_EQ(overloaded_cpu, 0);
  }
}

// Regression (idle state vs. hotplug): repeatedly offline and online the
// exact cpu LongestIdleCpu answers with — where a stale tickless bit on an
// offline cpu would leak into every later answer — and cross-check the
// answer against the linear scan after every transition and after
// scheduler activity in between.
TEST(FuzzInvariants, IdleIndexSurvivesHotplugOfLongestIdleAnswer) {
  uint64_t seed = BaseSeed() + 4242ULL;
  SCOPED_TRACE(ReproCommand(seed));
  uint64_t sm = seed;
  Rng rng(SplitMix64(sm));

  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = RandomFeatures(rng);
  opts.features.fix_overload_wakeup = true;  // Wakeups call LongestIdleCpu too.
  opts.seed = seed;
  Simulator sim(topo, opts);
  SpawnRandomMix(sim, rng, 24);
  sim.Run(Milliseconds(5));

  const int n_cores = topo.n_cores();
  int offlined_rounds = 0;
  for (int round = 0; round < 40 && !::testing::Test::HasFatalFailure(); ++round) {
    const Scheduler& sched = sim.sched();
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " before hotplug";
    CpuId victim = sched.LongestIdleCpu(topo.AllCpus());
    if (victim == kInvalidCpu) {
      sim.Run(sim.Now() + Microseconds(700));
      continue;
    }
    offlined_rounds += 1;

    sim.SetCpuOnline(victim, false);
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round << " after offlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " offline";
    ASSERT_NE(sched.LongestIdleCpu(topo.AllCpus()), victim);

    // Let wakeups, ticks, and balancing run against the shrunken topology.
    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " after running with cpu " << victim << " offline";

    sim.SetCpuOnline(victim, true);
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round << " after onlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " back online";

    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
  }
  EXPECT_GT(offlined_rounds, 10) << "machine was never idle enough to exercise hotplug";
}

// ---- Streaming-parity invariant ---------------------------------------------
//
// The one-pass streaming analyzer and the whole-trace recorder observe the
// identical callback stream (fanned out by MultiSink). Every per-task
// accumulator the stream keeps incrementally must therefore equal a
// from-scratch reduction over the recorder's array — bit for bit, integers
// throughout. (The recorder stores nanoseconds in a double; values stay far
// below 2^53, so the uint64 round-trip is exact.)
TEST(FuzzInvariants, StreamingAccumulatorsMatchRecorderBitForBit) {
  uint64_t base = BaseSeed();
  for (int run = 0; run < kRuns; ++run) {
    uint64_t seed = base + 99000ULL + static_cast<uint64_t>(run);
    SCOPED_TRACE(ReproCommand(seed));
    uint64_t sm = seed;
    Rng rng(SplitMix64(sm));
    Topology topo = RandomTopology(rng);
    Simulator::Options opts;
    opts.features = RandomFeatures(rng);
    opts.seed = seed;

    EventRecorder recorder;
    TelemetryStream stream(TelemetryStream::ForTopology(topo));
    MultiSink multi;
    multi.Add(&recorder);
    multi.Add(&stream);
    Simulator sim(topo, opts, &multi);
    SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));
    sim.Run(kHorizon);
    stream.Finish(sim.Now());

    // Conservation first: both sinks saw every callback, nothing dropped.
    ASSERT_EQ(recorder.dropped(), 0u);
    ASSERT_EQ(stream.events(), recorder.events().size());

    struct Totals {
      uint64_t runtime = 0, wait = 0, switches = 0, wakeups = 0, migrations = 0;
    };
    std::map<ThreadId, Totals> batch;
    uint64_t idle_ns = 0;
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
        case TraceEvent::Kind::kIdleExit:
          idle_ns += static_cast<uint64_t>(e.value);
          break;
        default:
          break;
      }
    }

    ASSERT_GT(batch.size(), 0u) << "fuzz run produced no per-task events";
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
    // And the machine-level totals are the per-task sums, also exactly.
    ASSERT_EQ(stream.Machine().oncpu.Sum(), sum_runtime);
    ASSERT_EQ(stream.Machine().rq_wait.Sum(), sum_wait);
    ASSERT_EQ(stream.idle_ns(), static_cast<Time>(idle_ns));
  }
}

}  // namespace
}  // namespace wcores
