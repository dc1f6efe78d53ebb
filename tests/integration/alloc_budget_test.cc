// Allocation budget: "no heap allocation per event", measured.
//
// This binary replaces the global operator new/delete with versions that
// count calls and track live and peak live heap bytes. Each figure scenario
// runs through RunScenario, with the stream attached (hash sink + stream),
// under every registered policy, at scale 2 and then at scale 4. Scale 4
// doubles the simulated work, so anything that allocates per event shows up
// as the difference between the two runs:
//
//   - a transient per-event allocation (new + delete in a handler) doubles
//     the operator new call count;
//   - a retained per-event append (a push_back that is never drained) grows
//     the peak live bytes. Its call count rises only by about one per
//     doubling, because vector growth is amortised, so the byte check is the
//     one that sees it.
//
// Setup, the first-run statics and the result strings land in the scale-2
// baseline, which runs first. The baseline is scale 2, not 1, because the
// event queue keeps a cancelled key in its heap until that key's deadline:
// random_mix's hog segments go from 2 s to 4 s between scale 1 and 2, and
// its peak grows by about 164 KiB there, then stays flat from 2 to 4 (both
// high-waters fit one power-of-two capacity).
//
// The bounds are pinned above the largest difference seen on working code
// (a few calls, and one late high-water doubling of about 21 KB in o1's
// fig3_tpch_q18/fixed) and far below the smallest mutant signal that fails
// a case (about 0.9 MB for a retained append on fig3, at least 208 calls for
// a transient allocation per context switch).
//
// A separate case counts the calls of one Scheduler construction, which
// shared scheduling-group lists keep from growing with cpus x levels.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/tools/sweep/scenario.h"
#include "src/topo/topology.h"

namespace {

// RunScenario is single-threaded and gtest starts no threads, so plain
// counters suffice.
uint64_t g_new_calls = 0;
int64_t g_live_bytes = 0;
int64_t g_peak_bytes = 0;

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  ++g_new_calls;
  g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  if (g_live_bytes > g_peak_bytes) {
    g_peak_bytes = g_live_bytes;
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) {
    return;
  }
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace wcores {
namespace {

// Extra operator new calls a scale-4 run may make over its scale-2 run.
constexpr int64_t kExtraCallBudget = 16;
// Extra peak live heap bytes a scale-4 run may hold over its scale-2 run.
constexpr int64_t kExtraPeakBudget = 64 * 1024;

struct Footprint {
  int64_t calls = 0;       // operator new calls during the run.
  int64_t peak_bytes = 0;  // Peak live heap above the pre-run level.
  uint64_t sim_events = 0;
};

Footprint Measure(Scenario s) {
  s.stream = true;
  const uint64_t calls_before = g_new_calls;
  const int64_t live_before = g_live_bytes;
  g_peak_bytes = g_live_bytes;
  uint64_t sim_events = RunScenario(s).sim_events;
  return Footprint{static_cast<int64_t>(g_new_calls - calls_before),
                   g_peak_bytes - live_before, sim_events};
}

struct Case {
  std::string policy;
  size_t index;  // Into FigureScenarios(scale).
};

std::string CaseLabel(const Case& c) {
  return c.policy + "_" + FigureScenarios(1.0)[c.index].name;
}

void PrintTo(const Case& c, std::ostream* os) { *os << CaseLabel(c); }

std::vector<Case> AllCases() {
  std::vector<Case> out;
  const size_t n = FigureScenarios(1.0).size();
  for (const char* policy : {"cfs", "o1", "coreidle"}) {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(Case{policy, i});
    }
  }
  return out;
}

class AllocBudgetTest : public ::testing::TestWithParam<Case> {};

TEST_P(AllocBudgetTest, DoublingTheWorkAddsNoAllocations) {
  const Case& c = GetParam();
  Scenario small = FigureScenarios(2.0)[c.index];
  Scenario large = FigureScenarios(4.0)[c.index];
  small.policy = c.policy;
  large.policy = c.policy;

  const Footprint at2 = Measure(small);
  const Footprint at4 = Measure(large);
  const int64_t extra_calls = at4.calls - at2.calls;
  const int64_t extra_peak = at4.peak_bytes - at2.peak_bytes;
  std::printf("alloc_budget %s %s: scale2 calls=%lld peak=%lld events=%llu | "
              "scale4 calls=%lld peak=%lld events=%llu | extra calls=%lld peak=%lld\n",
              c.policy.c_str(), small.name.c_str(), static_cast<long long>(at2.calls),
              static_cast<long long>(at2.peak_bytes),
              static_cast<unsigned long long>(at2.sim_events),
              static_cast<long long>(at4.calls), static_cast<long long>(at4.peak_bytes),
              static_cast<unsigned long long>(at4.sim_events),
              static_cast<long long>(extra_calls), static_cast<long long>(extra_peak));

  // The larger run must really do more work, or the budget checks nothing.
  // The paper workloads double their events; random_mix's sleepers repeat a
  // fixed count, so only its hogs grow (by about 30% of the events).
  if (small.workload == Scenario::Workload::kRandomMix) {
    EXPECT_GE(at4.sim_events, at2.sim_events * 5 / 4);
  } else {
    EXPECT_GE(at4.sim_events, at2.sim_events * 19 / 10);
  }
  EXPECT_LE(extra_calls, kExtraCallBudget)
      << "operator new calls grow with the work: a transient per-event allocation";
  EXPECT_LE(extra_peak, kExtraPeakBudget)
      << "peak live heap grows with the work: a retained per-event allocation";
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = CaseLabel(info.param);
  for (char& ch : name) {
    if (ch == '/') {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(FigureScenarios, AllocBudgetTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

class NullClient : public SchedClient {
 public:
  void KickCpu(CpuId) override {}
  void NohzKick(CpuId) override {}
};

// Operator new calls one Scheduler construction may make on Bulldozer8x8.
// BuildDomains builds each distinct group list once (two calls each: the
// shared list and its buffer) and gives each cpu one domain vector, so the
// count is about 2 x (32 SMT + 8 NODE + 8 to 16 NUMA lists) + 64 + a few
// dozen fixed ones, and does not grow with cpus x levels. A per-cpu deep
// copy of every group list makes 2493 (stock) and 2557 (fixed) calls.
constexpr uint64_t kSchedulerSetupCallBudget = 256;

TEST(SchedulerSetupAllocTest, SharedGroupListsBoundSetupCalls) {
  const Topology topo = Topology::Bulldozer8x8();
  for (const SchedFeatures& features : {SchedFeatures::Stock(), SchedFeatures::AllFixed()}) {
    NullClient client;
    const uint64_t before = g_new_calls;
    { Scheduler sched(topo, features, SchedTunables::ForCpus(topo.n_cores()), &client); }
    const uint64_t calls = g_new_calls - before;
    std::printf("alloc_budget scheduler_setup fix_group_construction=%d: calls=%llu\n",
                features.fix_group_construction ? 1 : 0, static_cast<unsigned long long>(calls));
    EXPECT_LE(calls, kSchedulerSetupCallBudget)
        << "Scheduler construction allocates per cpu per level: group lists are not shared";
  }
}

}  // namespace
}  // namespace wcores
