// Optimization modules for the modular scheduler (§5 of the paper).
//
// "If every good scheduling idea is slapped as an add-on to a single
// monolithic scheduler, we risk more complexity and more bugs. ... We
// envision a scheduler that is a collection of modules: the core module and
// optimization modules."
//
// Each WakeModule here is one such optimization module for wakeup placement.
// ModularPolicy is the core module, expressed as a SchedPolicy: it takes a
// module's suggestion whenever feasible and overrides it when it would leave
// an allowed core idle while placing the thread on a busy one — the basic
// invariant the paper says the core must always maintain. The demonstration
// (examples/modular_scheduler.cpp, tests/modsched/modular_test.cc) shows
// that even an aggressively cache-greedy module cannot reintroduce the
// Overload-on-Wakeup pathology through this interface.
#ifndef SRC_MODSCHED_MODULES_H_
#define SRC_MODSCHED_MODULES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/sched_policy.h"
#include "src/core/scheduler.h"
#include "src/topo/topology.h"

namespace wcores {

// An optimization module for the wakeup path. `allowed` is the wakee's
// Scheduler::WakeAllowed set: its mask's online cpus, never empty.
class WakeModule {
 public:
  virtual ~WakeModule() = default;

  // Returns the suggested cpu, or kInvalidCpu to abstain (the next module,
  // or the CFS path, then decides).
  virtual CpuId Suggest(const Scheduler& sched, const SchedEntity& se,
                        const CpuSet& allowed) const = 0;

  virtual const char* name() const = 0;
};

// Maximal cache reuse: always suggest the core the thread last ran on,
// whatever its load. Unchecked, this is worse than the Overload-on-Wakeup
// bug; under the core's arbitration it is safe.
class CacheAffinityModule : public WakeModule {
 public:
  CpuId Suggest(const Scheduler&, const SchedEntity& se, const CpuSet& allowed) const override {
    if (se.cpu != kInvalidCpu && allowed.Test(se.cpu)) {
      return se.cpu;
    }
    return kInvalidCpu;
  }
  const char* name() const override { return "cache-affinity"; }
};

// Keep the thread on the NUMA node of its memory (approximated by the node
// it last ran on): suggest an idle core of that node, else the least-loaded
// core of that node.
class NumaLocalityModule : public WakeModule {
 public:
  CpuId Suggest(const Scheduler& sched, const SchedEntity& se,
                const CpuSet& allowed) const override {
    if (se.cpu == kInvalidCpu) {
      return kInvalidCpu;
    }
    const Topology& topo = sched.topology();
    CpuSet node_cpus = topo.CpusOfNode(topo.NodeOf(se.cpu)) & allowed;
    if (node_cpus.Empty()) {
      return kInvalidCpu;
    }
    CpuId best = kInvalidCpu;
    int best_nr = 0;
    for (CpuId c : node_cpus) {
      int nr = sched.NrRunning(c);
      if (nr == 0) {
        return c;
      }
      if (best == kInvalidCpu || nr < best_nr) {
        best = c;
        best_nr = nr;
      }
    }
    return best;
  }
  const char* name() const override { return "numa-locality"; }
};

// Spread load: suggest the longest-idle allowed core (the paper's
// Overload-on-Wakeup fix, as a module). Cheap to consult on every wake:
// LongestIdleCpu scans only the allowed cpus of the scheduler's tickless
// mask, which is short on a busy machine.
class LoadSpreadModule : public WakeModule {
 public:
  CpuId Suggest(const Scheduler& sched, const SchedEntity&,
                const CpuSet& allowed) const override {
    return sched.LongestIdleCpu(allowed);
  }
  const char* name() const override { return "load-spread"; }
};

// The core module: CFS in every hook but wakeup placement, where it
// consults its modules in priority order. The first suggestion inside the
// allowed set wins — the "how to combine multiple optimizations" question
// §5 leaves open, answered the simplest defensible way — unless it names a
// busy core while an allowed core sits idle; then the core vetoes it in
// favour of the longest-idle core. When every module abstains, placement
// falls through to CFS. Not registered in the policy registry: a module set
// is a configuration, not a named policy.
class ModularPolicy : public SchedPolicy {
 public:
  const char* name() const override { return "modular"; }

  // Appends `module` below every module added before it.
  void Add(std::unique_ptr<WakeModule> module) { modules_.push_back(std::move(module)); }

  CpuId SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                      CpuSet* considered) override {
    CpuSet allowed = sched_->WakeAllowed(se);
    for (const std::unique_ptr<WakeModule>& module : modules_) {
      CpuId cpu = module->Suggest(*sched_, se, allowed);
      if (cpu == kInvalidCpu || !allowed.Test(cpu)) {
        continue;
      }
      last_winner_ = module->name();
      considered->Set(cpu);
      if (!sched_->IsIdleCpu(cpu)) {
        CpuId idle = sched_->LongestIdleCpu(allowed);
        if (idle != kInvalidCpu) {
          vetoes_ += 1;
          considered->Set(idle);
          return idle;
        }
      }
      suggestions_ += 1;
      return cpu;
    }
    last_winner_ = nullptr;
    return SchedPolicy::SelectWakeCpu(now, se, waker_cpu, considered);
  }

  // Wakeups placed where a module suggested, and suggestions the core
  // overrode to keep work conservation.
  uint64_t suggestions() const { return suggestions_; }
  uint64_t vetoes() const { return vetoes_; }
  // The module whose suggestion decided the last wakeup (vetoed or not);
  // null when every module abstained.
  const char* last_winner() const { return last_winner_; }

 private:
  std::vector<std::unique_ptr<WakeModule>> modules_;  // Priority order.
  uint64_t suggestions_ = 0;
  uint64_t vetoes_ = 0;
  const char* last_winner_ = nullptr;
};

}  // namespace wcores

#endif  // SRC_MODSCHED_MODULES_H_
