// The pluggable scheduling-policy interface: §5's "collection of modules"
// taken to its conclusion.
//
// The paper envisions a scheduler split into a core module that maintains
// the basic invariants and policy modules that decide placement and
// ordering. A policy owns every decision point of the scheduler — wakeup
// placement, fork placement, pick-next, tick and wakeup preemption, and all
// three balancing triggers — while the core keeps the mechanism: runqueues,
// vruntime accounting, migration plumbing, idle bookkeeping, tracing, and
// the conservation invariants the conformance suite (tests/modsched/)
// checks for every registered policy. This is the only extension seam:
// the paper's optimization modules plug in through ModularPolicy
// (src/modsched/modules.h), which overrides wakeup placement alone.
//
// Division of responsibility:
//   - The *core* guarantees: thread census (nothing lost or duplicated),
//     affinity and online-ness of every placement (WC_CHECKed), vruntime
//     accounting, trace emission, and the runqueue structure itself.
//   - The *policy* decides: where wakes and forks land, which queued entity
//     runs next, when the running one is preempted, and when/whether the
//     CFS balancing mechanisms run.
//
// Every virtual hook has a default implementation that *is* today's CFS
// behavior, delegating to the Scheduler's public mechanism methods
// (Scheduler::Cfs*). CfsPolicy below is therefore empty, and a new policy
// overrides only the decisions it wants to make differently — the O(1)
// policy (src/modsched/o1_policy.h) replaces pick/preempt/wake placement
// but inherits the CFS balancers; the COREIDLE policy
// (src/modsched/coreidle_policy.h) replaces placement and gates balancing
// but inherits CFS pick-next.
//
// Policies needing their own view of runqueue membership (the O(1) priority
// arrays) opt into RqObserver events via WantsQueueEvents(); the default
// CFS policy does not, so the runqueue hot path pays a single predictable
// null-check per membership event.
//
// Determinism contract: a policy must be a pure function of scheduler state
// and its own deterministically-updated state — no wall clock, no
// unseeded randomness, no pointer-keyed iteration (wc-analyze's rules apply
// to policy code like any other scheduler code). The per-policy golden trace
// hashes in tests/modsched/ enforce this the same way the CFS goldens do.
#ifndef SRC_CORE_SCHED_POLICY_H_
#define SRC_CORE_SCHED_POLICY_H_

#include "src/core/cfs_rq.h"
#include "src/core/entity.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"

namespace wcores {

class Scheduler;

class SchedPolicy : public RqObserver {
 public:
  ~SchedPolicy() override = default;

  virtual const char* name() const = 0;

  // Called once from the Scheduler constructor, before any other hook.
  // Overrides must call the base (it stores sched_) and may size per-cpu
  // state from sched->topology().
  virtual void Attach(Scheduler* sched) { sched_ = sched; }

  // Policies returning true receive the RqObserver events below on every
  // runqueue of the machine.
  virtual bool WantsQueueEvents() const { return false; }

  // ---- Decision hooks (defaults = CFS) ------------------------------------

  // Wakeup placement for `se` (select_task_rq). Must return a cpu of
  // Scheduler::WakeAllowed(se), never empty (SelectFallbackRq ran first);
  // the core WC_CHECKs this. `considered` feeds the kWakeup trace record.
  virtual CpuId SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                              CpuSet* considered);

  // Fork placement. Same validity contract as SelectWakeCpu. The CFS
  // default is the parent's core when allowed (§3.2), else the first
  // allowed online cpu.
  virtual CpuId SelectForkCpu(Time now, const SchedEntity& se, CpuId parent_cpu);

  // The queued entity `cpu` should run next, or nullptr to go idle. The
  // returned entity must be queued on `cpu` (WC_CHECKed by the runqueue).
  // The CFS default is the vruntime leftmost.
  virtual SchedEntity* PickNextEntity(Time now, CpuId cpu);

  // Preemption test at a scheduler tick on `cpu` (curr's accounting is
  // already up to date). True sets need_resched.
  virtual bool TickPreempt(Time now, CpuId cpu);

  // Preemption test when `woken` lands on `cpu`'s queue. Called just after
  // the enqueue (vruntimes are up to date); an idle cpu should return true.
  virtual bool WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken);

  // The three balancing triggers: periodic (every tick on a busy core),
  // new-idle (a core just ran out of work), and NOHZ (a kicked tickless
  // core balancing on behalf of idle cores). Defaults run the CFS
  // hierarchical balancer (Algorithm 1); policies may gate, replace, or
  // skip them.
  virtual void PeriodicBalance(Time now, CpuId cpu);
  virtual void NewIdleBalance(Time now, CpuId cpu);
  virtual void NohzBalance(Time now, CpuId cpu);

  // ---- RqObserver (no-ops unless WantsQueueEvents) -------------------------

  void OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                   CfsRunqueue::EnqueueKind kind) override;
  void OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) override;
  void OnRqPick(Time now, CpuId cpu, SchedEntity* se) override;
  void OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) override;

 protected:
  Scheduler* sched_ = nullptr;
};

// Today's scheduler, as a policy: every hook keeps its CFS default. Running
// under this policy is bit-identical to the pre-arena scheduler — the
// determinism goldens and the cfs_bitexact conformance test enforce it.
class CfsPolicy : public SchedPolicy {
 public:
  const char* name() const override { return "cfs"; }
};

}  // namespace wcores

#endif  // SRC_CORE_SCHED_POLICY_H_
