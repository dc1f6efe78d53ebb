// The multicore CFS scheduler: per-core runqueues, wakeup placement,
// hierarchical load balancing (§2.2), and the four bugs of §3 with their
// fixes behind SchedFeatures flags.
//
// The scheduler is a passive library: it never blocks and holds no clock.
// A driver (src/sim/simulator.h, or a unit test) calls into it at discrete
// instants, passing `now` explicitly, and receives asynchronous requests
// through SchedClient (kick an idle cpu that just received work, wake a
// tickless core to run NOHZ balancing).
//
// Division of labor with the driver:
//   - The driver decides *what* threads do (compute, sleep, lock, ...) and
//     for how long; it calls Tick() every tick_period on busy cores and
//     PickNext() at context-switch points.
//   - The scheduler decides *where and when* threads run: runqueue policy,
//     wakeup placement, balancing, hotplug migration.
#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/core/autogroup.h"
#include "src/core/cfs_rq.h"
#include "src/core/entity.h"
#include "src/core/features.h"
#include "src/core/stats.h"
#include "src/core/trace.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/stable_vector.h"
#include "src/simkit/time.h"
#include "src/topo/domains.h"
#include "src/topo/topology.h"

namespace wcores {

// Implemented by the driver (simulator).
class SchedClient {
 public:
  virtual ~SchedClient() = default;

  // `cpu` must reschedule as soon as possible: either it was idle and now
  // has work, or its running thread should be preempted.
  virtual void KickCpu(CpuId cpu) = 0;

  // A tickless idle `cpu` has been designated NOHZ balancer; the driver
  // should invoke Scheduler::RunNohzBalance(cpu) at the current instant.
  virtual void NohzKick(CpuId cpu) = 0;
};

struct ThreadParams {
  int nice = 0;
  AutogroupId autogroup = kRootAutogroup;
  // Allowed cpus; empty means "all cpus", and so does a mask with no online
  // cpu at fork (select_fallback_rq).
  CpuSet affinity;
  // Fork placement: "Linux spawns threads on the same core as their parent
  // thread" (§3.2). kInvalidCpu places on the first allowed online cpu.
  CpuId parent_cpu = kInvalidCpu;
};

class SchedPolicy;

class Scheduler {
 public:
  // `policy` selects the scheduling policy (src/core/sched_policy.h); null
  // means CFS (the scheduler owns a CfsPolicy instance). A non-null policy
  // is borrowed and must outlive the scheduler; it must not be shared
  // across schedulers (policies hold per-machine state).
  Scheduler(const Topology& topo, const SchedFeatures& features, const SchedTunables& tunables,
            SchedClient* client, TraceSink* trace = nullptr, SchedPolicy* policy = nullptr);
  ~Scheduler();  // Out of line: owned_policy_ needs the complete SchedPolicy.

  const Topology& topology() const { return *topo_; }
  const SchedFeatures& features() const { return features_; }
  const SchedTunables& tunables() const { return tunables_; }

  // ---- Autogroups --------------------------------------------------------

  // One autogroup per tty / container process (§2.2.1).
  AutogroupId CreateAutogroup();

  // ---- Thread lifecycle ---------------------------------------------------

  // Creates a runnable thread and enqueues it (balance-on-fork is not
  // modeled; see DESIGN.md). Returns its ThreadId.
  ThreadId CreateThread(Time now, const ThreadParams& params);

  // The running thread on `cpu` exits. Driver must call PickNext() next.
  void ExitCurrent(Time now, CpuId cpu);

  // The running thread on `cpu` blocks (sleep, lock, I/O). Driver must call
  // PickNext() next.
  void BlockCurrent(Time now, CpuId cpu);

  // Wakes a blocked thread; runs the wakeup placement path (§3.3) and
  // enqueues it. `waker_cpu` is the core performing the wakeup (timer
  // expiry is delivered on the sleeper's former core). Returns the chosen
  // cpu. Kicks the target cpu via SchedClient if it was idle or preempted.
  CpuId Wake(Time now, ThreadId tid, CpuId waker_cpu);

  // ---- Per-cpu driver hooks -----------------------------------------------

  // Context switch: requeues the previously running thread if needed, picks
  // the leftmost entity, runs (new-)idle balancing when the queue is empty.
  // Returns the thread to run, or kInvalidThread if the cpu goes idle.
  ThreadId PickNext(Time now, CpuId cpu);

  // Periodic scheduler tick on a busy cpu: runtime accounting, preemption
  // check, periodic load balancing (Algorithm 1), NOHZ kick check.
  void Tick(Time now, CpuId cpu);

  // True if the driver should context-switch `cpu`.
  bool NeedResched(CpuId cpu) const { return cpus_[cpu].need_resched; }

  // Runs NOHZ balancing on a kicked tickless core: periodic balancing for
  // itself and on behalf of all tickless idle cores (§2.2.2).
  void RunNohzBalance(Time now, CpuId cpu);

  // ---- Hotplug (/proc-like interface, §3.4) --------------------------------

  // Disabling migrates all threads off `cpu` and regenerates scheduling
  // domains; with the Missing Scheduling Domains bug (stock), regeneration
  // drops all cross-NUMA levels. Re-enabling regenerates domains the same
  // (possibly buggy) way.
  void SetCpuOnline(Time now, CpuId cpu, bool online);
  bool IsOnline(CpuId cpu) const { return online_.Test(cpu); }
  CpuSet OnlineCpus() const { return online_; }

  // ---- Introspection (tools, tests, benches) -------------------------------

  int NrRunning(CpuId cpu) const { return nr_running_[cpu]; }
  bool IsIdleCpu(CpuId cpu) const { return nr_running_[cpu] == 0; }
  Time IdleSince(CpuId cpu) const { return idle_since_[cpu]; }
  bool IsTickless(CpuId cpu) const { return tickless_.Test(cpu); }
  // Some online cpu holds >= 2 runnable threads. O(1): the runqueues keep
  // the count of overloaded cpus current through their stat slots, so
  // policies gating their balancers on overload (COREIDLE) pay a counter
  // read instead of an O(cpus) NrRunning sweep per gate.
  bool AnyCpuOverloaded() const { return overloaded_cpus_ > 0; }
  // The cpu Tick's NOHZ-kick check would select at this instant: the
  // lowest-id online tickless idle cpu, or kInvalidCpu.
  CpuId NohzKickTarget() const;
  ThreadId CurrentThread(CpuId cpu) const;
  // Memoized per-cpu load; defined inline below the class so the balance
  // folds' dominant case — a memo hit — costs a few compares at the call
  // site instead of a cross-TU call per cpu per group.
  double RqLoad(Time now, CpuId cpu) const;
  // From-scratch recomputation bypassing the RqLoad memo cache; the fuzzer
  // cross-checks the cached value against it.
  double RqLoadRecomputed(Time now, CpuId cpu) const;
  // The per-cpu stat mirrors match their sources: the write-through
  // nr_running/load_version mirrors, the overloaded-cpu count, the queued
  // mask — set exactly when a runqueue holds a queued entity, which the
  // steal scan relies on — and the tickless mask — set on an online cpu
  // exactly when its runqueue is empty, which the group census,
  // DesignatedCpu, LongestIdleCpu and NohzKickTarget rely on. Fuzzer
  // cross-check, like RqLoadRecomputed for the RqLoad memo.
  bool ValidateStatMirrors() const;
  Time MinVruntime(CpuId cpu) const { return cpus_[cpu].rq.min_vruntime(); }
  // Runqueue structural invariants (test support; see CfsRunqueue).
  bool ValidateRq(CpuId cpu) const { return cpus_[cpu].rq.ValidateInvariants(); }
  const DomainTree& Domains(CpuId cpu) const { return cpus_[cpu].domains; }
  const SchedEntity& Entity(ThreadId tid) const { return entities_[tid]; }
  SchedEntity& MutableEntity(ThreadId tid) { return entities_[tid]; }
  int ThreadCount() const { return static_cast<int>(entities_.size()); }
  const SchedStats& stats() const { return stats_; }

  // The sanity checker's can_steal(idle, busy): some thread queued on
  // `busy_cpu` is allowed to run on `idle_cpu`.
  bool CanSteal(CpuId idle_cpu, CpuId busy_cpu) const;

  // The longest-idle online cpu within `allowed` (lowest idle_since, ties to
  // the lowest id), or kInvalidCpu.
  CpuId LongestIdleCpu(const CpuSet& allowed) const;

  // The cpus a placement of `se` may choose: its affinity intersected with
  // the online set. Never empty at a placement: SelectFallbackRq runs first.
  CpuSet WakeAllowed(const SchedEntity& se) const { return se.affinity & online_; }

  // Aggregate load/occupancy of one scheduling group (Algorithm 1 lines
  // 10-12): the inputs to busiest-group selection.
  struct GroupLoadStats {
    // The one load value busiest selection compares: the average member
    // load under the stock metric, the minimum under fix_group_imbalance;
    // 0.0 for a group with no online member.
    double metric = 0.0;
    int n_cpus = 0;
    int nr_running = 0;
    bool imbalanced = false;

    bool Overloaded() const { return nr_running > n_cpus; }

    // Busiest-selection rank (line 13): overloaded groups first, then groups
    // marked imbalanced by failed affinity moves, then the rest.
    int Rank() const {
      if (Overloaded()) {
        return 2;
      }
      if (imbalanced) {
        return 1;
      }
      return 0;
    }
  };

  // The stats of the online members of `group` under the active metric.
  // n_cpus is the group's build-time weight (its members are online: every
  // online change rebuilds the domains), and the rest of the integer census
  // comes from word-wide masks: tickless_ is the idle set, so only busy
  // members are visited. Loads come off the RqLoad memo and only
  // where the metric compares them: the busy members' loads in ascending
  // order under stock (an idle member's load is exactly +0.0), and under the
  // fix none at all when the group holds an idle member (its minimum is
  // 0.0). The only sanctioned way for balancing code to aggregate
  // per-entity loads: a fold in any other order can round differently.
  GroupLoadStats ComputeGroupStats(Time now, const SchedGroup& group) const;
  // The specification ComputeGroupStats must match bit for bit over
  // group.cpus: every online member counted and folded in ascending order
  // with no skip, off the runqueues and RqLoadRecomputed. The conformance
  // harness cross-checks the two.
  GroupLoadStats GroupStatsRecomputed(Time now, const CpuSet& cpus) const;

  // Re-resolves the autogroup divisor for load computations.
  double AutogroupDivisor(AutogroupId id) const;

  // Mid-run feature toggling (the ablation driver flips fixes while a
  // scenario runs). The flags feed autogroup divisors, so this bumps the
  // divisor epoch and the RqLoad memo recomputes instead of serving a stale
  // load. Domain construction flags take effect at the next rebuild
  // (hotplug), as in the kernel.
  void UpdateFeatures(const SchedFeatures& features);

  // Renices a thread mid-run; routes through its runqueue when runnable so
  // the load-version machinery sees the weight change.
  void SetNice(Time now, ThreadId tid, int nice);

  // ---- Policy arena (src/core/sched_policy.h) -------------------------------

  SchedPolicy* policy() const { return policy_; }

  // Mechanism building blocks for SchedPolicy implementations: each is the
  // CFS behavior of the corresponding hook, callable piecemeal so a policy
  // can inherit the parts it does not replace (the COREIDLE policy gates
  // these balancers on overload; the O(1) policy reuses them wholesale).
  CpuId CfsSelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu, CpuSet* considered) {
    return SelectTaskRq(now, se, waker_cpu, considered);
  }
  CpuId CfsForkCpu(const SchedEntity& se, CpuId parent_cpu) const;
  SchedEntity* QueuedLeftmost(CpuId cpu) { return cpus_[cpu].rq.PeekLeftmost(); }
  bool CfsTickPreempt(CpuId cpu) const { return cpus_[cpu].rq.CheckPreemptTick(); }
  bool CfsWakeupPreempts(CpuId cpu, const SchedEntity& woken) const {
    return cpus_[cpu].rq.CheckPreemptWakeup(woken);
  }
  void CfsPeriodicBalance(Time now, CpuId cpu);
  void CfsIdleBalance(Time now, CpuId cpu) { IdleBalance(now, cpu); }
  void CfsNohzBalance(Time now, CpuId cpu);

 private:
  // Per-cpu state that is *not* read by balance folds. Everything a group
  // stats pass or a due check streams over lives in the dense parallel
  // arrays below (structure-of-arrays): a Cpu element is hundreds of
  // bytes of runqueue, so folding nr_running/load/idle state through it
  // pointer-chases one cache line per cpu, while the arrays put eight
  // members' worth of each field on a line or two.
  struct Cpu {
    Cpu(CpuId id, const SchedTunables* tunables) : rq(id, tunables) {}

    CfsRunqueue rq;
    bool need_resched = false;
    Time last_nohz_kick = 0;
    DomainTree domains;

    // Last values reported to the trace sink (report-on-change).
    int last_nr_reported = -1;
    double last_load_reported = -1.0;
  };

  // Wakeup placement; fills `considered` for the visualization tool.
  CpuId SelectTaskRq(Time now, const SchedEntity& se, CpuId waker_cpu, CpuSet* considered);

  // Stock path: wake_affine between prev/waker node + select_idle_sibling
  // within that node only (the Overload-on-Wakeup bug, §3.3). `allowed` is
  // WakeAllowed(se).
  CpuId SelectTaskRqStock(Time now, const SchedEntity& se, CpuId waker_cpu,
                          const CpuSet& allowed, CpuSet* considered);

  // One Algorithm-1 body for (cpu, domain). Returns #threads moved.
  int BalanceDomain(Time now, CpuId cpu, const SchedDomain& sd, ConsideredKind kind);

  // Lines 2-9 of Algorithm 1: the core designated to balance `sd` on behalf
  // of its local group — the first idle cpu of the group's balance mask
  // (the seed node's cores for multi-node groups), else its first cpu.
  CpuId DesignatedCpu(CpuId cpu, const SchedDomain& sd) const;

  // Pulls from src_cpu into dst_cpu up to `max_load`; moves at least one
  // allowed thread if `force_min_one`. Returns #threads moved.
  int MoveTasks(Time now, CpuId src_cpu, CpuId dst_cpu, double max_load, bool force_min_one,
                MigrationReason reason);

  // (New-)idle balancing when a cpu runs out of work.
  void IdleBalance(Time now, CpuId cpu);

  // Asks the policy for the next entity on `cpu` and dequeues it into curr;
  // null when the policy has nothing to run there.
  SchedEntity* PickEntityOn(Time now, CpuId cpu);

  void EnqueueWake(Time now, SchedEntity* se, CpuId cpu);
  void UpdateIdleState(Time now, CpuId cpu);
  // Replaces every cpu's domain tree with a fresh BuildDomains over online_.
  void RebuildDomains(bool cross_node_levels);

  // Algorithm 1 over `cpu`'s domains, bottom-up: interval check (stretched
  // by busy_balance_factor when `busy`), designated-core check (lines 2-9),
  // then balance. Shared by periodic and NOHZ balancing.
  void BalanceDomainsWalk(Time now, CpuId cpu, bool busy, ConsideredKind kind);

  // RqLoad's miss path: folds the runqueue (LoadAt) and refills the memo.
  // Out of line so the inline hit path stays a handful of compares.
  double RqLoadFill(Time now, CpuId cpu) const;
  // select_fallback_rq without cpusets: a mask with no online cpu widens to
  // every cpu (the thread is no longer affine). Runs before every fork, wake
  // and hotplug-evacuation placement, so no placement needs a fallback.
  void SelectFallbackRq(SchedEntity& se);
  void NotifyNrRunning(Time now, CpuId cpu);
  void NotifyLoad(Time now, CpuId cpu);

  const Topology* topo_;
  SchedFeatures features_;
  SchedTunables tunables_;
  SchedClient* client_;
  TraceSink* trace_;  // Never null; defaults to a no-op sink.
  SchedPolicy* policy_ = nullptr;              // Never null after construction.
  std::unique_ptr<SchedPolicy> owned_policy_;  // Set iff no policy was passed in.

  StableVector<Cpu> cpus_;  // Cpu is neither copyable nor movable.
  CpuSet online_;

  // ---- Structure-of-arrays balance stats ----------------------------------
  // The per-cpu fields every balance fold streams over, as dense parallel
  // arrays indexed by CpuId (sized once in the constructor, never
  // reallocated). nr_running_ and load_version_ are write-through mirrors
  // owned by the runqueues (CfsRunqueue::set_stat_slots): every mutator
  // updates the mirror in the same statement as the source of truth, so the
  // arrays are exact, not eventually-consistent.
  std::vector<int> nr_running_;        // == cpus_[c].rq.nr_running().
  std::vector<uint64_t> load_version_; // == cpus_[c].rq.load_version().
  std::vector<Time> idle_since_;       // Valid while nr_running_[c] == 0.

  // RqLoad memo (see Scheduler::RqLoad), SoA: the last computed load per
  // cpu, valid while the query instant, the runqueue membership version and
  // the divisor epoch all still match. mutable because RqLoad is logically
  // const.
  mutable std::vector<Time> load_cache_now_;
  mutable std::vector<uint64_t> load_cache_version_;
  mutable std::vector<uint64_t> load_cache_epoch_;
  mutable std::vector<double> load_cache_value_;

  // Count of online cpus with nr_running_ >= 2, maintained by the
  // runqueues' write-through SyncNr (offline cpus are evacuated to empty,
  // so "online" needs no separate filter). Backs AnyCpuOverloaded().
  int overloaded_cpus_ = 0;

  // Idle and not receiving ticks: the kernel's nohz.idle_cpus_mask. Set and
  // cleared by UpdateIdleState and hotplug; on every online cpu it is set
  // exactly when nr_running_ is 0 (ValidateStatMirrors). Offline cpus may
  // keep a stale bit, so every reader masks with online_.
  CpuSet tickless_;
  // Runqueues holding at least one queued (not running) entity: the cpus a
  // steal can take from. A write-through mirror owned by the runqueues
  // (CfsRunqueue::set_stat_slots); an offline cpu's is clear (evacuated).
  CpuSet queued_;
  // A steal from this rq failed on affinity; cleared by a successful steal.
  CpuSet imbalanced_;

  StableVector<SchedEntity> entities_;  // Indexed by tid; stable addresses.
  std::vector<Autogroup> autogroups_;
  // Advances whenever any autogroup's divisor may change: an nr_threads
  // mutation (CreateThread, ExitCurrent) or a feature toggle
  // (UpdateFeatures). Part of the RqLoad memo key.
  uint64_t ag_epoch_ = 0;

  // Scratch for BalanceDomain's per-group stats. Balancing never nests and
  // the scheduler is single-threaded, so one buffer reused across calls
  // keeps the newidle hot path free of per-pass heap allocation.
  std::vector<GroupLoadStats> balance_stats_scratch_;

  // Same contract for the remaining per-pass temporaries: MoveTasks'
  // candidate/cache-hot partitions and hotplug's evacuee list. Reused
  // across calls (clear(), never shrink), so steady-state balancing and
  // hotplug churn allocate nothing.
  std::vector<SchedEntity*> move_candidates_scratch_;
  std::vector<SchedEntity*> move_hot_scratch_;
  std::vector<SchedEntity*> evacuees_scratch_;

  SchedStats stats_;

  static TraceSink* NullSink();
};

// Memoized exactly within one instant, so the cached value is bit-identical
// to a recompute: the key covers everything LoadAt reads. Membership and
// weight changes bump rq.load_version(); divisor changes bump ag_epoch_; and
// a member tracker's SetState/Advance at the same instant leaves ValueAt(now)
// unchanged (decay only accrues across instants), so same (now, version,
// epoch) implies the same sum.
inline double Scheduler::RqLoad(Time now, CpuId cpu) const {
  if (load_cache_now_[cpu] == now && load_cache_version_[cpu] == load_version_[cpu] &&
      load_cache_epoch_[cpu] == ag_epoch_) {
    return load_cache_value_[cpu];
  }
  return RqLoadFill(now, cpu);
}

}  // namespace wcores

#endif  // SRC_CORE_SCHEDULER_H_
