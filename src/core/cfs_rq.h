// The per-core CFS runqueue (§2.1-2.2).
//
// "Scalability concerns dictate using per-core runqueues": each core owns a
// red-black tree of runnable entities sorted by vruntime plus the currently
// running entity (kept outside the tree, as in the kernel). Picking the next
// thread to run takes the leftmost node.
#ifndef SRC_CORE_CFS_RQ_H_
#define SRC_CORE_CFS_RQ_H_

#include <cstdint>

#include "src/core/entity.h"
#include "src/core/features.h"
#include "src/core/rbtree.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"

namespace wcores {

class RqObserver;

class CfsRunqueue {
 public:
  CfsRunqueue(CpuId cpu, const SchedTunables* tunables) : cpu_(cpu), tunables_(tunables) {}
  CfsRunqueue(const CfsRunqueue&) = delete;
  CfsRunqueue& operator=(const CfsRunqueue&) = delete;

  CpuId cpu() const { return cpu_; }

  // ---- Entity placement -------------------------------------------------

  enum class EnqueueKind {
    kWakeup,   // Thread waking from sleep: receives the sleeper credit.
    kNew,      // Freshly forked thread: starts at min_vruntime.
    kMigrate,  // Moved by the balancer: vruntime already re-based by caller.
    kPutPrev,  // Previously running thread being requeued after preemption.
  };

  void Enqueue(SchedEntity* se, Time now, EnqueueKind kind);

  // Removes a *queued* (not running) entity, e.g. when stolen.
  void DequeueQueued(SchedEntity* se, Time now);

  // Changes the nice value of an entity currently on this queue (queued or
  // running). The vruntime key is untouched — weight scales only future
  // accrual, which is why no re-insert is needed — but the load sum and
  // total_weight_ change, so the load version is bumped exactly like an
  // enqueue/dequeue would be.
  void Reweight(SchedEntity* se, Time now, int nice);

  // ---- The running entity ----------------------------------------------

  SchedEntity* curr() const { return curr_; }

  // Dequeues the leftmost entity and makes it curr. Pre: no curr.
  SchedEntity* PickNext(Time now);

  // Dequeues a specific *queued* entity and makes it curr — the generalized
  // pick used by non-CFS policies (src/core/sched_policy.h), which may run
  // something other than the vruntime leftmost. PickNext(now) is exactly
  // PickSpecific(PeekLeftmost(), now).
  SchedEntity* PickSpecific(SchedEntity* se, Time now);

  // The entity PickNext would choose, without dequeuing it.
  SchedEntity* PeekLeftmost() const { return tree_.Leftmost(); }

  // Accounts curr's runtime into vruntime/min_vruntime. Call at ticks and
  // before any decision that reads vruntime or load.
  void UpdateCurr(Time now);

  // Stops running curr. The entity is re-enqueued (kStillRunnable) or
  // removed entirely (thread blocked or exited).
  enum class PutKind { kStillRunnable, kBlocked };
  void PutCurr(Time now, PutKind kind);

  // ---- Introspection -----------------------------------------------------

  // Queued + running, like the kernel's rq->nr_running.
  int nr_running() const { return static_cast<int>(tree_.Size()) + (curr_ != nullptr ? 1 : 0); }
  int queued() const { return static_cast<int>(tree_.Size()); }
  bool Idle() const { return nr_running() == 0; }

  Time min_vruntime() const { return min_vruntime_; }

  // Sum of entity loads (weight x runnable-fraction / autogroup divisor);
  // `divisor_of(autogroup_id)` supplies the autogroup division.
  //
  // The fold order — curr first, then the tree in vruntime order — is part
  // of the contract: float addition does not commute bit-wise, and the
  // RqLoad memo (scheduler.h) serves a cached sum for the rest of its
  // instant, so every path that recomputes must fold in this exact order.
  template <typename DivisorFn>
  double LoadAt(Time now, DivisorFn&& divisor_of) const {
    double total = 0;
    if (curr_ != nullptr) {
      total += EntityLoad(*curr_, now, divisor_of(curr_->autogroup));
    }
    tree_.ForEach([&](const SchedEntity* se) {
      total += EntityLoad(*se, now, divisor_of(se->autogroup));
      return true;
    });
    return total;
  }

  static double EntityLoad(const SchedEntity& se, Time now, double divisor) {
    return static_cast<double>(se.weight) * se.load.ValueAt(now) / divisor;
  }

  // Visits queued entities in increasing vruntime order. Visitor returns
  // false to stop.
  template <typename Visitor>
  void ForEachQueued(Visitor&& visit) const {
    tree_.ForEach(visit);
  }

  // True if any *queued* entity may run on `cpu` (the sanity checker's
  // can_steal, and the balancer's affinity screen).
  bool HasStealableFor(CpuId cpu) const;

  // CFS timeslice for `se` on this queue: sched_latency weighted by se's
  // share of the queue's total weight, floored at min_granularity.
  Time TimesliceFor(const SchedEntity& se) const;

  // Preemption test at tick: true if curr exhausted its timeslice (and
  // someone is waiting), or leads the leftmost by more than the slice.
  bool CheckPreemptTick() const;

  // Preemption test on wakeup of `woken` onto this queue.
  bool CheckPreemptWakeup(const SchedEntity& woken) const;

  // Total raw weight of all runnable entities (used for timeslices).
  uint64_t total_weight() const { return total_weight_; }

  // Bumped whenever the set of runnable entities changes; RqLoad caching
  // keys on it (see scheduler.cc).
  uint64_t load_version() const { return load_version_; }

  // Test support: red-black invariants, queued-entity bookkeeping
  // (on_rq/running/cpu), vruntime ordering, and total_weight consistency.
  bool ValidateInvariants() const;

  // Membership observer for stateful scheduling policies (the O(1) policy
  // mirrors the queue into priority arrays). Null for the default CFS
  // policy, so the hot path pays one predictable branch per event.
  void set_observer(RqObserver* observer) { observer_ = observer; }

  // Write-through stat slots for an owner keeping structure-of-arrays
  // mirrors (the scheduler's balance folds stream over dense per-cpu arrays
  // instead of pointer-chasing runqueues). After this call, every mutation
  // of nr_running() writes `nr_slot` (adjusting `overloaded_counter` on
  // 1<->2 crossings), every BumpLoadVersion writes `version_slot`, and
  // every change of the queued set writes this cpu's bit of `queued_mask`
  // (set iff queued() >= 1), in the same statement as the source of truth —
  // the mirrors are exact by construction, not eventually consistent. All
  // four must outlive the runqueue. Call before any entity is enqueued.
  void set_stat_slots(int* nr_slot, uint64_t* version_slot, int* overloaded_counter,
                      CpuSet* queued_mask) {
    nr_slot_ = nr_slot;
    version_slot_ = version_slot;
    overloaded_counter_ = overloaded_counter;
    queued_mask_ = queued_mask;
    *nr_slot_ = nr_running();
    *version_slot_ = load_version_;
    SyncQueued();
  }

 private:
  void UpdateMinVruntime();

  // Syncs the nr_running mirror after any change to tree size or curr.
  // Cheap enough to call unconditionally from every mutator; the overload
  // counter moves only when the queue crosses the >= 2 threshold.
  void SyncNr() {
    const int nr = nr_running();
    if ((nr >= 2) != (*nr_slot_ >= 2)) {
      *overloaded_counter_ += (nr >= 2) ? 1 : -1;
    }
    *nr_slot_ = nr;
  }

  // Syncs this cpu's bit of the queued mirror after the tree changes.
  void SyncQueued() {
    if (tree_.Empty()) {
      queued_mask_->Clear(cpu_);
    } else {
      queued_mask_->Set(cpu_);
    }
  }

  CpuId cpu_;
  const SchedTunables* tunables_;
  RbTree<SchedEntity, &SchedEntity::rb, EntityByVruntime> tree_;
  SchedEntity* curr_ = nullptr;
  Time min_vruntime_ = 0;
  uint64_t total_weight_ = 0;
  uint64_t load_version_ = 0;
  RqObserver* observer_ = nullptr;
  // Write-through mirror slots (set_stat_slots). The scheduler installs
  // them at construction, before any entity exists; standalone runqueues
  // (unit tests) point them at the dummies so mutators stay branch-free.
  int nr_dummy_ = 0;
  uint64_t version_dummy_ = 0;
  int overloaded_dummy_ = 0;
  CpuSet queued_dummy_;
  int* nr_slot_ = &nr_dummy_;
  uint64_t* version_slot_ = &version_dummy_;
  int* overloaded_counter_ = &overloaded_dummy_;
  CpuSet* queued_mask_ = &queued_dummy_;

  void BumpLoadVersion() {
    load_version_ += 1;
    *version_slot_ = load_version_;
  }
};

// Receives runqueue membership events. Every transition of a *queued*
// entity is reported: enqueue (with its kind), dequeue of a queued entity
// (steal, hotplug evacuation), a queued entity becoming curr, and reweight.
// The running entity leaving (block/exit) needs no event — it was already
// removed from the queued set when it was picked.
class RqObserver {
 public:
  virtual ~RqObserver() = default;
  virtual void OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                           CfsRunqueue::EnqueueKind kind) = 0;
  virtual void OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) = 0;
  virtual void OnRqPick(Time now, CpuId cpu, SchedEntity* se) = 0;
  virtual void OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) = 0;
};

}  // namespace wcores

#endif  // SRC_CORE_CFS_RQ_H_
