// A Linux 2.6.8-style O(1) scheduler as a SchedPolicy.
//
// The pre-CFS scheduler kept, per cpu, two arrays of 140 FIFO queues (one
// per static priority) with a bitmap of non-empty levels: pick-next is
// find-first-bit + dequeue-head, O(1). A task that exhausts its timeslice
// moves to the *expired* array; when the active array drains the two arrays
// swap — one epoch of round-robin per priority level.
//
// As in 2.6.8's `struct prio_array { bitmap; struct list_head
// queue[MAX_PRIO]; }`, each level is an intrusive list_head-style FIFO: the
// array holds only a head and a tail ThreadId per level, and the next/prev
// links live in the per-task state. Nothing is allocated per level, so a
// 64-cpu machine's 17,920 levels cost 140 KiB of plain words; enqueue,
// dequeue and pick are all O(1).
//
// This policy mirrors runqueue membership into those arrays through the
// RqObserver events (the core's rb-tree stays authoritative: census,
// vruntime accounting, migration and tracing are untouched mechanism). Only
// the *decisions* change:
//   - pick-next: highest-priority FIFO head instead of vruntime leftmost;
//   - tick preemption: fixed per-priority timeslices (5..200 ms) with
//     expired-array demotion, plus immediate preemption by a waiting
//     higher-priority task;
//   - wakeup preemption: strictly-higher static priority preempts;
//   - wakeup placement: the 2.6.8 try_to_wake_up default — stay on the
//     previous cpu whatever its load. Like the real 2.6.8, only the
//     periodic/newidle/NOHZ balancers (inherited CFS mechanism) spread load,
//     so this policy exhibits wakeup stacking by design: the paper-bug
//     matrix test pins which pathologies it shows.
//
// Priorities: static_prio = 120 + nice, in [100, 139] for nice in [-20,19].
// Real-time levels 0..99 exist in the arrays but are never populated (the
// simulator has no RT class); keeping all 140 levels preserves the original
// bitmap layout (three 64-bit words).
#ifndef SRC_MODSCHED_O1_POLICY_H_
#define SRC_MODSCHED_O1_POLICY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/sched_policy.h"

namespace wcores {

class O1Policy : public SchedPolicy {
 public:
  const char* name() const override { return "o1"; }
  bool WantsQueueEvents() const override { return true; }
  void Attach(Scheduler* sched) override;

  CpuId SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                      CpuSet* considered) override;
  SchedEntity* PickNextEntity(Time now, CpuId cpu) override;
  bool TickPreempt(Time now, CpuId cpu) override;
  bool WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken) override;
  // Fork placement and all three balancers: CFS defaults inherited.

  void OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                   CfsRunqueue::EnqueueKind kind) override;
  void OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) override;
  void OnRqPick(Time now, CpuId cpu, SchedEntity* se) override;
  void OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) override;

  static constexpr int kLevels = 140;
  static int PrioOf(int nice) { return 120 + nice; }
  // 2.6.8-flavoured static timeslices: 200 ms at the highest (nice -20)
  // shrinking linearly to 5 ms at the lowest (nice +19).
  Time TimesliceOf(int prio) const;

  // Introspection for tests.
  int QueuedInArrays(CpuId cpu) const;
  bool ValidateArrays(CpuId cpu) const;

 private:
  struct Level {
    ThreadId head = kInvalidThread;  // Both invalid iff the level is empty.
    ThreadId tail = kInvalidThread;
  };
  struct PrioArray {
    std::array<uint64_t, 3> bitmap{};
    std::array<Level, kLevels> levels;
    int count = 0;

    int FirstSet() const;
  };
  struct CpuState {
    PrioArray arrays[2];
    int active = 0;  // Index of the active array; 1-active is expired.
  };
  struct TaskState {
    Time used = 0;            // Runtime consumed in the current slice round.
    bool expire_next = false;  // Tick verdict: demote to expired on put-prev.
    uint8_t array = 0;         // Which array of its cpu it is filed in.
    uint8_t prio = 0;
    bool queued = false;
    CpuId cpu = kInvalidCpu;         // Whose arrays it is filed in.
    ThreadId next = kInvalidThread;  // FIFO links within its level.
    ThreadId prev = kInvalidThread;
  };

  // Grows tasks_, so no TaskState& may be held across it.
  TaskState& StateOf(ThreadId tid);
  // Files `tid` at the tail of level `prio` of cpu's array `arr`.
  void Push(CpuId cpu, int arr, int prio, ThreadId tid);
  // Unlinks `tid` from the level it is recorded in, on `cpu`.
  void Remove(CpuId cpu, ThreadId tid);

  std::vector<CpuState> cpus_;
  std::vector<TaskState> tasks_;  // Indexed by tid, grown on first sight.
};

}  // namespace wcores

#endif  // SRC_MODSCHED_O1_POLICY_H_
