#include "src/modsched/o1_policy.h"

#include "src/core/scheduler.h"
#include "src/simkit/check.h"

namespace wcores {

int O1Policy::PrioArray::FirstSet() const {
  for (int w = 0; w < 3; ++w) {
    if (bitmap[w] != 0) {
      return w * 64 + __builtin_ctzll(bitmap[w]);
    }
  }
  return -1;
}

void O1Policy::Attach(Scheduler* sched) {
  SchedPolicy::Attach(sched);
  cpus_.assign(static_cast<size_t>(sched->topology().n_cores()), CpuState{});
}

O1Policy::TaskState& O1Policy::StateOf(ThreadId tid) {
  if (tasks_.size() <= static_cast<size_t>(tid)) {
    tasks_.resize(static_cast<size_t>(tid) + 1);
  }
  return tasks_[tid];
}

void O1Policy::Push(CpuId cpu, int arr, int prio, ThreadId tid) {
  PrioArray& a = cpus_[cpu].arrays[arr];
  Level& lv = a.levels[prio];
  TaskState& ts = tasks_[tid];
  ts.prev = lv.tail;
  ts.next = kInvalidThread;
  (lv.tail == kInvalidThread ? lv.head : tasks_[lv.tail].next) = tid;
  lv.tail = tid;
  a.bitmap[prio / 64] |= uint64_t{1} << (prio % 64);
  a.count += 1;
  ts.cpu = cpu;
  ts.array = static_cast<uint8_t>(arr);
  ts.prio = static_cast<uint8_t>(prio);
  ts.queued = true;
}

void O1Policy::Remove(CpuId cpu, ThreadId tid) {
  TaskState& ts = tasks_[tid];
  PrioArray& a = cpus_[cpu].arrays[ts.array];
  Level& lv = a.levels[ts.prio];
  // The list_head debug check: whatever points at tid from either side must
  // be this level's head/tail or a live neighbour's link.
  ThreadId& from_prev = ts.prev == kInvalidThread ? lv.head : tasks_[ts.prev].next;
  ThreadId& from_next = ts.next == kInvalidThread ? lv.tail : tasks_[ts.next].prev;
  WC_CHECK(ts.cpu == cpu && from_prev == tid && from_next == tid,
           "o1: task not in its recorded priority queue");
  from_prev = ts.next;
  from_next = ts.prev;
  ts.next = kInvalidThread;
  ts.prev = kInvalidThread;
  if (lv.head == kInvalidThread) {
    a.bitmap[ts.prio / 64] &= ~(uint64_t{1} << (ts.prio % 64));
  }
  a.count -= 1;
  ts.queued = false;
}

Time O1Policy::TimesliceOf(int prio) const {
  // prio 100 -> 200 ms, prio 139 -> 5 ms, linear in between.
  return Milliseconds(5) * static_cast<Time>(kLevels - prio);
}

CpuId O1Policy::SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                              CpuSet* considered) {
  (void)now;
  (void)waker_cpu;
  CpuSet allowed = sched_->WakeAllowed(se);
  // 2.6.8 try_to_wake_up: run where you last ran; balancing is somebody
  // else's job. This is the design point that stacks wakeups.
  if (se.cpu != kInvalidCpu && allowed.Test(se.cpu)) {
    considered->Set(se.cpu);
    return se.cpu;
  }
  CpuId first = allowed.First();
  considered->Set(first);
  return first;
}

SchedEntity* O1Policy::PickNextEntity(Time now, CpuId cpu) {
  (void)now;
  CpuState& cs = cpus_[cpu];
  PrioArray* act = &cs.arrays[cs.active];
  if (act->count == 0) {
    if (cs.arrays[1 - cs.active].count == 0) {
      return nullptr;
    }
    cs.active = 1 - cs.active;  // Array swap: a new round-robin epoch.
    act = &cs.arrays[cs.active];
  }
  int prio = act->FirstSet();
  WC_CHECK(prio >= 0, "o1: non-empty array with empty bitmap");
  return &sched_->MutableEntity(act->levels[prio].head);
}

bool O1Policy::TickPreempt(Time now, CpuId cpu) {
  (void)now;
  ThreadId tid = sched_->CurrentThread(cpu);
  if (tid == kInvalidThread) {
    return false;
  }
  const SchedEntity& se = sched_->Entity(tid);
  TaskState& ts = StateOf(tid);
  int prio = PrioOf(se.nice);
  if (ts.used + se.slice_exec >= TimesliceOf(prio)) {
    ts.expire_next = true;  // Slice exhausted: demote on requeue.
    return true;
  }
  // A waiting task of strictly higher priority (lower level) preempts
  // mid-slice; equal priority waits for the slice to end (round-robin).
  const CpuState& cs = cpus_[cpu];
  const PrioArray& act = cs.arrays[cs.active];
  int first = act.count > 0 ? act.FirstSet() : kLevels;
  return first < prio;
}

bool O1Policy::WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken) {
  (void)now;
  ThreadId tid = sched_->CurrentThread(cpu);
  if (tid == kInvalidThread) {
    return true;
  }
  return PrioOf(woken.nice) < PrioOf(sched_->Entity(tid).nice);
}

void O1Policy::OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                           CfsRunqueue::EnqueueKind kind) {
  (void)now;
  TaskState& ts = StateOf(se->tid);
  CpuState& cs = cpus_[cpu];
  int prio = PrioOf(se->nice);
  int arr = cs.active;
  if (kind == CfsRunqueue::EnqueueKind::kPutPrev) {
    if (ts.expire_next) {
      ts.expire_next = false;
      ts.used = 0;
      arr = 1 - cs.active;  // Into the expired array with a fresh slice.
    } else {
      ts.used += se->slice_exec;  // Charge the stint just finished.
    }
  } else {
    // Wake, fork, or migration: fresh slice in the active array.
    ts.used = 0;
    ts.expire_next = false;
  }
  Push(cpu, arr, prio, se->tid);
}

void O1Policy::OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) {
  (void)now;
  WC_CHECK(StateOf(se->tid).queued, "o1: dequeue of task not in the arrays");
  Remove(cpu, se->tid);
}

void O1Policy::OnRqPick(Time now, CpuId cpu, SchedEntity* se) {
  OnRqDequeue(now, cpu, se);  // curr lives outside the arrays, as in 2.6.8.
}

void O1Policy::OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) {
  (void)now;
  (void)old_nice;
  WC_CHECK(StateOf(se->tid).queued, "o1: reweight of task not in the arrays");
  int arr = tasks_[se->tid].array;
  Remove(cpu, se->tid);
  Push(cpu, arr, PrioOf(se->nice), se->tid);  // Tail of its new level.
}

int O1Policy::QueuedInArrays(CpuId cpu) const {
  const CpuState& cs = cpus_[cpu];
  return cs.arrays[0].count + cs.arrays[1].count;
}

bool O1Policy::ValidateArrays(CpuId cpu) const {
  const CpuState& cs = cpus_[cpu];
  for (int arr = 0; arr < 2; ++arr) {
    const PrioArray& a = cs.arrays[arr];
    int count = 0;
    for (int p = 0; p < kLevels; ++p) {
      const Level& lv = a.levels[p];
      bool bit = (a.bitmap[p / 64] >> (p % 64)) & 1;
      bool empty = lv.head == kInvalidThread;
      if (bit == empty || empty != (lv.tail == kInvalidThread)) {
        return false;
      }
      ThreadId prev = kInvalidThread;
      for (ThreadId t = lv.head; t != kInvalidThread; prev = t, t = tasks_[t].next) {
        const TaskState& ts = tasks_[t];
        if (++count > a.count || ts.prev != prev || !ts.queued || ts.cpu != cpu ||
            ts.array != arr || ts.prio != p) {
          return false;  // The count bound also stops a cyclic walk.
        }
      }
      if (prev != lv.tail) {
        return false;
      }
    }
    if (count != a.count) {
      return false;
    }
  }
  return true;
}

}  // namespace wcores
