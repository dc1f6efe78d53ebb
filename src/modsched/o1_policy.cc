#include "src/modsched/o1_policy.h"

#include <algorithm>

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

void O1Policy::PrioArray::Push(int prio, ThreadId tid) {
  queues[prio].push_back(tid);
  bitmap[prio / 64] |= uint64_t{1} << (prio % 64);
  count += 1;
}

void O1Policy::PrioArray::Remove(int prio, ThreadId tid) {
  std::deque<ThreadId>& q = queues[prio];
  auto it = std::find(q.begin(), q.end(), tid);
  WC_CHECK(it != q.end(), "o1: task not in its recorded priority queue");
  q.erase(it);
  if (q.empty()) {
    bitmap[prio / 64] &= ~(uint64_t{1} << (prio % 64));
  }
  count -= 1;
}

void O1Policy::Attach(Scheduler* sched) {
  SchedPolicy::Attach(sched);
  cpus_.assign(static_cast<size_t>(sched->topology().n_cores()), CpuState{});
}

O1Policy::TaskState& O1Policy::StateOf(ThreadId tid) {
  while (tasks_.size() <= static_cast<size_t>(tid)) {
    tasks_.emplace_back();
  }
  return tasks_[tid];
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
  return &sched_->MutableEntity(act->queues[prio].front());
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
  cs.arrays[arr].Push(prio, se->tid);
  ts.array = static_cast<uint8_t>(arr);
  ts.prio = static_cast<uint8_t>(prio);
  ts.queued = true;
}

void O1Policy::OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) {
  (void)now;
  TaskState& ts = StateOf(se->tid);
  WC_CHECK(ts.queued, "o1: dequeue of task not in the arrays");
  cpus_[cpu].arrays[ts.array].Remove(ts.prio, se->tid);
  ts.queued = false;
}

void O1Policy::OnRqPick(Time now, CpuId cpu, SchedEntity* se) {
  OnRqDequeue(now, cpu, se);  // curr lives outside the arrays, as in 2.6.8.
}

void O1Policy::OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) {
  (void)now;
  (void)old_nice;
  TaskState& ts = StateOf(se->tid);
  WC_CHECK(ts.queued, "o1: reweight of task not in the arrays");
  cpus_[cpu].arrays[ts.array].Remove(ts.prio, se->tid);
  int prio = PrioOf(se->nice);
  cpus_[cpu].arrays[ts.array].Push(prio, se->tid);
  ts.prio = static_cast<uint8_t>(prio);
}

int O1Policy::QueuedInArrays(CpuId cpu) const {
  const CpuState& cs = cpus_[cpu];
  return cs.arrays[0].count + cs.arrays[1].count;
}

bool O1Policy::ValidateArrays(CpuId cpu) const {
  const CpuState& cs = cpus_[cpu];
  for (const PrioArray& a : cs.arrays) {
    int count = 0;
    for (int p = 0; p < kLevels; ++p) {
      bool bit = (a.bitmap[p / 64] >> (p % 64)) & 1;
      if (bit != !a.queues[p].empty()) {
        return false;
      }
      count += static_cast<int>(a.queues[p].size());
    }
    if (count != a.count) {
      return false;
    }
  }
  return true;
}

}  // namespace wcores
