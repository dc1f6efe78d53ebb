#include "src/modsched/coreidle_policy.h"

#include "src/core/scheduler.h"

namespace wcores {

CpuSet CoreIdlePolicy::ActiveSet() const {
  // Count runnable threads, then admit just enough cores: K = runnable + 1.
  // The +1 keeps one idle core in the set so the next wake or fork lands
  // inside it without an emergency grow.
  CpuSet online = sched_->OnlineCpus();
  int runnable = 0;
  for (CpuId c : online) {
    runnable += sched_->NrRunning(c);
  }
  CpuSet active;
  int admitted = 0;
  for (CpuId c : online) {
    active.Set(c);
    admitted += 1;
    if (admitted > runnable) {
      break;
    }
  }
  return active;
}

bool CoreIdlePolicy::AnyOverloaded() const {
  // The mechanism keeps an exact overloaded-cpu count through the
  // runqueues' write-through stat slots, so this gate — paid on every tick
  // and newidle event under COREIDLE — is a counter read, not an O(cpus)
  // NrRunning sweep. Offline cpus are always evacuated to empty queues, so
  // the count over all cpus equals the count over online ones.
  return sched_->AnyCpuOverloaded();
}

CpuId CoreIdlePolicy::Place(const SchedEntity& se, CpuId prev, CpuSet* considered) const {
  CpuSet allowed = sched_->WakeAllowed(se);
  CpuSet candidates = allowed & ActiveSet();
  if (candidates.Empty()) {
    candidates = allowed;  // Pinned entirely outside the active set.
  }
  *considered |= candidates;

  // Cache reuse when it costs no consolidation: the previous cpu, if it is
  // an idle member of the candidate set.
  if (prev != kInvalidCpu && candidates.Test(prev) && sched_->IsIdleCpu(prev)) {
    return prev;
  }
  // Pack low: the lowest-id idle candidate.
  CpuId best = kInvalidCpu;
  int best_nr = 0;
  for (CpuId c : candidates) {
    if (sched_->IsIdleCpu(c)) {
      return c;
    }
    int nr = sched_->NrRunning(c);
    if (best == kInvalidCpu || nr < best_nr) {
      best = c;
      best_nr = nr;
    }
  }
  return best;  // Everyone busy: the least-occupied candidate.
}

CpuId CoreIdlePolicy::SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                                    CpuSet* considered) {
  (void)now;
  (void)waker_cpu;
  return Place(se, se.cpu, considered);
}

CpuId CoreIdlePolicy::SelectForkCpu(Time now, const SchedEntity& se, CpuId parent_cpu) {
  (void)now;
  CpuSet considered;
  return Place(se, parent_cpu, &considered);
}

void CoreIdlePolicy::PeriodicBalance(Time now, CpuId cpu) {
  if (AnyOverloaded()) {
    sched_->CfsPeriodicBalance(now, cpu);
  }
}

void CoreIdlePolicy::NewIdleBalance(Time now, CpuId cpu) {
  if (AnyOverloaded()) {
    sched_->CfsIdleBalance(now, cpu);
  }
}

void CoreIdlePolicy::NohzBalance(Time now, CpuId cpu) {
  if (AnyOverloaded()) {
    sched_->CfsNohzBalance(now, cpu);
  }
}

}  // namespace wcores
