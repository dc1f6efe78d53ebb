// Default SchedPolicy hook implementations: each is the CFS behavior,
// expressed through the Scheduler's public mechanism methods. Keeping the
// defaults here (not in scheduler.cc) means a policy author can read this
// file as the complete "what does CFS do at each decision point" reference.
#include "src/core/sched_policy.h"

#include "src/core/scheduler.h"

namespace wcores {

CpuId SchedPolicy::SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                                 CpuSet* considered) {
  return sched_->CfsSelectWakeCpu(now, se, waker_cpu, considered);
}

CpuId SchedPolicy::SelectForkCpu(Time now, const SchedEntity& se, CpuId parent_cpu) {
  (void)now;
  return sched_->CfsForkCpu(se, parent_cpu);
}

SchedEntity* SchedPolicy::PickNextEntity(Time now, CpuId cpu) {
  (void)now;
  return sched_->QueuedLeftmost(cpu);
}

bool SchedPolicy::TickPreempt(Time now, CpuId cpu) {
  (void)now;
  return sched_->CfsTickPreempt(cpu);
}

bool SchedPolicy::WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken) {
  (void)now;
  return sched_->CfsWakeupPreempts(cpu, woken);
}

void SchedPolicy::PeriodicBalance(Time now, CpuId cpu) { sched_->CfsPeriodicBalance(now, cpu); }

void SchedPolicy::NewIdleBalance(Time now, CpuId cpu) { sched_->CfsIdleBalance(now, cpu); }

void SchedPolicy::NohzBalance(Time now, CpuId cpu) { sched_->CfsNohzBalance(now, cpu); }

void SchedPolicy::OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                              CfsRunqueue::EnqueueKind kind) {
  (void)now;
  (void)cpu;
  (void)se;
  (void)kind;
}

void SchedPolicy::OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) {
  (void)now;
  (void)cpu;
  (void)se;
}

void SchedPolicy::OnRqPick(Time now, CpuId cpu, SchedEntity* se) {
  (void)now;
  (void)cpu;
  (void)se;
}

void SchedPolicy::OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) {
  (void)now;
  (void)cpu;
  (void)se;
  (void)old_nice;
}

}  // namespace wcores
