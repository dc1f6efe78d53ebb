#include "src/telemetry/latency.h"

namespace wcores {

void LatencyAccountant::OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) {
  per_cpu_[cpu].rq_wait.Add(waited);

  if (tid < static_cast<ThreadId>(pending_migration_.size()) &&
      pending_migration_[tid].when != kTimeNever) {
    per_cpu_[cpu].migration_cost.Add(now - pending_migration_[tid].when);
    pending_migration_[tid].when = kTimeNever;
  }
}

void LatencyAccountant::OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran,
                                    bool still_runnable) {
  (void)now;
  (void)tid;
  (void)still_runnable;
  per_cpu_[cpu].timeslice.Add(ran);
}

void LatencyAccountant::OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) {
  (void)now;
  (void)tid;
  per_cpu_[cpu].wakeup_latency.Add(latency);
}

void LatencyAccountant::OnMigration(Time now, ThreadId tid, CpuId from, CpuId to,
                                    MigrationReason reason) {
  (void)from;
  (void)reason;
  migrations_[to] += 1;
  if (tid >= static_cast<ThreadId>(pending_migration_.size())) {
    pending_migration_.resize(tid + 1);
  }
  pending_migration_[tid].when = now;
}

void LatencyAccountant::OnIdleEnter(Time now, CpuId cpu) {
  (void)now;
  idle_enters_[cpu] += 1;
}

void LatencyAccountant::OnIdleExit(Time now, CpuId cpu, Time idle_for) {
  (void)now;
  idle_time_[cpu] += idle_for;
}

LatencyDistributions LatencyAccountant::AggregateCpus(const CpuSet& cpus) const {
  LatencyDistributions agg;
  for (CpuId c : cpus) {
    if (c < static_cast<CpuId>(per_cpu_.size())) {
      agg.Merge(per_cpu_[c]);
    }
  }
  return agg;
}

LatencyDistributions LatencyAccountant::Machine() const {
  LatencyDistributions agg;
  for (const LatencyDistributions& d : per_cpu_) {
    agg.Merge(d);
  }
  return agg;
}

}  // namespace wcores
