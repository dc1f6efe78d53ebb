// Latency accounting (the telemetry subsystem's measurement side).
//
// The paper's diagnosis of every bug started from "cores idle while work
// waits"; this sink turns that observation into numbers a user can act on:
// per-cpu distributions of
//   * wakeup latency   — wakeup -> first run (perf sched latency),
//   * runqueue wait    — runnable -> running (sched_stat_wait),
//   * timeslice        — how long each stint on a core lasted
//                        (sched_stat_runtime),
//   * migration cost   — migration -> first run on the new core,
// plus per-cpu idle occupancy. Each distribution is a LogHistogram: fixed
// memory per (cpu, metric), exact counts and maxima, quantiles within 1/128.
// It is a TraceSink; attach it (alone or via MultiSink) to a
// Scheduler/Simulator and read the histograms afterwards.
#ifndef SRC_TELEMETRY_LATENCY_H_
#define SRC_TELEMETRY_LATENCY_H_

#include <cstdint>
#include <vector>

#include "src/core/trace.h"
#include "src/metrics/histogram.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"

namespace wcores {

// One cpu's (or a cpu set's) latency distributions, in nanoseconds.
struct LatencyDistributions {
  LogHistogram wakeup_latency;
  LogHistogram rq_wait;
  LogHistogram timeslice;
  LogHistogram migration_cost;

  void Merge(const LatencyDistributions& other) {
    wakeup_latency.Merge(other.wakeup_latency);
    rq_wait.Merge(other.rq_wait);
    timeslice.Merge(other.timeslice);
    migration_cost.Merge(other.migration_cost);
  }
};

class LatencyAccountant : public TraceSink {
 public:
  explicit LatencyAccountant(int n_cpus) : per_cpu_(n_cpus), idle_time_(n_cpus, 0),
                                           idle_enters_(n_cpus, 0), migrations_(n_cpus, 0) {}

  // ---- TraceSink ----------------------------------------------------------

  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override;
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override;
  void OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) override;
  void OnMigration(Time now, ThreadId tid, CpuId from, CpuId to, MigrationReason reason) override;
  void OnIdleEnter(Time now, CpuId cpu) override;
  void OnIdleExit(Time now, CpuId cpu, Time idle_for) override;

  // ---- Results ------------------------------------------------------------

  int n_cpus() const { return static_cast<int>(per_cpu_.size()); }
  const LatencyDistributions& Cpu(CpuId cpu) const { return per_cpu_[cpu]; }

  // Aggregation over a cpu subset (a NUMA node) or the whole machine.
  LatencyDistributions AggregateCpus(const CpuSet& cpus) const;
  LatencyDistributions Machine() const;

  Time IdleTime(CpuId cpu) const { return idle_time_[cpu]; }
  uint64_t IdleEnters(CpuId cpu) const { return idle_enters_[cpu]; }
  uint64_t MigrationsInto(CpuId cpu) const { return migrations_[cpu]; }

 private:
  std::vector<LatencyDistributions> per_cpu_;  // Indexed by cpu.
  std::vector<Time> idle_time_;
  std::vector<uint64_t> idle_enters_;
  std::vector<uint64_t> migrations_;  // Indexed by destination cpu.

  // Migration cost: a kMigration arms a per-thread stamp; the next switch-in
  // of that thread reports migration -> first run on the new core.
  struct PendingMigration {
    Time when = kTimeNever;
  };
  std::vector<PendingMigration> pending_migration_;  // Indexed by tid.
};

}  // namespace wcores

#endif  // SRC_TELEMETRY_LATENCY_H_
