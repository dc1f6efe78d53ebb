// Forwarding decorators that time every call across the SchedPolicy and
// TraceSink seams.
//
// Both are pure forwarders: each hook opens a span and calls the wrapped
// object with the same arguments, so a traced run makes exactly the
// decisions of an untraced one (the benchmark checks that the trace hashes
// match under every registered policy). TimedPolicy forwards Attach,
// WantsQueueEvents and name as well, and every RqObserver callback, so the
// O(1) policy's priority arrays see the same membership stream.
#ifndef SIMBENCH_TIMED_H_
#define SIMBENCH_TIMED_H_

#include <memory>
#include <utility>

#include "simbench/ledger.h"
#include "src/core/sched_policy.h"
#include "src/core/trace.h"

namespace simbench {

using wcores::CfsRunqueue;
using wcores::ConsideredKind;
using wcores::CpuId;
using wcores::CpuSet;
using wcores::MigrationReason;
using wcores::SchedEntity;
using wcores::Scheduler;
using wcores::SchedPolicy;
using wcores::ThreadId;
using wcores::Time;
using wcores::TraceSink;

class TimedPolicy final : public SchedPolicy {
 public:
  TimedPolicy(std::unique_ptr<SchedPolicy> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  void Attach(Scheduler* sched) override {
    SchedPolicy::Attach(sched);
    inner_->Attach(sched);
  }
  bool WantsQueueEvents() const override { return inner_->WantsQueueEvents(); }

  CpuId SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                      CpuSet* considered) override {
    Span span(ledger_, kPolicyWakeCpu);
    return inner_->SelectWakeCpu(now, se, waker_cpu, considered);
  }
  CpuId SelectForkCpu(Time now, const SchedEntity& se, CpuId parent_cpu) override {
    Span span(ledger_, kPolicyForkCpu);
    return inner_->SelectForkCpu(now, se, parent_cpu);
  }
  SchedEntity* PickNextEntity(Time now, CpuId cpu) override {
    Span span(ledger_, kPolicyPickNext);
    return inner_->PickNextEntity(now, cpu);
  }
  bool TickPreempt(Time now, CpuId cpu) override {
    Span span(ledger_, kPolicyTickPreempt);
    return inner_->TickPreempt(now, cpu);
  }
  bool WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken) override {
    Span span(ledger_, kPolicyWakeupPreempt);
    return inner_->WakeupPreempts(now, cpu, woken);
  }
  void PeriodicBalance(Time now, CpuId cpu) override {
    Span span(ledger_, kPolicyPeriodicBalance);
    inner_->PeriodicBalance(now, cpu);
  }
  void NewIdleBalance(Time now, CpuId cpu) override {
    Span span(ledger_, kPolicyNewidleBalance);
    inner_->NewIdleBalance(now, cpu);
  }
  void NohzBalance(Time now, CpuId cpu) override {
    Span span(ledger_, kPolicyNohzBalance);
    inner_->NohzBalance(now, cpu);
  }

  void OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se, CfsRunqueue::EnqueueKind kind) override {
    Span span(ledger_, kPolicyRqEvent);
    inner_->OnRqEnqueue(now, cpu, se, kind);
  }
  void OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) override {
    Span span(ledger_, kPolicyRqEvent);
    inner_->OnRqDequeue(now, cpu, se);
  }
  void OnRqPick(Time now, CpuId cpu, SchedEntity* se) override {
    Span span(ledger_, kPolicyRqEvent);
    inner_->OnRqPick(now, cpu, se);
  }
  void OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) override {
    Span span(ledger_, kPolicyRqEvent);
    inner_->OnRqReweight(now, cpu, se, old_nice);
  }

 private:
  std::unique_ptr<SchedPolicy> inner_;
  Ledger* ledger_;
};

// Charges each callback to `first + kind` (the hash sink's per-kind slots)
// or, with per_kind off, every callback to `first` (the stream sink).
class TimedSink final : public TraceSink {
 public:
  TimedSink(TraceSink* inner, Ledger* ledger, int first, bool per_kind)
      : inner_(inner), ledger_(ledger), first_(first), per_kind_(per_kind) {}

  void OnNrRunning(Time now, CpuId cpu, int nr_running) override {
    Span span(ledger_, Slot(0));
    inner_->OnNrRunning(now, cpu, nr_running);
  }
  void OnLoad(Time now, CpuId cpu, double load) override {
    Span span(ledger_, Slot(1));
    inner_->OnLoad(now, cpu, load);
  }
  void OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                    ConsideredKind kind) override {
    Span span(ledger_, Slot(2));
    inner_->OnConsidered(now, initiator, considered, kind);
  }
  void OnMigration(Time now, ThreadId tid, CpuId from, CpuId to, MigrationReason reason) override {
    Span span(ledger_, Slot(3));
    inner_->OnMigration(now, tid, from, to, reason);
  }
  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override {
    Span span(ledger_, Slot(4));
    inner_->OnSwitchIn(now, cpu, tid, waited);
  }
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override {
    Span span(ledger_, Slot(5));
    inner_->OnSwitchOut(now, cpu, tid, ran, still_runnable);
  }
  void OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) override {
    Span span(ledger_, Slot(6));
    inner_->OnWakeupLatency(now, cpu, tid, latency);
  }
  void OnIdleEnter(Time now, CpuId cpu) override {
    Span span(ledger_, Slot(7));
    inner_->OnIdleEnter(now, cpu);
  }
  void OnIdleExit(Time now, CpuId cpu, Time idle_for) override {
    Span span(ledger_, Slot(8));
    inner_->OnIdleExit(now, cpu, idle_for);
  }

 private:
  int Slot(int kind) const { return per_kind_ ? first_ + kind : first_; }

  TraceSink* inner_;
  Ledger* ledger_;
  int first_;
  bool per_kind_;
};

}  // namespace simbench

#endif  // SIMBENCH_TIMED_H_
