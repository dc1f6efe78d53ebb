#include "src/sim/simulator.h"

#include "src/simkit/check.h"

namespace wcores {

Simulator::Simulator(const Topology& topo, Options options, TraceSink* trace)
    : topo_(&topo),
      features_(options.features),
      tunables_(options.tunables.value_or(SchedTunables::ForCpus(topo.n_cores()))),
      rng_(options.seed),
      acct_(topo.n_cores()) {
  sched_ = std::make_unique<Scheduler>(topo, features_, tunables_, this, trace, options.policy);
  cores_.resize(topo.n_cores());
}

Simulator::~Simulator() = default;

// ---- Workload construction --------------------------------------------------

ThreadId Simulator::Spawn(std::unique_ptr<Behavior> behavior, const SpawnParams& params) {
  ThreadParams tp;
  tp.nice = params.nice;
  tp.autogroup = params.autogroup;
  tp.affinity = params.affinity;
  tp.parent_cpu = params.parent_cpu;
  if (tp.parent_cpu == kInvalidCpu && params.parent != kInvalidThread) {
    tp.parent_cpu = sched_->Entity(params.parent).cpu;
  }
  ThreadId tid = sched_->CreateThread(Now(), tp);
  WC_CHECK(tid == static_cast<ThreadId>(threads_.size()), "tid bookkeeping out of sync");
  threads_.emplace_back();
  SimThread& t = threads_.back();
  t.tid = tid;
  t.behavior = std::move(behavior);
  t.rng = rng_.Fork();
  alive_ += 1;
  return tid;
}

SyncId Simulator::CreateSpinLock() {
  spin_locks_.emplace_back();
  return static_cast<SyncId>(spin_locks_.size() - 1);
}

SyncId Simulator::CreateSpinBarrier(int participants) {
  spin_barriers_.emplace_back();
  spin_barriers_.back().participants = participants;
  return static_cast<SyncId>(spin_barriers_.size() - 1);
}

SyncId Simulator::CreateBlockingBarrier(int participants) {
  blocking_barriers_.emplace_back();
  blocking_barriers_.back().participants = participants;
  return static_cast<SyncId>(blocking_barriers_.size() - 1);
}

SyncId Simulator::CreateVar() {
  vars_.emplace_back();
  return static_cast<SyncId>(vars_.size() - 1);
}

void Simulator::At(Time when, EventQueue::Callback fn) { queue_.ScheduleAt(when, std::move(fn)); }

void Simulator::After(Time delay, EventQueue::Callback fn) {
  queue_.ScheduleAfter(delay, std::move(fn));
}

void Simulator::SetCpuOnline(CpuId cpu, bool online) {
  if (!online) {
    // Deschedule whatever is running so the scheduler can evacuate it as a
    // queued entity; cancel the core's timers.
    Core& core = cores_[cpu];
    if (core.running != kInvalidThread) {
      StopRunning(cpu);
      core.running = kInvalidThread;
    }
    core.tick.Cancel();
    core.pending.Cancel();
  }
  sched_->SetCpuOnline(Now(), cpu, online);
}

void Simulator::WakeExternal(ThreadId tid, CpuId waker_cpu) {
  SimThread& t = threads_[tid];
  if (t.state != ThreadState::kBlocked) {
    return;
  }
  WakeThreadInternal(tid, waker_cpu);
}

// ---- Execution --------------------------------------------------------------

void Simulator::Run(Time until) { queue_.RunUntil(until); }

bool Simulator::RunUntilAllExited(Time deadline) {
  while (alive_ > 0 && queue_.RunOne(deadline)) {
  }
  return alive_ == 0;
}

// ---- SchedClient -------------------------------------------------------------

void Simulator::KickCpu(CpuId cpu) {
  Core& core = cores_[cpu];
  if (core.kick_pending) {
    return;
  }
  core.kick_pending = true;
  queue_.ScheduleAt(Now(), [this, cpu] { CheckResched(cpu); });
}

void Simulator::NohzKick(CpuId cpu) {
  queue_.ScheduleAt(Now(), [this, cpu] {
    sched_->RunNohzBalance(Now(), cpu);
    CheckResched(cpu);
  });
}

// ---- Event handlers -----------------------------------------------------------

void Simulator::CheckResched(CpuId cpu) {
  Core& core = cores_[cpu];
  core.kick_pending = false;
  if (core.running == kInvalidThread) {
    if (sched_->IsOnline(cpu) && sched_->NrRunning(cpu) > 0) {
      ContextSwitch(cpu);
    }
  } else if (sched_->NeedResched(cpu)) {
    ContextSwitch(cpu);
  }
}

void Simulator::OnTick(CpuId cpu) {
  Core& core = cores_[cpu];
  if (core.running == kInvalidThread) {
    return;  // Went idle; tickless until work arrives.
  }
  sched_->Tick(Now(), cpu);
  if (sched_->NeedResched(cpu)) {
    ContextSwitch(cpu);  // Re-arms the tick.
  } else {
    core.tick = queue_.ScheduleAfter(tunables_.tick_period, [this, cpu] { OnTick(cpu); });
  }
}

void Simulator::OnSegmentEnd(CpuId cpu) {
  Core& core = cores_[cpu];
  ThreadId tid = core.running;
  WC_CHECK(tid != kInvalidThread, "segment end on idle core");
  SimThread& t = threads_[tid];
  WC_CHECK(t.mode == RunMode::kCompute, "segment end for non-computing thread");
  t.total_compute += t.seg_remaining;
  t.seg_remaining = 0;
  t.mode = RunMode::kIdleSlot;
  ProcessActions(cpu, tid);
}

void Simulator::OnTimerWake(ThreadId tid) {
  SimThread& t = threads_[tid];
  if (!t.Alive() || t.state != ThreadState::kBlocked) {
    return;  // Woken early or exited.
  }
  // Timer expiry is handled on the core the thread slept on (§3.3: the
  // wakeup path then only considers that node's cores, stock).
  WakeThreadInternal(tid, sched_->Entity(tid).cpu);
}

// ---- Core execution control ----------------------------------------------------

void Simulator::ContextSwitch(CpuId cpu) {
  Core& core = cores_[cpu];
  StopRunning(cpu);
  ThreadId prev = core.running;
  core.running = kInvalidThread;

  ThreadId next = sched_->PickNext(Now(), cpu);
  if (next == kInvalidThread) {
    core.tick.Cancel();
    return;
  }
  core.running = next;
  if (next != prev) {
    context_switches_ += 1;
  }
  ArmTickIfNeeded(cpu);
  StartRunning(cpu, next, /*charge_cost=*/next != prev);
}

void Simulator::ArmTickIfNeeded(CpuId cpu) {
  Core& core = cores_[cpu];
  if (!core.tick.Pending()) {
    core.tick = queue_.ScheduleAfter(tunables_.tick_period, [this, cpu] { OnTick(cpu); });
  }
}

void Simulator::StopRunning(CpuId cpu) {
  Core& core = cores_[cpu];
  if (core.running == kInvalidThread) {
    return;
  }
  core.pending.Cancel();
  SimThread& t = threads_[core.running];
  Time now = Now();
  if (t.mode == RunMode::kCompute) {
    if (now > t.seg_exec_start) {
      Time ran = now - t.seg_exec_start;
      if (ran >= t.seg_remaining) {
        ran = t.seg_remaining;
      }
      t.seg_remaining -= ran;
      t.total_compute += ran;
    }
    t.seg_exec_start = now;
  } else if (t.mode == RunMode::kSpin) {
    if (now > t.spin_started) {
      Time spun = now - t.spin_started;
      t.spin_time += spun;
      if (t.spin_grace_left != kTimeNever) {
        t.spin_grace_left = spun >= t.spin_grace_left ? 0 : t.spin_grace_left - spun;
      }
    }
    t.spin_started = now;
  }
  if (now > core.run_start) {
    acct_.AddBusy(cpu, now - core.run_start);
  }
  core.run_start = now;
}

void Simulator::StartRunning(CpuId cpu, ThreadId tid, bool charge_cost) {
  Core& core = cores_[cpu];
  SimThread& t = threads_[tid];
  Time now = Now();
  core.run_start = now;
  Time cost = charge_cost ? tunables_.context_switch_cost : 0;

  switch (t.mode) {
    case RunMode::kCompute:
      t.seg_exec_start = now + cost;
      core.pending = queue_.ScheduleAt(now + cost + t.seg_remaining,
                                       [this, cpu] { OnSegmentEnd(cpu); });
      break;
    case RunMode::kSpin:
      t.spin_started = now + cost;
      if (SpinSatisfied(t)) {
        core.pending =
            queue_.ScheduleAt(now + cost, [this, cpu, tid] { OnSpinRecheck(cpu, tid); });
      } else if (t.spin_grace_left != kTimeNever) {
        ArmSpinTimeout(cpu, tid, cost);
      }
      break;
    case RunMode::kIdleSlot:
      core.pending =
          queue_.ScheduleAt(now + cost, [this, cpu, tid] { ProcessActions(cpu, tid); });
      break;
  }
}

// ---- Spin machinery ---------------------------------------------------------------

bool Simulator::SpinSatisfied(const SimThread& t) const {
  switch (t.spin.kind) {
    case SpinWait::Kind::kNone:
      return false;
    case SpinWait::Kind::kLock:
      return spin_locks_[t.spin.id].holder == kInvalidThread;
    case SpinWait::Kind::kBarrier:
      return spin_barriers_[t.spin.id].generation != t.spin.barrier_generation;
    case SpinWait::Kind::kVar:
      return vars_[t.spin.id].value >= t.spin.var_threshold;
  }
  return false;
}

bool Simulator::TryCompleteSpin(SimThread& t) {
  switch (t.spin.kind) {
    case SpinWait::Kind::kNone:
      return false;
    case SpinWait::Kind::kLock: {
      SpinLock& lock = spin_locks_[t.spin.id];
      if (lock.holder != kInvalidThread) {
        return false;  // Lost the race; keep spinning.
      }
      lock.holder = t.tid;
      lock.acquisitions += 1;
      for (size_t i = 0; i < lock.spinners.size(); ++i) {
        if (lock.spinners[i] == t.tid) {
          lock.spinners.erase(lock.spinners.begin() + static_cast<long>(i));
          break;
        }
      }
      break;
    }
    case SpinWait::Kind::kBarrier:
      if (spin_barriers_[t.spin.id].generation == t.spin.barrier_generation) {
        return false;
      }
      break;
    case SpinWait::Kind::kVar:
      if (vars_[t.spin.id].value < t.spin.var_threshold) {
        return false;
      }
      break;
  }
  t.spin = SpinWait{};
  t.spin_grace_left = kTimeNever;
  t.mode = RunMode::kIdleSlot;
  return true;
}

void Simulator::OnSpinRecheck(CpuId cpu, ThreadId tid) {
  Core& core = cores_[cpu];
  if (core.running != tid) {
    return;  // Preempted before the recheck fired.
  }
  SimThread& t = threads_[tid];
  if (t.mode != RunMode::kSpin) {
    return;
  }
  // Account the burned time up to this instant.
  Time now = Now();
  if (now > t.spin_started) {
    t.spin_time += now - t.spin_started;
    t.spin_started = now;
  }
  if (TryCompleteSpin(t)) {
    ProcessActions(cpu, tid);
  }
}

void Simulator::ArmSpinTimeout(CpuId cpu, ThreadId tid, Time extra_delay) {
  Core& core = cores_[cpu];
  Time delay = extra_delay + threads_[tid].spin_grace_left;
  core.pending = queue_.ScheduleAt(Now() + delay, [this, cpu, tid] { OnSpinTimeout(cpu, tid); });
}

void Simulator::OnSpinTimeout(CpuId cpu, ThreadId tid) {
  Core& core = cores_[cpu];
  if (core.running != tid) {
    return;
  }
  SimThread& t = threads_[tid];
  if (t.mode != RunMode::kSpin || t.spin.kind != SpinWait::Kind::kBarrier) {
    return;
  }
  // Account the burned grace period, then give up and block like an OpenMP
  // hybrid barrier does once GOMP_SPINCOUNT expires.
  Time now = Now();
  if (now > t.spin_started) {
    t.spin_time += now - t.spin_started;
  }
  t.spin_grace_left = kTimeNever;
  SpinBarrier& b = spin_barriers_[t.spin.id];
  for (size_t i = 0; i < b.spinners.size(); ++i) {
    if (b.spinners[i] == tid) {
      b.spinners.erase(b.spinners.begin() + static_cast<long>(i));
      break;
    }
  }
  b.sleepers.push_back(tid);
  b.sleeps += 1;
  t.spin = SpinWait{};
  BlockAndSwitch(cpu, t);
}

void Simulator::NotifySpinner(ThreadId tid) {
  const SchedEntity& se = sched_->Entity(tid);
  SimThread& t = threads_[tid];
  if (t.mode != RunMode::kSpin) {
    return;
  }
  // Only spinners that currently own a core can react; descheduled spinners
  // re-check when they are scheduled again (StartRunning).
  CpuId cpu = se.cpu;
  if (cpu != kInvalidCpu && cores_[cpu].running == tid) {
    Core& core = cores_[cpu];
    core.pending.Cancel();
    core.pending = queue_.ScheduleAt(Now(), [this, cpu, tid] { OnSpinRecheck(cpu, tid); });
  }
}

const std::vector<ThreadId>& Simulator::TakeWaiters(std::vector<ThreadId>& waiters) {
  wake_scratch_.assign(waiters.begin(), waiters.end());
  waiters.clear();
  return wake_scratch_;
}

// ---- Blocking helpers -----------------------------------------------------------------

void Simulator::BlockAndSwitch(CpuId cpu, SimThread& t) {
  sched_->BlockCurrent(Now(), cpu);
  t.state = ThreadState::kBlocked;
  t.mode = RunMode::kIdleSlot;
  ContextSwitch(cpu);
}

void Simulator::WakeThreadInternal(ThreadId tid, CpuId waker_cpu) {
  SimThread& t = threads_[tid];
  WC_CHECK(t.state == ThreadState::kBlocked, "waking a thread that is not blocked");
  t.sleep_timer.Cancel();
  t.state = ThreadState::kRunnable;
  t.mode = RunMode::kIdleSlot;
  sched_->Wake(Now(), tid, waker_cpu);
}

// ---- Action interpretation --------------------------------------------------------------

void Simulator::ProcessActions(CpuId cpu, ThreadId tid) {
  Core& core = cores_[cpu];
  if (core.running != tid) {
    return;  // Stale resume event.
  }
  SimThread& t = threads_[tid];
  WC_CHECK(t.Alive(), "processing actions of an exited thread");

  BehaviorContext ctx;
  ctx.tid = tid;
  ctx.rng = &t.rng;
  ctx.sim = this;

  // Zero-cost actions (lock hand-offs, variable updates, wakes) complete
  // synchronously and the loop continues; anything that occupies the core
  // or blocks returns. The guard catches behaviors that never yield.
  for (int guard = 0; guard < 100000; ++guard) {
    ctx.now = Now();
    Action action = t.behavior->Next(ctx);
    if (!ApplyAction(cpu, t, action)) {
      return;
    }
  }
  WC_CHECK(false, "behavior produced an unbounded run of zero-cost actions");
}

bool Simulator::ApplyAction(CpuId cpu, SimThread& t, const Action& action) {
  Core& core = cores_[cpu];
  Time now = Now();

  if (const auto* a = std::get_if<ComputeAction>(&action)) {
    if (a->duration == 0) {
      return true;
    }
    t.mode = RunMode::kCompute;
    t.seg_remaining = a->duration;
    t.seg_exec_start = now;
    core.pending =
        queue_.ScheduleAt(now + a->duration, [this, cpu] { OnSegmentEnd(cpu); });
    return false;
  }

  if (const auto* a = std::get_if<SleepAction>(&action)) {
    ThreadId tid = t.tid;
    t.sleep_timer =
        queue_.ScheduleAt(now + a->duration, [this, tid] { OnTimerWake(tid); });
    BlockAndSwitch(cpu, t);
    return false;
  }

  if (const auto* a = std::get_if<SpinLockAction>(&action)) {
    SpinLock& lock = spin_locks_[a->lock];
    if (lock.holder == kInvalidThread) {
      lock.holder = t.tid;
      lock.acquisitions += 1;
      return true;
    }
    lock.contended_acquisitions += 1;
    lock.spinners.push_back(t.tid);
    t.spin = SpinWait{SpinWait::Kind::kLock, a->lock, 0, 0};
    t.mode = RunMode::kSpin;
    t.spin_started = now;
    return false;  // Burns the core until the lock frees or preemption.
  }

  if (const auto* a = std::get_if<SpinUnlockAction>(&action)) {
    SpinLock& lock = spin_locks_[a->lock];
    WC_CHECK(lock.holder == t.tid, "unlocking a spinlock not held");
    lock.holder = kInvalidThread;
    // The earliest-arrived spinner that is actually on a core wins the
    // cacheline race; descheduled spinners try when next scheduled.
    for (ThreadId spinner : lock.spinners) {
      const SchedEntity& se = sched_->Entity(spinner);
      if (se.cpu != kInvalidCpu && cores_[se.cpu].running == spinner) {
        NotifySpinner(spinner);
        break;
      }
    }
    return true;
  }

  if (const auto* a = std::get_if<SpinBarrierAction>(&action)) {
    SpinBarrier& b = spin_barriers_[a->barrier];
    b.arrived += 1;
    if (b.arrived >= b.participants) {
      b.arrived = 0;
      b.generation += 1;
      b.crossings += 1;
      for (ThreadId spinner : TakeWaiters(b.spinners)) {
        NotifySpinner(spinner);
      }
      for (ThreadId sleeper : TakeWaiters(b.sleepers)) {
        WakeThreadInternal(sleeper, cpu);
      }
      return true;  // The last arrival passes straight through.
    }
    b.spinners.push_back(t.tid);
    t.spin = SpinWait{SpinWait::Kind::kBarrier, a->barrier, b.generation, 0};
    t.mode = RunMode::kSpin;
    t.spin_started = now;
    t.spin_grace_left = a->spin_grace;
    if (a->spin_grace != kTimeNever) {
      ArmSpinTimeout(cpu, t.tid, 0);
    }
    return false;
  }

  if (const auto* a = std::get_if<BlockingBarrierAction>(&action)) {
    BlockingBarrier& b = blocking_barriers_[a->barrier];
    b.arrived += 1;
    if (b.arrived >= b.participants) {
      b.arrived = 0;
      b.generation += 1;
      b.crossings += 1;
      for (ThreadId sleeper : TakeWaiters(b.sleepers)) {
        WakeThreadInternal(sleeper, cpu);
      }
      return true;
    }
    b.sleepers.push_back(t.tid);
    BlockAndSwitch(cpu, t);
    return false;
  }

  if (const auto* a = std::get_if<SpinUntilAction>(&action)) {
    SpinVar& v = vars_[a->var];
    if (v.value >= a->value) {
      return true;
    }
    v.spinners.emplace_back(t.tid, a->value);
    t.spin = SpinWait{SpinWait::Kind::kVar, a->var, 0, a->value};
    t.mode = RunMode::kSpin;
    t.spin_started = now;
    return false;
  }

  if (const auto* a = std::get_if<VarAddAction>(&action)) {
    SpinVar& v = vars_[a->var];
    v.value += a->delta;
    for (size_t i = 0; i < v.spinners.size();) {
      if (v.value >= v.spinners[i].second) {
        ThreadId spinner = v.spinners[i].first;
        v.spinners.erase(v.spinners.begin() + static_cast<long>(i));
        NotifySpinner(spinner);
      } else {
        ++i;
      }
    }
    return true;
  }

  if (std::get_if<ExitAction>(&action) != nullptr) {
    sched_->ExitCurrent(now, cpu);
    t.state = ThreadState::kExited;
    t.mode = RunMode::kIdleSlot;
    t.finished_at = now;
    alive_ -= 1;
    ContextSwitch(cpu);
    return false;
  }

  WC_CHECK(false, "unhandled action variant");
  return false;
}

}  // namespace wcores
