#include "src/core/scheduler.h"

#include "src/core/sched_policy.h"
#include "src/simkit/check.h"

namespace wcores {

TraceSink* Scheduler::NullSink() {
  static TraceSink sink;
  return &sink;
}

Scheduler::Scheduler(const Topology& topo, const SchedFeatures& features,
                     const SchedTunables& tunables, SchedClient* client, TraceSink* trace,
                     SchedPolicy* policy)
    : topo_(&topo),
      features_(features),
      tunables_(tunables),
      client_(client),
      trace_(trace != nullptr ? trace : NullSink()) {
  WC_CHECK(client_ != nullptr, "scheduler needs a client");
  if (policy != nullptr) {
    policy_ = policy;
  } else {
    owned_policy_ = std::make_unique<CfsPolicy>();
    policy_ = owned_policy_.get();
  }
  // Size every structure-of-arrays member up front (never reallocated after
  // this: the runqueues hold raw pointers into nr_running_/load_version_).
  const size_t n = static_cast<size_t>(topo.n_cores());
  nr_running_.assign(n, 0);
  load_version_.assign(n, 0);
  idle_since_.assign(n, 0);
  load_cache_now_.assign(n, kTimeNever);
  load_cache_version_.assign(n, 0);
  load_cache_epoch_.assign(n, 0);
  load_cache_value_.assign(n, 0.0);
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    cpus_.emplace_back(c, &tunables_);
    cpus_[c].rq.set_stat_slots(&nr_running_[c], &load_version_[c], &overloaded_cpus_);
    online_.Set(c);
    tickless_.Set(c);  // All cpus boot idle since t=0.
  }
  autogroups_.push_back(Autogroup{kRootAutogroup, 0});

  // Boot-time domain construction always includes the cross-NUMA levels; the
  // Missing Scheduling Domains bug only shows on *regeneration* (§3.4).
  RebuildDomains(/*cross_node_levels=*/true);

  policy_->Attach(this);
  if (policy_->WantsQueueEvents()) {
    for (CpuId c = 0; c < topo.n_cores(); ++c) {
      cpus_[c].rq.set_observer(policy_);
    }
  }
}

Scheduler::~Scheduler() = default;

AutogroupId Scheduler::CreateAutogroup() {
  AutogroupId id = static_cast<AutogroupId>(autogroups_.size());
  autogroups_.push_back(Autogroup{id, 0});
  return id;
}

double Scheduler::AutogroupDivisor(AutogroupId id) const {
  if (!features_.autogroup_enabled) {
    return 1.0;
  }
  return autogroups_[id].divisor();
}

double Scheduler::RqLoadFill(Time now, CpuId cpu) const {
  // The miss path of the inline memo in scheduler.h: recompute the fold and
  // snapshot every input the memo keys on.
  double load = cpus_[cpu].rq.LoadAt(now, [this](AutogroupId id) { return AutogroupDivisor(id); });
  load_cache_now_[cpu] = now;
  load_cache_version_[cpu] = load_version_[cpu];
  load_cache_epoch_[cpu] = ag_epoch_;
  load_cache_value_[cpu] = load;
  return load;
}

double Scheduler::RqLoadRecomputed(Time now, CpuId cpu) const {
  return cpus_[cpu].rq.LoadAt(now, [this](AutogroupId id) { return AutogroupDivisor(id); });
}

void Scheduler::UpdateFeatures(const SchedFeatures& features) {
  features_ = features;
  ++ag_epoch_;
}

void Scheduler::SetNice(Time now, ThreadId tid, int nice) {
  WC_CHECK(nice >= kMinNice && nice <= kMaxNice, "nice outside [-20, 19]");
  SchedEntity& se = entities_[tid];
  if (se.nice == nice) {
    return;
  }
  if (se.on_rq) {
    cpus_[se.cpu].rq.Reweight(&se, now, nice);
    NotifyLoad(now, se.cpu);
  } else {
    se.SetNice(nice);
  }
}

ThreadId Scheduler::CurrentThread(CpuId cpu) const {
  const SchedEntity* curr = cpus_[cpu].rq.curr();
  return curr != nullptr ? curr->tid : kInvalidThread;
}

void Scheduler::SelectFallbackRq(SchedEntity& se) {
  if ((se.affinity & online_).Empty()) {
    se.affinity = topo_->AllCpus();
  }
}

CpuId Scheduler::CfsForkCpu(const SchedEntity& se, CpuId parent_cpu) const {
  // Fork placement: the parent's core when allowed (§3.2), otherwise the
  // first allowed online cpu. CreateThread's SelectFallbackRq guarantees
  // there is one.
  if (parent_cpu != kInvalidCpu && online_.Test(parent_cpu) && se.affinity.Test(parent_cpu)) {
    return parent_cpu;
  }
  return (se.affinity & online_).First();
}

void Scheduler::NotifyNrRunning(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  int nr = nr_running_[cpu];
  if (nr != c.last_nr_reported) {
    c.last_nr_reported = nr;
    trace_->OnNrRunning(now, cpu, nr);
  }
}

void Scheduler::NotifyLoad(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  double load = RqLoad(now, cpu);
  if (load != c.last_load_reported) {
    c.last_load_reported = load;
    trace_->OnLoad(now, cpu, load);
  }
}

void Scheduler::UpdateIdleState(Time now, CpuId cpu) {
  if (nr_running_[cpu] == 0) {
    if (!tickless_.Test(cpu)) {
      idle_since_[cpu] = now;
      tickless_.Set(cpu);
      trace_->OnIdleEnter(now, cpu);
    }
  } else if (tickless_.Test(cpu)) {
    trace_->OnIdleExit(now, cpu, now - idle_since_[cpu]);
    tickless_.Clear(cpu);
  }
}

CpuId Scheduler::LongestIdleCpu(const CpuSet& allowed) const {
  // Ascending id order with a strict < keeps the tie-break: lowest
  // idle_since, then lowest cpu id.
  CpuId best = kInvalidCpu;
  Time best_since = kTimeNever;
  for (CpuId c : allowed & online_ & tickless_) {
    if (idle_since_[c] < best_since) {
      best_since = idle_since_[c];
      best = c;
    }
  }
  return best;
}

bool Scheduler::ValidateStatMirrors() const {
  int overloaded = 0;
  for (CpuId c = 0; c < static_cast<CpuId>(cpus_.size()); ++c) {
    if (nr_running_[c] != cpus_[c].rq.nr_running() ||
        load_version_[c] != cpus_[c].rq.load_version()) {
      return false;
    }
    if (nr_running_[c] >= 2) {
      overloaded += 1;
    }
    if (online_.Test(c) && tickless_.Test(c) != (nr_running_[c] == 0)) {
      return false;
    }
  }
  return overloaded == overloaded_cpus_;
}

bool Scheduler::CanSteal(CpuId idle_cpu, CpuId busy_cpu) const {
  return cpus_[busy_cpu].rq.HasStealableFor(idle_cpu);
}

ThreadId Scheduler::CreateThread(Time now, const ThreadParams& params) {
  WC_CHECK(params.nice >= kMinNice && params.nice <= kMaxNice, "nice outside [-20, 19]");
  ThreadId tid = static_cast<ThreadId>(entities_.size());
  entities_.emplace_back();
  SchedEntity& se = entities_.back();
  se.tid = tid;
  se.SetNice(params.nice);
  se.autogroup = params.autogroup;
  se.affinity = params.affinity.Empty() ? topo_->AllCpus() : params.affinity;
  se.load = LoadTracker(1.0);
  se.load.SetState(now, true);
  autogroups_[se.autogroup].nr_threads += 1;
  ++ag_epoch_;
  stats_.forks += 1;

  // Fork placement is the policy's call; the core checks the answer is an
  // online allowed cpu.
  SelectFallbackRq(se);
  CpuId target = policy_->SelectForkCpu(now, se, params.parent_cpu);
  WC_CHECK(target != kInvalidCpu && online_.Test(target) && se.affinity.Test(target),
           "policy fork placement violated affinity/online");

  Cpu& c = cpus_[target];
  bool was_idle = c.rq.Idle();
  c.rq.Enqueue(&se, now, CfsRunqueue::EnqueueKind::kNew);
  UpdateIdleState(now, target);
  NotifyNrRunning(now, target);
  NotifyLoad(now, target);
  if (was_idle) {
    client_->KickCpu(target);
  } else if (policy_->WakeupPreempts(now, target, se)) {
    c.need_resched = true;
    client_->KickCpu(target);
  }
  return tid;
}

void Scheduler::ExitCurrent(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  SchedEntity* se = c.rq.curr();
  WC_CHECK(se != nullptr, "no running thread to exit");
  trace_->OnSwitchOut(now, cpu, se->tid, now - se->switched_in_at, /*still_runnable=*/false);
  c.rq.PutCurr(now, CfsRunqueue::PutKind::kBlocked);
  se->load.SetState(now, false);
  autogroups_[se->autogroup].nr_threads -= 1;
  ++ag_epoch_;
  stats_.exits += 1;
  UpdateIdleState(now, cpu);
  NotifyNrRunning(now, cpu);
  NotifyLoad(now, cpu);
}

void Scheduler::BlockCurrent(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  SchedEntity* se = c.rq.curr();
  WC_CHECK(se != nullptr, "no running thread to block");
  trace_->OnSwitchOut(now, cpu, se->tid, now - se->switched_in_at, /*still_runnable=*/false);
  c.rq.PutCurr(now, CfsRunqueue::PutKind::kBlocked);
  se->load.SetState(now, false);
  UpdateIdleState(now, cpu);
  NotifyNrRunning(now, cpu);
  NotifyLoad(now, cpu);
}

CpuId Scheduler::Wake(Time now, ThreadId tid, CpuId waker_cpu) {
  SchedEntity& se = entities_[tid];
  WC_CHECK(!se.on_rq, "waking a runnable thread");
  se.load.Advance(now);
  se.last_wakeup = now;
  se.wakeup_pending = true;
  stats_.wakeups += 1;

  CpuSet considered;
  SelectFallbackRq(se);
  CpuId target = policy_->SelectWakeCpu(now, se, waker_cpu, &considered);
  WC_CHECK(target != kInvalidCpu && online_.Test(target) && se.affinity.Test(target),
           "policy wakeup placement violated affinity/online");
  trace_->OnConsidered(now, waker_cpu != kInvalidCpu ? waker_cpu : target, considered,
                       ConsideredKind::kWakeup);

  if (target == se.cpu) {
    stats_.wakeups_on_prev += 1;
  }
  if (cpus_[target].rq.Idle()) {
    stats_.wakeups_on_idle += 1;
  } else {
    stats_.wakeups_on_busy += 1;
  }

  // Cross-cpu wake: re-base vruntime between the queues, as the kernel does
  // in migrate_task_rq_fair + enqueue.
  if (target != se.cpu && se.cpu != kInvalidCpu) {
    Time src_min = cpus_[se.cpu].rq.min_vruntime();
    Time dst_min = cpus_[target].rq.min_vruntime();
    Time rel = se.vruntime > src_min ? se.vruntime - src_min : 0;
    se.vruntime = dst_min + rel;
  }
  EnqueueWake(now, &se, target);
  return target;
}

void Scheduler::EnqueueWake(Time now, SchedEntity* se, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  bool was_idle = c.rq.Idle();
  c.rq.Enqueue(se, now, CfsRunqueue::EnqueueKind::kWakeup);
  se->load.SetState(now, true);
  UpdateIdleState(now, cpu);
  NotifyNrRunning(now, cpu);
  NotifyLoad(now, cpu);
  if (was_idle) {
    client_->KickCpu(cpu);
  } else if (policy_->WakeupPreempts(now, cpu, *se)) {
    c.need_resched = true;
    client_->KickCpu(cpu);
  }
}

ThreadId Scheduler::PickNext(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  c.need_resched = false;
  if (!online_.Test(cpu)) {
    return kInvalidThread;
  }
  SchedEntity* prev = c.rq.curr();
  if (prev != nullptr) {
    prev->load.Advance(now);
    c.rq.PutCurr(now, CfsRunqueue::PutKind::kStillRunnable);
  }
  SchedEntity* next = PickEntityOn(now, cpu);
  if (next == nullptr) {
    // "Emergency" balancing when a core becomes idle (§2.2).
    policy_->NewIdleBalance(now, cpu);
    next = PickEntityOn(now, cpu);
  }
  // Switch accounting, with kernel sched_switch semantics: re-picking the
  // same thread is not a switch and reports nothing.
  if (next != prev) {
    if (prev != nullptr) {
      trace_->OnSwitchOut(now, cpu, prev->tid, now - prev->switched_in_at,
                          /*still_runnable=*/true);
    }
    if (next != nullptr) {
      trace_->OnSwitchIn(now, cpu, next->tid, now - next->queued_since);
      next->switched_in_at = now;
      if (next->wakeup_pending) {
        next->wakeup_pending = false;
        trace_->OnWakeupLatency(now, cpu, next->tid, now - next->last_wakeup);
      }
    }
  }
  UpdateIdleState(now, cpu);
  return next != nullptr ? next->tid : kInvalidThread;
}

SchedEntity* Scheduler::PickEntityOn(Time now, CpuId cpu) {
  SchedEntity* cand = policy_->PickNextEntity(now, cpu);
  if (cand == nullptr) {
    return nullptr;
  }
  return cpus_[cpu].rq.PickSpecific(cand, now);
}

void Scheduler::Tick(Time now, CpuId cpu) {
  Cpu& c = cpus_[cpu];
  if (!online_.Test(cpu)) {
    return;
  }
  stats_.ticks += 1;
  c.rq.UpdateCurr(now);
  if (c.rq.curr() != nullptr) {
    c.rq.curr()->load.Advance(now);
  }
  if (policy_->TickPreempt(now, cpu)) {
    c.need_resched = true;
  }

  policy_->PeriodicBalance(now, cpu);

  // NOHZ: an overloaded core wakes the first tickless idle core and assigns
  // it the NOHZ balancer role (§2.2.2).
  if (nr_running_[cpu] >= 2 && now >= c.last_nohz_kick + tunables_.nohz_kick_interval) {
    CpuId t = NohzKickTarget();
    if (t != kInvalidCpu) {
      c.last_nohz_kick = now;
      stats_.nohz_kicks += 1;
      client_->NohzKick(t);
    }
  }
}

CpuId Scheduler::NohzKickTarget() const { return (online_ & tickless_).First(); }

void Scheduler::RunNohzBalance(Time now, CpuId cpu) { policy_->NohzBalance(now, cpu); }

void Scheduler::CfsPeriodicBalance(Time now, CpuId cpu) {
  // Periodic load balancing: Algorithm 1, bottom-up over this core's
  // scheduling domains. This core is busy (it is taking a tick), so its
  // intervals are stretched by busy_balance_factor, as in the kernel.
  BalanceDomainsWalk(now, cpu, /*busy=*/true, ConsideredKind::kPeriodicBalance);
}

void Scheduler::CfsNohzBalance(Time now, CpuId cpu) {
  // The kicked core runs the periodic balancing routine for itself and on
  // behalf of all tickless idle cores (§2.2.2). Membership is re-read per
  // cpu: a balance that pulls work onto one delegate changes idleness.
  for (CpuId x : online_) {
    if (x == cpu || tickless_.Test(x)) {
      BalanceDomainsWalk(now, x, /*busy=*/false, ConsideredKind::kNohzBalance);
    }
  }
}

void Scheduler::BalanceDomainsWalk(Time now, CpuId cpu, bool busy, ConsideredKind kind) {
  for (SchedDomain& sd : cpus_[cpu].domains.domains) {
    Time interval = busy ? sd.balance_interval * static_cast<Time>(tunables_.busy_balance_factor)
                         : sd.balance_interval;
    if (now < sd.last_balance + interval) {
      stats_.balance_interval_skips += 1;
      continue;
    }
    if (DesignatedCpu(cpu, sd) != cpu) {
      stats_.balance_designation_skips += 1;
      continue;
    }
    sd.last_balance = now;
    BalanceDomain(now, cpu, sd, kind);
  }
}

void Scheduler::SetCpuOnline(Time now, CpuId cpu, bool online) {
  Cpu& c = cpus_[cpu];
  if (online_.Test(cpu) == online) {
    return;
  }
  if (!online) {
    online_.Clear(cpu);

    // Evacuate the runqueue: the running thread first, then queued ones.
    // Member scratch, not a local vector: hotplug churn (the fuzzer, the
    // hotplug scenarios) should not allocate per event.
    evacuees_scratch_.clear();
    if (c.rq.curr() != nullptr) {
      SchedEntity* curr = c.rq.curr();
      trace_->OnSwitchOut(now, cpu, curr->tid, now - curr->switched_in_at,
                          /*still_runnable=*/true);
      c.rq.PutCurr(now, CfsRunqueue::PutKind::kBlocked);
      curr->queued_since = now;  // Starts waiting on the evacuation target.
      evacuees_scratch_.push_back(curr);
    }
    c.rq.ForEachQueued([&](const SchedEntity* se) {
      evacuees_scratch_.push_back(const_cast<SchedEntity*>(se));
      return true;
    });
    for (SchedEntity* se : evacuees_scratch_) {
      if (se->on_rq) {
        c.rq.DequeueQueued(se, now);
      }
      SelectFallbackRq(*se);
      CpuId target = (se->affinity & online_).First();
      Time src_min = c.rq.min_vruntime();
      Time dst_min = cpus_[target].rq.min_vruntime();
      Time rel = se->vruntime > src_min ? se->vruntime - src_min : 0;
      se->vruntime = dst_min + rel;
      bool was_idle = cpus_[target].rq.Idle();
      cpus_[target].rq.Enqueue(se, now, CfsRunqueue::EnqueueKind::kMigrate);
      se->cpu = target;
      stats_.migrations_hotplug += 1;
      trace_->OnMigration(now, se->tid, cpu, target, MigrationReason::kHotplug);
      UpdateIdleState(now, target);
      NotifyNrRunning(now, target);
      NotifyLoad(now, target);
      if (was_idle) {
        client_->KickCpu(target);
      }
    }
    UpdateIdleState(now, cpu);
    NotifyNrRunning(now, cpu);
    NotifyLoad(now, cpu);
    client_->KickCpu(cpu);
  } else {
    online_.Set(cpu);
    idle_since_[cpu] = now;
    tickless_.Set(cpu);
    c.need_resched = false;
  }
  // §3.4: regeneration is a two-step process — domains inside NUMA nodes,
  // then across them. Stock kernels dropped the second step during a
  // refactoring; fix_missing_domains restores it.
  RebuildDomains(features_.fix_missing_domains);
}

CpuId Scheduler::DesignatedCpu(CpuId cpu, const SchedDomain& sd) const {
  // Within multi-node (possibly overlapping) groups, balancing on the
  // group's behalf is the responsibility of each node's own cores — "the
  // core responsible for load balancing on each node" (§3.2) — so the
  // balance mask is the local group restricted to this cpu's node. For
  // SMT/NODE domains the local group is the balance mask itself.
  const SchedGroup& local = sd.groups()[sd.local_group];
  CpuSet mask = local.cpus & online_;
  if (local.seed_node != kInvalidNode) {
    CpuSet node_cpus = topo_->CpusOfNode(topo_->NodeOf(cpu)) & mask;
    if (!node_cpus.Empty()) {
      mask = node_cpus;
    }
  }
  // tickless_ is exactly the idle set on online cpus (ValidateStatMirrors),
  // so its first member in the mask is the first idle one.
  CpuId idle = (mask & tickless_).First();
  return idle != kInvalidCpu ? idle : mask.First();
}

void Scheduler::RebuildDomains(bool cross_node_levels) {
  DomainBuildOptions opts;
  opts.perspective = features_.fix_group_construction ? GroupPerspective::kPerCore
                                                      : GroupPerspective::kCore0;
  opts.cross_node_levels = cross_node_levels;
  opts.base_balance_interval = tunables_.base_balance_interval;
  auto trees = BuildDomains(*topo_, online_, opts);
  for (CpuId c = 0; c < topo_->n_cores(); ++c) {
    cpus_[c].domains = std::move(trees[c]);
  }
}

}  // namespace wcores
