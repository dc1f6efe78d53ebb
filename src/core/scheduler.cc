#include "src/core/scheduler.h"

#include "src/simkit/check.h"

#include <algorithm>
#include <cassert>

#include "src/core/sched_policy.h"
#include "src/simkit/log.h"

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
  tickless_.assign(n, 0);
  imbalanced_.assign(n, 0);
  idle_since_.assign(n, 0);
  idle_prev_.assign(n, kInvalidCpu);
  idle_next_.assign(n, kInvalidCpu);
  load_cache_now_.assign(n, kTimeNever);
  load_cache_version_.assign(n, 0);
  load_cache_epoch_.assign(n, 0);
  load_cache_feat_.assign(n, 0);
  load_cache_const_.assign(n, 0);
  load_cache_value_.assign(n, 0.0);
  wheel_.assign(n, BalanceWheel{});
  node_idle_gen_.assign(static_cast<size_t>(topo.n_nodes()), 0);
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    cpus_.emplace_back(c, &tunables_);
    cpus_[c].rq.set_stat_slots(&nr_running_[c], &load_version_[c], &overloaded_cpus_);
    online_.Set(c);
  }
  autogroups_.push_back(Autogroup{kRootAutogroup, 0});

  // Boot-time domain construction always includes the cross-NUMA levels; the
  // Missing Scheduling Domains bug only manifests on *regeneration* (§3.4).
  DomainBuildOptions opts;
  opts.perspective = features_.fix_group_construction ? GroupPerspective::kPerCore
                                                      : GroupPerspective::kCore0;
  opts.cross_node_levels = true;
  opts.base_balance_interval = tunables_.base_balance_interval;
  auto trees = BuildDomains(*topo_, online_, opts);
  idle_head_.assign(static_cast<size_t>(topo.n_nodes()), kInvalidCpu);
  idle_tail_.assign(static_cast<size_t>(topo.n_nodes()), kInvalidCpu);
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    cpus_[c].domains = std::move(trees[c]);
    RecomputeWheelDues(c);  // Before the idle inserts: they sum wheel ndoms.
  }
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    tickless_[c] = 1;
    IdleIndexInsert(c);  // All cpus boot idle since t=0.
  }
  RecomputeNohzGlobals();

  policy_->Attach(this);
  if (policy_->WantsQueueEvents()) {
    for (Cpu& c : cpus_) {
      c.rq.set_observer(policy_);
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
  bool all_const = false;
  // wc-lint: allow(A4 the memo's own fill path; every other balance read hits the cache above)
  double load = cpus_[cpu].rq.LoadAt(
      now, [this](AutogroupId id) { return AutogroupDivisor(id); }, &all_const);
  load_cache_now_[cpu] = now;
  load_cache_version_[cpu] = load_version_[cpu];
  load_cache_epoch_[cpu] = ag_epoch_;
  load_cache_feat_[cpu] = feature_gen_;
  load_cache_const_[cpu] = all_const ? 1 : 0;
  load_cache_value_[cpu] = load;
  return load;
}

double Scheduler::RqLoadRecomputed(Time now, CpuId cpu) const {
  return cpus_[cpu].rq.LoadAt(now, [this](AutogroupId id) { return AutogroupDivisor(id); });
}

void Scheduler::UpdateFeatures(const SchedFeatures& features) {
  features_ = features;
  feature_gen_ += 1;
  // No feature flag feeds the balance intervals or DesignatedCpu today
  // (domain-construction flags take effect at the next rebuild), but drop
  // the cached designation bits anyway: the wheel must never be the thing
  // that couples a new feature to stale decisions. Dues are untouched —
  // they are pure last_balance + interval arithmetic.
  for (uint64_t& gen : node_idle_gen_) {
    gen += 1;
  }
}

void Scheduler::SetNice(Time now, ThreadId tid, int nice) {
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

CpuId Scheduler::FirstAllowedOnline(const CpuSet& affinity) const {
  CpuId c = (affinity & online_).First();
  return c != kInvalidCpu ? c : online_.First();
}

CpuId Scheduler::CfsForkCpu(const SchedEntity& se, CpuId parent_cpu) const {
  // Fork placement: the parent's core when allowed (§3.2), otherwise the
  // first allowed online cpu.
  if (parent_cpu != kInvalidCpu && online_.Test(parent_cpu) && se.affinity.Test(parent_cpu)) {
    return parent_cpu;
  }
  return FirstAllowedOnline(se.affinity);
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
    if (tickless_[cpu] == 0) {
      idle_since_[cpu] = now;
      tickless_[cpu] = 1;
      // An idleness flip can change DesignatedCpu answers for this node;
      // invalidate its cached designation bits (see BalanceWheel).
      node_idle_gen_[topo_->NodeOf(cpu)] += 1;
      if (online_.Test(cpu)) {
        IdleIndexInsert(cpu);
      }
      trace_->OnIdleEnter(now, cpu);
    }
  } else {
    if (tickless_[cpu] != 0) {
      trace_->OnIdleExit(now, cpu, now - idle_since_[cpu]);
      node_idle_gen_[topo_->NodeOf(cpu)] += 1;
      if (online_.Test(cpu)) {
        IdleIndexRemove(cpu);
      }
    }
    tickless_[cpu] = 0;
  }
}

void Scheduler::IdleIndexInsert(CpuId cpu) {
  NodeId node = topo_->NodeOf(cpu);
  // A cpu going idle at the current instant carries the largest
  // (idle_since, cpu) key of its node except for same-instant ties, so the
  // backward walk from the tail almost always stops immediately.
  CpuId after = idle_tail_[node];
  while (after != kInvalidCpu &&
         (idle_since_[after] > idle_since_[cpu] ||
          (idle_since_[after] == idle_since_[cpu] && after > cpu))) {
    after = idle_prev_[after];
  }
  idle_prev_[cpu] = after;
  idle_next_[cpu] = after == kInvalidCpu ? idle_head_[node] : idle_next_[after];
  if (idle_next_[cpu] != kInvalidCpu) {
    idle_prev_[idle_next_[cpu]] = cpu;
  } else {
    idle_tail_[node] = cpu;
  }
  if (after == kInvalidCpu) {
    idle_head_[node] = cpu;
  } else {
    idle_next_[after] = cpu;
  }
  // NOHZ wheel: a new delegate joins. Its dues only move forward, so
  // min-folding keeps nohz_all_due_ a sound lower bound (see scheduler.h).
  idle_ndom_sum_ += wheel_[cpu].ndom;
  nohz_all_due_ = std::min(nohz_all_due_, wheel_[cpu].all_idle);
}

void Scheduler::IdleIndexRemove(CpuId cpu) {
  NodeId node = topo_->NodeOf(cpu);
  if (idle_prev_[cpu] != kInvalidCpu) {
    idle_next_[idle_prev_[cpu]] = idle_next_[cpu];
  } else {
    idle_head_[node] = idle_next_[cpu];
  }
  if (idle_next_[cpu] != kInvalidCpu) {
    idle_prev_[idle_next_[cpu]] = idle_prev_[cpu];
  } else {
    idle_tail_[node] = idle_prev_[cpu];
  }
  idle_prev_[cpu] = kInvalidCpu;
  idle_next_[cpu] = kInvalidCpu;
  // nohz_all_due_ is left stale-low on purpose: raising it exactly would
  // cost a full index scan here. A too-low bound only costs a fast-path
  // miss; the next NOHZ slow pass recomputes it exactly.
  idle_ndom_sum_ -= wheel_[cpu].ndom;
}

CpuId Scheduler::LongestIdleCpu(const CpuSet& allowed) const {
  // Each node list is sorted ascending by (idle_since, cpu), so its first
  // allowed entry is the node minimum, and the minimum over node minima is
  // the machine minimum — the same cpu the old full scan produced: lowest
  // idle_since, ties to the lowest cpu id.
  CpuId best = kInvalidCpu;
  Time best_since = kTimeNever;
  for (NodeId n = 0; n < topo_->n_nodes(); ++n) {
    for (CpuId c = idle_head_[n]; c != kInvalidCpu; c = idle_next_[c]) {
      if (!allowed.Test(c)) {
        continue;
      }
      Time since = idle_since_[c];
      if (since < best_since || (since == best_since && c < best)) {
        best_since = since;
        best = c;
      }
      break;  // Later entries of this node can only have larger keys.
    }
  }
  return best;
}

bool Scheduler::ValidateIdleIndex() const {
  std::vector<bool> in_index(cpus_.size(), false);
  for (NodeId n = 0; n < topo_->n_nodes(); ++n) {
    CpuId prev = kInvalidCpu;
    for (CpuId c = idle_head_[n]; c != kInvalidCpu; c = idle_next_[c]) {
      if (topo_->NodeOf(c) != n || idle_prev_[c] != prev) {
        return false;
      }
      if (!online_.Test(c) || tickless_[c] == 0 || in_index[c]) {
        return false;
      }
      if (prev != kInvalidCpu &&
          (idle_since_[prev] > idle_since_[c] ||
           (idle_since_[prev] == idle_since_[c] && prev > c))) {
        return false;
      }
      in_index[c] = true;
      prev = c;
    }
    if (idle_tail_[n] != prev) {
      return false;
    }
  }
  for (CpuId c = 0; c < static_cast<CpuId>(cpus_.size()); ++c) {
    if (in_index[c] != (online_.Test(c) && tickless_[c] != 0)) {
      return false;
    }
  }
  return true;
}

bool Scheduler::ValidateBalanceWheel() const {
  // Write-through mirrors and the overload counter.
  int overloaded = 0;
  for (CpuId c = 0; c < static_cast<CpuId>(cpus_.size()); ++c) {
    if (nr_running_[c] != cpus_[c].rq.nr_running() ||
        load_version_[c] != cpus_[c].rq.load_version()) {
      return false;
    }
    if (nr_running_[c] >= 2) {
      overloaded += 1;
    }
  }
  if (overloaded != overloaded_cpus_) {
    return false;
  }
  // Per-cpu due minima from scratch, and designation bits against the
  // truth whenever their generation is current (stale generations are
  // never consulted, so their bit contents are unconstrained — but the
  // fire minima must still be the bit-derived subset minima, since
  // RecomputeWheelDues rebuilds them from whatever bits it kept).
  const Time factor = static_cast<Time>(tunables_.busy_balance_factor);
  for (CpuId c = 0; c < static_cast<CpuId>(cpus_.size()); ++c) {
    const BalanceWheel& w = wheel_[c];
    const bool gen_current = w.desig_gen == node_idle_gen_[topo_->NodeOf(c)];
    Time all_busy = kTimeNever;
    Time all_idle = kTimeNever;
    Time fire_busy = kTimeNever;
    Time fire_idle = kTimeNever;
    int i = 0;
    for (const SchedDomain& sd : cpus_[c].domains.domains) {
      const uint32_t bit = i < 32 ? (1u << i) : 0u;
      Time due_idle = sd.last_balance + sd.balance_interval;
      Time due_busy = sd.last_balance + sd.balance_interval * factor;
      all_idle = std::min(all_idle, due_idle);
      all_busy = std::min(all_busy, due_busy);
      bool known = (w.desig_known & bit) != 0;
      bool self = (w.desig_self & bit) != 0;
      if (known && gen_current && self != (DesignatedCpu(c, sd) == c)) {
        return false;  // A current-generation bit disagrees with the truth.
      }
      if (!known || self) {
        fire_idle = std::min(fire_idle, due_idle);
        fire_busy = std::min(fire_busy, due_busy);
      }
      ++i;
    }
    if (w.ndom != i || w.all_busy != all_busy || w.all_idle != all_idle) {
      return false;
    }
    // fire minima may be *stale-high relative to cleared bits* never: they
    // are recomputed whenever bits change. They must match the recorded
    // bits exactly when those were folded in as valid, and must never be
    // below the all-domain minimum.
    if (w.fire_busy < w.all_busy || w.fire_idle < w.all_idle) {
      return false;
    }
    if (gen_current && (w.fire_busy > fire_busy || w.fire_idle > fire_idle)) {
      // Under a current generation the fast paths consult fire_*: they must
      // not exceed the bit-derived minima, or a due+unknown/self domain
      // could be skipped without a walk.
      return false;
    }
  }
  // NOHZ wheel: the sum is exact over index members; the due bound is a
  // lower bound (stale-low is sound, stale-high is not).
  int sum = 0;
  Time true_min = kTimeNever;
  for (NodeId n = 0; n < topo_->n_nodes(); ++n) {
    for (CpuId c = idle_head_[n]; c != kInvalidCpu; c = idle_next_[c]) {
      sum += wheel_[c].ndom;
      true_min = std::min(true_min, wheel_[c].all_idle);
    }
  }
  if (sum != idle_ndom_sum_ || nohz_all_due_ > true_min) {
    return false;
  }
  return true;
}

bool Scheduler::CanSteal(CpuId idle_cpu, CpuId busy_cpu) const {
  return cpus_[busy_cpu].rq.HasStealableFor(idle_cpu);
}

ThreadId Scheduler::CreateThread(Time now, const ThreadParams& params) {
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
  // online allowed cpu (any online cpu when affinity has no online member).
  CpuId target = policy_->SelectForkCpu(now, se, params.parent_cpu);
  WC_CHECK(target != kInvalidCpu && online_.Test(target) &&
               (se.affinity.Test(target) || (se.affinity & online_).Empty()),
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
  CpuId target = policy_->SelectWakeCpu(now, se, waker_cpu, &considered);
  WC_CHECK(target != kInvalidCpu && online_.Test(target) &&
               (se.affinity.Test(target) || (se.affinity & online_).Empty()),
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

CpuId Scheduler::NohzKickTarget() const {
  // The replaced linear scan took the first online cpu, in ascending id
  // order, with tickless && Idle — i.e. the minimum id over {online &&
  // tickless && idle}. The idle index holds exactly the online tickless
  // cpus, so the same minimum falls out of walking its node lists (sorted
  // by idle_since, hence no early exit within a node, but the lists are
  // short exactly when this check runs: the kicking cpu is overloaded).
  // The Idle() re-check mirrors the old scan's condition verbatim.
  CpuId best = kInvalidCpu;
  for (NodeId n = 0; n < topo_->n_nodes(); ++n) {
    for (CpuId c = idle_head_[n]; c != kInvalidCpu; c = idle_next_[c]) {
      if (nr_running_[c] == 0 && (best == kInvalidCpu || c < best)) {
        best = c;
      }
    }
  }
  return best;
}

void Scheduler::RunNohzBalance(Time now, CpuId cpu) { policy_->NohzBalance(now, cpu); }

void Scheduler::CfsPeriodicBalance(Time now, CpuId cpu) {
  // Periodic load balancing: Algorithm 1, bottom-up over this core's
  // scheduling domains. This core is busy (it is taking a tick), so its
  // intervals are stretched by busy_balance_factor, as in the kernel.
  //
  // The common tick does O(1) work via the balance-due wheel: the walk it
  // replaces is pure skip accounting unless some domain is both due and
  // designated to this cpu, and the wheel's precomputed minima prove the
  // negative without touching the domains (exactness argued at BalanceWheel
  // and in EXPERIMENTS.md "Tick epoch-ization").
  BalanceWheel& w = wheel_[cpu];
  if (now < w.all_busy) {
    // Every domain would interval-skip; account them in bulk.
    stats_.balance_interval_skips += static_cast<uint64_t>(w.ndom);
    return;
  }
  if (w.desig_gen == node_idle_gen_[topo_->NodeOf(cpu)] && now < w.fire_busy) {
    // Some domain is due, but its cached designation says another cpu
    // balances it (now < fire_busy leaves no due domain unknown or ours).
    // Classify with integer compares only — no DesignatedCpu calls.
    for (SchedDomain& sd : cpus_[cpu].domains.domains) {
      Time interval = sd.balance_interval * static_cast<Time>(tunables_.busy_balance_factor);
      if (now < sd.last_balance + interval) {
        stats_.balance_interval_skips += 1;
      } else {
        stats_.balance_designation_skips += 1;
      }
    }
    return;
  }
  BalanceDomainsWalk(now, cpu, /*busy=*/true, ConsideredKind::kPeriodicBalance);
  RecomputeWheelDues(cpu);
}

void Scheduler::CfsNohzBalance(Time now, CpuId cpu) {
  // The kicked core runs the periodic balancing routine for itself and on
  // behalf of all tickless idle cores (§2.2.2).
  //
  // Fast path: nohz_all_due_ lower-bounds every idle-index member's
  // earliest due time, so "now < nohz_all_due_" proves the whole delegated
  // sweep would be interval skips — account them in bulk (idle_ndom_sum_)
  // without visiting a single domain. The kicked cpu itself participates
  // unconditionally; if it left the index since the kick (woke up busy),
  // its own wheel must also clear.
  if (now < nohz_all_due_) {
    if (tickless_[cpu] != 0) {
      // cpu is an index member: participants == index members exactly.
      stats_.balance_interval_skips += static_cast<uint64_t>(idle_ndom_sum_);
      return;
    }
    if (now < wheel_[cpu].all_idle) {
      stats_.balance_interval_skips +=
          static_cast<uint64_t>(idle_ndom_sum_) + static_cast<uint64_t>(wheel_[cpu].ndom);
      return;
    }
  }
  for (CpuId x : online_) {
    if (x != cpu && !(tickless_[x] != 0 && nr_running_[x] == 0)) {
      continue;
    }
    BalanceWheel& w = wheel_[x];
    if (now < w.all_idle) {
      stats_.balance_interval_skips += static_cast<uint64_t>(w.ndom);
      continue;
    }
    if (w.desig_gen == node_idle_gen_[topo_->NodeOf(x)] && now < w.fire_idle) {
      for (SchedDomain& sd : cpus_[x].domains.domains) {
        if (now < sd.last_balance + sd.balance_interval) {
          stats_.balance_interval_skips += 1;
        } else {
          stats_.balance_designation_skips += 1;
        }
      }
      continue;
    }
    BalanceDomainsWalk(now, x, /*busy=*/false, ConsideredKind::kNohzBalance);
    RecomputeWheelDues(x);
  }
  // The sweep may have fired balances (dues moved forward) or only proved
  // the bound stale-low; either way re-derive the globals exactly.
  RecomputeNohzGlobals();
}

void Scheduler::BalanceDomainsWalk(Time now, CpuId cpu, bool busy, ConsideredKind kind) {
  // The pre-wheel per-domain loop, verbatim: interval check, designation
  // check, fire. The only addition is bookkeeping — designation answers are
  // recorded into the wheel (and served from it while its generation holds)
  // so the next ticks can skip without calling DesignatedCpu at all.
  NodeId node = topo_->NodeOf(cpu);
  BalanceWheel& w = wheel_[cpu];
  if (w.desig_gen != node_idle_gen_[node]) {
    w.desig_known = 0;
    w.desig_self = 0;
    w.desig_gen = node_idle_gen_[node];
  }
  int i = 0;
  for (SchedDomain& sd : cpus_[cpu].domains.domains) {
    // Levels beyond the 32 designation bits (never reached: trees are a
    // handful of levels) simply stay unknown — conservative, not wrong.
    const uint32_t bit = i < 32 ? (1u << i) : 0u;
    ++i;
    Time interval = busy ? sd.balance_interval * static_cast<Time>(tunables_.busy_balance_factor)
                         : sd.balance_interval;
    if (now < sd.last_balance + interval) {
      stats_.balance_interval_skips += 1;
      continue;
    }
    bool self;
    if ((w.desig_known & bit) != 0 && w.desig_gen == node_idle_gen_[node]) {
      self = (w.desig_self & bit) != 0;
    } else {
      self = DesignatedCpu(cpu, sd) == cpu;
      w.desig_known |= bit;
      if (self) {
        w.desig_self |= bit;
      } else {
        w.desig_self &= ~bit;
      }
    }
    if (!self) {
      stats_.balance_designation_skips += 1;
      continue;
    }
    sd.last_balance = now;
    BalanceDomain(now, cpu, sd, kind);
  }
  if (w.desig_gen != node_idle_gen_[node]) {
    // A balance moved tasks and flipped idleness mid-walk: bits recorded
    // above mix generations. Drop them all; the next walk refills.
    w.desig_known = 0;
    w.desig_self = 0;
    w.desig_gen = node_idle_gen_[node];
  }
}

void Scheduler::RecomputeWheelDues(CpuId cpu) {
  BalanceWheel& w = wheel_[cpu];
  const Time factor = static_cast<Time>(tunables_.busy_balance_factor);
  const bool bits_valid = w.desig_gen == node_idle_gen_[topo_->NodeOf(cpu)];
  Time all_busy = kTimeNever;
  Time all_idle = kTimeNever;
  Time fire_busy = kTimeNever;
  Time fire_idle = kTimeNever;
  int i = 0;
  for (const SchedDomain& sd : cpus_[cpu].domains.domains) {
    const uint32_t bit = i < 32 ? (1u << i) : 0u;
    ++i;
    Time due_idle = sd.last_balance + sd.balance_interval;
    Time due_busy = sd.last_balance + sd.balance_interval * factor;
    all_idle = std::min(all_idle, due_idle);
    all_busy = std::min(all_busy, due_busy);
    // fire_* drops only domains *known* to be someone else's; unknown ones
    // are conservatively treated as would-fire.
    bool known_not_self =
        bits_valid && (w.desig_known & bit) != 0 && (w.desig_self & bit) == 0;
    if (!known_not_self) {
      fire_idle = std::min(fire_idle, due_idle);
      fire_busy = std::min(fire_busy, due_busy);
    }
  }
  w.all_busy = all_busy;
  w.all_idle = all_idle;
  w.fire_busy = fire_busy;
  w.fire_idle = fire_idle;
  w.ndom = i;
}

void Scheduler::RecomputeNohzGlobals() {
  Time min_due = kTimeNever;
  int sum = 0;
  for (NodeId n = 0; n < topo_->n_nodes(); ++n) {
    for (CpuId c = idle_head_[n]; c != kInvalidCpu; c = idle_next_[c]) {
      min_due = std::min(min_due, wheel_[c].all_idle);
      sum += wheel_[c].ndom;
    }
  }
  nohz_all_due_ = min_due;
  idle_ndom_sum_ = sum;
}

void Scheduler::SetCpuOnline(Time now, CpuId cpu, bool online) {
  Cpu& c = cpus_[cpu];
  if (online_.Test(cpu) == online) {
    return;
  }
  if (!online) {
    // If the core sits idle in the index, drop it first: offline cpus are
    // never listed (the evacuation below re-checks idle state with the
    // online bit already cleared, so it will not re-insert).
    if (tickless_[cpu] != 0) {
      IdleIndexRemove(cpu);
    }
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
      CpuId target = FirstAllowedOnline(se->affinity);
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
    tickless_[cpu] = 1;
    c.need_resched = false;
    // The insert sums a wheel ndom that is stale (the offline tree was
    // empty); RebuildDomains below recomputes the NOHZ globals exactly
    // before any balancer can observe them.
    IdleIndexInsert(cpu);
  }
  RebuildDomains();
}

CpuId Scheduler::DesignatedCpu(CpuId cpu, const SchedDomain& sd) const {
  // Within multi-node (possibly overlapping) groups, balancing on the
  // group's behalf is the responsibility of each node's own cores — "the
  // core responsible for load balancing on each node" (§3.2) — so the
  // balance mask is the local group restricted to this cpu's node. For
  // SMT/NODE domains the local group is the balance mask itself.
  const SchedGroup& local = sd.groups[sd.local_group];
  CpuSet mask = local.cpus & online_;
  if (local.seed_node != kInvalidNode) {
    CpuSet node_cpus = topo_->CpusOfNode(topo_->NodeOf(cpu)) & mask;
    if (!node_cpus.Empty()) {
      mask = node_cpus;
    }
  }
  for (CpuId c : mask) {
    if (nr_running_[c] == 0) {
      return c;
    }
  }
  return mask.First();
}

void Scheduler::RebuildDomains() {
  // §3.4: regeneration is a two-step process — domains inside NUMA nodes,
  // then across them. Stock kernels dropped the second step during a
  // refactoring; fix_missing_domains restores it.
  DomainBuildOptions opts;
  opts.perspective = features_.fix_group_construction ? GroupPerspective::kPerCore
                                                      : GroupPerspective::kCore0;
  opts.cross_node_levels = features_.fix_missing_domains;
  opts.base_balance_interval = tunables_.base_balance_interval;
  auto trees = BuildDomains(*topo_, online_, opts);
  for (CpuId c = 0; c < topo_->n_cores(); ++c) {
    cpus_[c].domains = std::move(trees[c]);
  }
  // Fresh trees mean fresh SchedDomain objects (last_balance reset) and a
  // possibly-changed online mask: rebuild the whole wheel layer. Bumping
  // every node generation drops all cached designation bits — the online
  // mask is a DesignatedCpu input that the idle generations do not
  // otherwise cover.
  for (uint64_t& gen : node_idle_gen_) {
    gen += 1;
  }
  for (CpuId c = 0; c < topo_->n_cores(); ++c) {
    BalanceWheel& w = wheel_[c];
    w.desig_known = 0;
    w.desig_self = 0;
    w.desig_gen = node_idle_gen_[topo_->NodeOf(c)];
    RecomputeWheelDues(c);
  }
  RecomputeNohzGlobals();
}

}  // namespace wcores
