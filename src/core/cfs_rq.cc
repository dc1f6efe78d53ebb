#include "src/core/cfs_rq.h"

#include "src/simkit/check.h"

#include <algorithm>

namespace wcores {

void CfsRunqueue::Enqueue(SchedEntity* se, Time now, EnqueueKind kind) {
  WC_CHECK(!se->on_rq, "entity already runnable");
  UpdateCurr(now);

  switch (kind) {
    case EnqueueKind::kWakeup: {
      // Sleeper credit (GENTLE_FAIR_SLEEPERS): a waking thread is placed
      // half a latency period behind min_vruntime so it gets scheduled
      // soon, but cannot monopolize the CPU after a long sleep.
      Time floor = min_vruntime_;
      Time credit = tunables_->sched_latency / 2;
      Time placed = floor > credit ? floor - credit : 0;
      se->vruntime = std::max(se->vruntime, placed);
      break;
    }
    case EnqueueKind::kNew:
      se->vruntime = std::max(se->vruntime, min_vruntime_);
      break;
    case EnqueueKind::kMigrate:
      // Caller re-based: se->vruntime -= src.min_vruntime; += dst.min_vruntime.
      break;
    case EnqueueKind::kPutPrev:
      break;
  }

  // Runqueue-wait accounting starts when the entity begins waiting; a
  // migration moves the wait, it does not restart it.
  if (kind != EnqueueKind::kMigrate) {
    se->queued_since = now;
  }

  se->on_rq = true;
  se->running = false;
  se->cpu = cpu_;
  tree_.Insert(se);
  total_weight_ += se->weight;
  BumpLoadVersion();
  SyncNr();
  UpdateMinVruntime();
  if (observer_ != nullptr) {
    observer_->OnRqEnqueue(now, cpu_, se, kind);
  }
}

void CfsRunqueue::DequeueQueued(SchedEntity* se, Time now) {
  WC_CHECK(se->on_rq && !se->running && se->cpu == cpu_, "dequeue of entity not queued here");
  UpdateCurr(now);
  tree_.Erase(se);
  total_weight_ -= se->weight;
  BumpLoadVersion();
  SyncNr();
  se->on_rq = false;
  se->last_dequeued = now;
  UpdateMinVruntime();
  if (observer_ != nullptr) {
    observer_->OnRqDequeue(now, cpu_, se);
  }
}

void CfsRunqueue::Reweight(SchedEntity* se, Time now, int nice) {
  WC_CHECK(se->on_rq && se->cpu == cpu_, "reweight of entity not on this queue");
  UpdateCurr(now);  // Runtime already consumed accrues vruntime at the old weight.
  int old_nice = se->nice;
  total_weight_ -= se->weight;
  se->SetNice(nice);
  total_weight_ += se->weight;
  BumpLoadVersion();
  if (observer_ != nullptr && !se->running) {
    observer_->OnRqReweight(now, cpu_, se, old_nice);
  }
}

SchedEntity* CfsRunqueue::PickNext(Time now) {
  WC_CHECK(curr_ == nullptr, "previous curr not put back");
  SchedEntity* next = tree_.Leftmost();
  if (next == nullptr) {
    return nullptr;
  }
  return PickSpecific(next, now);
}

SchedEntity* CfsRunqueue::PickSpecific(SchedEntity* se, Time now) {
  WC_CHECK(curr_ == nullptr, "previous curr not put back");
  WC_CHECK(se != nullptr && se->on_rq && !se->running && se->cpu == cpu_,
           "picked entity not queued on this cpu");
  // LoadAt folds curr first, then the tree in vruntime order, and the RqLoad
  // memo serves a same-instant sum under an unchanged load_version. Picking the
  // leftmost preserves that fold sequence exactly, so the CFS path needs no
  // bump; a policy picking any *other* entity permutes the fold order, which
  // float addition does not forgive — invalidate the memo.
  if (se != tree_.Leftmost()) {
    BumpLoadVersion();
  }
  tree_.Erase(se);
  curr_ = se;
  se->running = true;
  se->exec_start = now;
  se->slice_exec = 0;
  if (observer_ != nullptr) {
    observer_->OnRqPick(now, cpu_, se);
  }
  return se;
}

void CfsRunqueue::UpdateCurr(Time now) {
  if (curr_ == nullptr) {
    return;
  }
  Time delta = now - curr_->exec_start;
  if (delta == 0) {
    return;
  }
  curr_->exec_start = now;
  curr_->sum_exec_runtime += delta;
  curr_->slice_exec += delta;
  curr_->vruntime += curr_->DeltaExecToVruntime(delta);
  UpdateMinVruntime();
}

void CfsRunqueue::PutCurr(Time now, PutKind kind) {
  WC_CHECK(curr_ != nullptr, "no running entity");
  UpdateCurr(now);
  SchedEntity* prev = curr_;
  curr_ = nullptr;
  prev->running = false;
  prev->last_ran = now;
  total_weight_ -= prev->weight;
  if (kind == PutKind::kStillRunnable) {
    prev->on_rq = false;  // Enqueue() re-sets it.
    Enqueue(prev, now, EnqueueKind::kPutPrev);
  } else {
    prev->on_rq = false;
    prev->last_dequeued = now;
    BumpLoadVersion();
    SyncNr();
    UpdateMinVruntime();
  }
}

bool CfsRunqueue::HasStealableFor(CpuId cpu) const {
  bool found = false;
  tree_.ForEach([&](const SchedEntity* se) {
    if (se->affinity.Test(cpu)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

Time CfsRunqueue::TimesliceFor(const SchedEntity& se) const {
  uint64_t total = total_weight_;
  if (!se.on_rq && !se.running) {
    total += se.weight;
  }
  if (total == 0) {
    return tunables_->sched_latency;
  }
  Time slice = static_cast<Time>(static_cast<double>(tunables_->sched_latency) *
                                 static_cast<double>(se.weight) / static_cast<double>(total));
  return std::max(slice, tunables_->min_granularity);
}

bool CfsRunqueue::CheckPreemptTick() const {
  if (curr_ == nullptr || tree_.Empty()) {
    return false;
  }
  if (curr_->slice_exec >= TimesliceFor(*curr_)) {
    return true;
  }
  // A thread far ahead in vruntime yields even mid-slice.
  const SchedEntity* left = tree_.Leftmost();
  return curr_->vruntime > left->vruntime &&
         curr_->vruntime - left->vruntime > TimesliceFor(*curr_);
}

bool CfsRunqueue::CheckPreemptWakeup(const SchedEntity& woken, Time now) const {
  if (curr_ == nullptr) {
    return true;  // Idle cpu: anything "preempts".
  }
  (void)now;
  // Preempt if the woken thread is behind curr by more than the wakeup
  // granularity (kernel wakeup_preempt_entity).
  return curr_->vruntime > woken.vruntime &&
         curr_->vruntime - woken.vruntime > tunables_->wakeup_granularity;
}

bool CfsRunqueue::ValidateInvariants() const {
  if (tree_.Validate() < 0) {
    return false;
  }
  uint64_t weight = curr_ != nullptr ? curr_->weight : 0;
  size_t count = 0;
  const SchedEntity* prev = nullptr;
  bool ok = true;
  tree_.ForEach([&](const SchedEntity* se) {
    weight += se->weight;
    count += 1;
    if (se->cpu != cpu_ || !se->on_rq || se->running) {
      ok = false;
    }
    if (prev != nullptr && EntityByVruntime()(*se, *prev)) {
      ok = false;  // In-order traversal out of order.
    }
    prev = se;
    return true;
  });
  if (curr_ != nullptr && (!curr_->running || !curr_->on_rq || curr_->cpu != cpu_)) {
    ok = false;
  }
  return ok && count == tree_.Size() && weight == total_weight_;
}

void CfsRunqueue::UpdateMinVruntime() {
  Time candidate = min_vruntime_;
  const SchedEntity* left = tree_.Leftmost();
  if (curr_ != nullptr && left != nullptr) {
    candidate = std::max(candidate, std::min(curr_->vruntime, left->vruntime));
  } else if (curr_ != nullptr) {
    candidate = std::max(candidate, curr_->vruntime);
  } else if (left != nullptr) {
    candidate = std::max(candidate, left->vruntime);
  }
  min_vruntime_ = candidate;
}

}  // namespace wcores
