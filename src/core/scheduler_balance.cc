// Hierarchical load balancing: Algorithm 1 of the paper, plus (new-)idle
// balancing. The Group Imbalance bug/fix of §3.1 lives in the group metric.
#include <algorithm>
#include <limits>
#include <vector>

#include "src/core/scheduler.h"

namespace wcores {

Scheduler::GroupLoadStats Scheduler::ComputeGroupStats(Time now, const CpuSet& cpus) const {
  // The metric that compares groups. Stock kernels compare *average* loads,
  // which lets one high-load thread conceal idle cores on its node — the
  // Group Imbalance bug. The fix compares the *minimum* loads: if some core
  // in another group is busier than every core in ours is idle-ish, steal.
  //
  // tickless_ is exactly the idle set on online cpus (ValidateStatMirrors),
  // so the census is word-wide and only busy members are visited. An idle
  // member's nr_running is 0 and its load exactly +0.0 (LoadAt's empty
  // fold), and no member load is negative, so skipping it leaves the sum
  // unchanged (x + 0.0 == x for x >= +0) and pins the minimum at 0.0
  // (min(m, 0.0) == 0.0 for m >= +0): under the fix a group holding an idle
  // member reads no load at all. GroupStatsRecomputed is the unskipped fold.
  const bool by_min = features_.fix_group_imbalance;
  GroupLoadStats gs;
  const CpuSet members = cpus & online_;
  const CpuSet busy = members & ~tickless_;
  gs.n_cpus = members.Count();
  if (gs.n_cpus == 0) {
    return gs;
  }
  gs.imbalanced = members.Intersects(imbalanced_);
  const bool read_loads = !by_min || busy == members;
  double acc = by_min ? std::numeric_limits<double>::infinity() : 0.0;
  for (CpuId c : busy) {
    gs.nr_running += nr_running_[c];
    if (read_loads) {
      double load = RqLoad(now, c);
      acc = by_min ? std::min(acc, load) : acc + load;
    }
  }
  if (read_loads) {
    gs.metric = by_min ? acc : acc / gs.n_cpus;
  }
  return gs;
}

Scheduler::GroupLoadStats Scheduler::GroupStatsRecomputed(Time now, const CpuSet& cpus) const {
  const bool by_min = features_.fix_group_imbalance;
  GroupLoadStats gs;
  double acc = by_min ? std::numeric_limits<double>::infinity() : 0.0;
  for (CpuId c : cpus) {
    if (!online_.Test(c)) {
      continue;
    }
    gs.n_cpus += 1;
    gs.nr_running += cpus_[c].rq.nr_running();
    gs.imbalanced = gs.imbalanced || imbalanced_.Test(c);
    double load = RqLoadRecomputed(now, c);
    acc = by_min ? std::min(acc, load) : acc + load;
  }
  if (gs.n_cpus > 0) {
    gs.metric = by_min ? acc : acc / gs.n_cpus;
  }
  return gs;
}

int Scheduler::BalanceDomain(Time now, CpuId cpu, const SchedDomain& sd, ConsideredKind kind) {
  stats_.balance_calls += 1;

  MigrationReason reason = kind == ConsideredKind::kPeriodicBalance
                               ? MigrationReason::kPeriodicBalance
                               : (kind == ConsideredKind::kIdleBalance
                                      ? MigrationReason::kIdleBalance
                                      : MigrationReason::kNohzBalance);

  // Cpus proven useless as sources this pass (tasksets, Algorithm 1 lines
  // 20-22). When a whole busiest group is excluded, group selection redoes
  // without it — the kernel's LBF_ALL_PINNED "redo" path.
  CpuSet excluded;

  // Lines 10-12: the load metric of every scheduling group, computed once
  // per call from word-wide masks, reading a load (off the per-cpu RqLoad
  // memo) only where the metric compares one; see ComputeGroupStats.
  //
  // Redo passes (the kernel's LBF_ALL_PINNED path) do NOT refold: the stats
  // are the call's snapshot, and a redo only drops the exhausted group's
  // slot (n_cpus == 0 groups are never selected), at O(groups) instead of
  // O(domain cpus). Groups need not be disjoint (NUMA groups overlap by
  // construction, §3.2), so this is not a refold under the exclusion.
  // ComputeGroupStats never reads `excluded`, and a pass that reaches a redo
  // moved no task, so a refold would differ only in the imbalanced flag a
  // failed steal has just set. Linux refolds every group over its span &
  // env->cpus; EXPERIMENTS.md measures what either refold would change.
  std::vector<GroupLoadStats>& stats = balance_stats_scratch_;
  stats.assign(sd.groups().size(), GroupLoadStats{});
  for (size_t g = 0; g < sd.groups().size(); ++g) {
    stats[g] = ComputeGroupStats(now, sd.groups()[g].cpus);
  }
  // The cores examined: every online member of every group, which is the
  // span itself — BuildDomains restricts each group to online & span and
  // covers the span at every level, and every online change rebuilds the
  // domains.
  trace_->OnConsidered(now, cpu, sd.span, kind);

  for (;;) {
    int excluded_at_pass_start = excluded.Count();

    // Line 13: the busiest group, preferring overloaded then imbalanced ones.
    int local = sd.local_group;
    int busiest = -1;
    for (int g = 0; g < static_cast<int>(stats.size()); ++g) {
      if (g == local || stats[g].n_cpus == 0) {
        continue;
      }
      if (busiest < 0 || stats[g].Rank() > stats[busiest].Rank() ||
          (stats[g].Rank() == stats[busiest].Rank() &&
           stats[g].metric > stats[busiest].metric)) {
        busiest = g;
      }
    }
    if (busiest < 0) {
      return 0;
    }

    // Lines 15-16: if the busiest group does not beat ours, the load is
    // considered balanced at this level.
    if (stats[busiest].metric <= stats[local].metric) {
      stats_.balance_below_local += 1;
      return 0;
    }
    stats_.balance_found_busiest += 1;

    // Lines 18-23: steal from the busiest cpu of the busiest group; retry
    // with the next busiest when tasksets prevent any move.
    double this_load = RqLoad(now, cpu);
    bool group_exhausted = false;
    for (;;) {
      CpuId src = kInvalidCpu;
      double src_load = 0;
      // Busy candidates only (tickless_ is the idle set on online cpus), so
      // every candidate has nr_running >= 1.
      CpuSet candidates = sd.groups()[busiest].cpus & online_ & ~tickless_ & ~excluded;
      candidates.Clear(cpu);
      for (CpuId c : candidates) {
        // Nothing stealable (curr cannot be migrated). nr >= 2 guarantees a
        // queued entity (at most one curr), so only nr == 1 — where
        // curr-only and one-queued look alike — dereferences the runqueue.
        if (nr_running_[c] == 1 && cpus_[c].rq.queued() < 1) {
          continue;
        }
        double load = RqLoad(now, c);
        if (src == kInvalidCpu || load > src_load) {
          src = c;
          src_load = load;
        }
      }
      if (src == kInvalidCpu) {
        group_exhausted = true;
        break;
      }

      double imbalance = (src_load - this_load) / 2.0;
      bool force_min_one = nr_running_[cpu] == 0 && nr_running_[src] >= 2;
      if (imbalance <= 0 && !force_min_one) {
        stats_.balance_failures += 1;
        return 0;
      }

      int moved = MoveTasks(now, src, cpu, imbalance, force_min_one, reason);
      if (moved > 0) {
        imbalanced_.Clear(src);
        stats_.balance_success += 1;
        stats_.balance_moved_tasks += static_cast<uint64_t>(moved);
        return moved;
      }
      // Lines 20-22: the busiest cpu's threads are pinned elsewhere; mark
      // the source imbalanced (so its group is favoured by cores that *can*
      // help) and retry with the next busiest cpu.
      if (cpus_[src].rq.queued() >= 1 && !cpus_[src].rq.HasStealableFor(cpu)) {
        imbalanced_.Set(src);
      }
      stats_.balance_affinity_retries += 1;
      excluded.Set(src);
    }
    if (group_exhausted) {
      // Exclude what remains of this group and redo group selection. Each
      // redo shrinks the candidate set, so this terminates; a group with
      // every cpu excluded has n_cpus == 0 and is never selected again.
      excluded |= sd.groups()[busiest].cpus & online_;
      excluded.Clear(cpu);
      if (excluded.Count() == excluded_at_pass_start) {
        // Sterile pass: nothing new to exclude, nothing movable.
        stats_.balance_failures += 1;
        return 0;
      }
      // Redo group selection without the exhausted group (see the stats
      // comment above).
      stats[busiest] = GroupLoadStats{};
    }
  }
}

int Scheduler::MoveTasks(Time now, CpuId src_cpu, CpuId dst_cpu, double max_load,
                         bool force_min_one, MigrationReason reason) {
  Cpu& src = cpus_[src_cpu];
  Cpu& dst = cpus_[dst_cpu];

  // Candidates in increasing vruntime order; steal from the back (the
  // longest-waiting / least cache-hot end), as load_balance does. Threads
  // that ran within cache_hot_threshold (sched_migration_cost) are demoted
  // to a second-chance list, taken only when no cold candidate suffices.
  // Member scratch (balancing never nests): steady-state passes allocate
  // nothing.
  std::vector<SchedEntity*>& candidates = move_candidates_scratch_;
  std::vector<SchedEntity*>& hot = move_hot_scratch_;
  candidates.clear();
  hot.clear();
  src.rq.ForEachQueued([&](const SchedEntity* se) {
    if (!se->affinity.Test(dst_cpu)) {
      return true;
    }
    bool cache_hot = se->last_ran != 0 && now > se->last_ran &&
                     now - se->last_ran < tunables_.cache_hot_threshold;
    if (cache_hot) {
      hot.push_back(const_cast<SchedEntity*>(se));
    } else {
      candidates.push_back(const_cast<SchedEntity*>(se));
    }
    return true;
  });
  // Cold candidates first (back of the vruntime order = coldest).
  candidates.insert(candidates.begin(), hot.begin(), hot.end());

  int moved = 0;
  double moved_load = 0;
  bool dst_was_idle = nr_running_[dst_cpu] == 0;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    SchedEntity* se = *it;
    if (moved_load >= max_load && !(force_min_one && moved == 0)) {
      break;
    }
    // An idle destination takes one task and starts running it (newidle
    // semantics); pulling a batch would just re-imbalance the source.
    if (dst_was_idle && moved >= 1) {
      break;
    }
    // Never empty the source completely: it must keep one runnable thread.
    if (nr_running_[src_cpu] <= 1) {
      break;
    }
    // This entity's own load counts toward max_load; no runqueue sum is folded.
    double load = CfsRunqueue::EntityLoad(*se, now, AutogroupDivisor(se->autogroup));
    src.rq.DequeueQueued(se, now);
    Time rel = se->vruntime > src.rq.min_vruntime() ? se->vruntime - src.rq.min_vruntime() : 0;
    se->vruntime = dst.rq.min_vruntime() + rel;
    dst.rq.Enqueue(se, now, CfsRunqueue::EnqueueKind::kMigrate);
    se->cpu = dst_cpu;
    moved += 1;
    moved_load += load;
    trace_->OnMigration(now, se->tid, src_cpu, dst_cpu, reason);
    switch (reason) {
      case MigrationReason::kPeriodicBalance:
        stats_.migrations_periodic += 1;
        break;
      case MigrationReason::kIdleBalance:
        stats_.migrations_idle += 1;
        break;
      case MigrationReason::kNohzBalance:
        stats_.migrations_nohz += 1;
        break;
      case MigrationReason::kHotplug:
        stats_.migrations_hotplug += 1;
        break;
    }
  }

  if (moved > 0) {
    UpdateIdleState(now, src_cpu);
    UpdateIdleState(now, dst_cpu);
    NotifyNrRunning(now, src_cpu);
    NotifyLoad(now, src_cpu);
    NotifyNrRunning(now, dst_cpu);
    NotifyLoad(now, dst_cpu);
    // NOHZ balancing pulls work onto *other* (tickless) cores; they must be
    // kicked to notice it. Periodic/idle balancing pulls onto the caller.
    if (dst_was_idle && reason == MigrationReason::kNohzBalance) {
      client_->KickCpu(dst_cpu);
    }
  }
  return moved;
}

void Scheduler::IdleBalance(Time now, CpuId cpu) {
  // New-idle balancing skips the designated-core and interval checks: the
  // core is about to idle, so its cycles are free (§2.2, "emergency" load
  // balancing).
  for (SchedDomain& sd : cpus_[cpu].domains.domains) {
    if (BalanceDomain(now, cpu, sd, ConsideredKind::kIdleBalance) > 0) {
      return;
    }
  }
}

}  // namespace wcores
