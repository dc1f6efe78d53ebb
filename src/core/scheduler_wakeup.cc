// Wakeup placement (select_task_rq_fair): §2.2.2 and the Overload-on-Wakeup
// bug of §3.3.
#include "src/core/scheduler.h"

namespace wcores {

namespace {

// Total load of a node's runqueues; used by the wake_affine choice between
// the sleeper's node and the waker's node.
double NodeLoad(const Scheduler& sched, const Topology& topo, Time now, NodeId node) {
  double total = 0;
  for (CpuId c : topo.CpusOfNode(node)) {
    if (sched.IsOnline(c)) {
      total += sched.RqLoad(now, c);
    }
  }
  return total;
}

}  // namespace

CpuId Scheduler::SelectTaskRq(Time now, const SchedEntity& se, CpuId waker_cpu,
                              CpuSet* considered) {
  CpuSet allowed = WakeAllowed(se);
  if (features_.fix_overload_wakeup) {
    // The paper's fix: wake on the local core — where the thread ran last —
    // if idle; otherwise on the core that has been idle the longest (the
    // head of the kernel's idle-core list, a constant-time pick); otherwise
    // fall back to the original algorithm.
    if (se.cpu != kInvalidCpu && allowed.Test(se.cpu) && nr_running_[se.cpu] == 0) {
      considered->Set(se.cpu);
      return se.cpu;
    }
    CpuId longest = LongestIdleCpu(allowed);
    if (longest != kInvalidCpu) {
      // The trace records every allowed idle core as considered.
      *considered |= allowed & online_ & tickless_;
      return longest;
    }
  }
  return SelectTaskRqStock(now, se, waker_cpu, allowed, considered);
}

CpuId Scheduler::SelectTaskRqStock(Time now, const SchedEntity& se, CpuId waker_cpu,
                                   const CpuSet& allowed, CpuSet* considered) {
  CpuId prev = se.cpu;
  if (prev == kInvalidCpu || !online_.Test(prev)) {
    prev = allowed.First();
  }
  NodeId prev_node = topo_->NodeOf(prev);
  NodeId waker_node = waker_cpu != kInvalidCpu ? topo_->NodeOf(waker_cpu) : prev_node;

  // wake_affine: choose between the node the thread slept on and the node
  // of the waker; favour the less loaded one (ties keep the sleeper's node).
  NodeId target_node = prev_node;
  if (waker_node != prev_node) {
    if (NodeLoad(*this, *topo_, now, waker_node) < NodeLoad(*this, *topo_, now, prev_node)) {
      target_node = waker_node;
    }
  }

  // select_idle_sibling: "the scheduler only considers the cores of Node X
  // for scheduling the awakened thread" — this node-local search is the
  // Overload-on-Wakeup bug when every core of the node is busy while other
  // nodes have idle cores.
  CpuSet candidates = topo_->CpusOfNode(target_node) & allowed;
  if (candidates.Empty()) {
    NodeId other = target_node == prev_node ? waker_node : prev_node;
    candidates = topo_->CpusOfNode(other) & allowed;
  }
  if (candidates.Empty()) {
    // Pinned entirely outside both nodes; fall back to the affinity mask.
    candidates = allowed;
  }
  *considered |= candidates;

  // Prefer the core the thread last ran on, for cache reuse.
  if (candidates.Test(prev) && nr_running_[prev] == 0) {
    return prev;
  }
  // Any idle core of the node.
  for (CpuId c : candidates) {
    if (nr_running_[c] == 0) {
      return c;
    }
  }
  // All cores of the node are busy: wake on the least loaded one anyway.
  CpuId best = kInvalidCpu;
  int best_nr = 0;
  double best_load = 0;
  for (CpuId c : candidates) {
    int nr = nr_running_[c];
    double load = RqLoad(now, c);
    if (best == kInvalidCpu || nr < best_nr || (nr == best_nr && load < best_load)) {
      best = c;
      best_nr = nr;
      best_load = load;
    }
  }
  return best;
}

}  // namespace wcores
