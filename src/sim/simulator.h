// The discrete-event machine simulator.
//
// Executes SimThreads on a simulated multicore machine under the CFS
// scheduler of src/core. The simulator is the SchedClient: the scheduler
// asks it (via deferred events, preserving determinism) to reschedule cores
// that received work and to run NOHZ balancing on kicked tickless cores.
//
// Timing model:
//  * A running thread's compute segments consume core time 1:1.
//  * Spinning threads consume core time without making progress.
//  * The scheduler tick fires every tunables.tick_period on busy cores;
//    idle cores are tickless (§2.2.2).
//  * Context switches cost tunables.context_switch_cost of core time.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/scheduler.h"
#include "src/metrics/accounting.h"
#include "src/sim/sync.h"
#include "src/sim/thread.h"
#include "src/simkit/event_queue.h"
#include "src/simkit/rng.h"
#include "src/simkit/stable_vector.h"

namespace wcores {

class Simulator : public SchedClient {
 public:
  struct Options {
    SchedFeatures features;
    // Unset = SchedTunables::ForCpus(n_cores).
    std::optional<SchedTunables> tunables;
    uint64_t seed = 1;
    // Scheduling policy (src/core/sched_policy.h); null = CFS. Borrowed:
    // must outlive the simulator, one instance per simulator.
    SchedPolicy* policy = nullptr;
  };

  Simulator(const Topology& topo, Options options, TraceSink* trace = nullptr);
  ~Simulator() override;

  // ---- Workload construction ----------------------------------------------

  struct SpawnParams {
    int nice = 0;
    AutogroupId autogroup = kRootAutogroup;
    CpuSet affinity;                    // Empty = all cpus.
    ThreadId parent = kInvalidThread;   // Fork on the parent's current core.
    CpuId parent_cpu = kInvalidCpu;     // Explicit override.
  };

  ThreadId Spawn(std::unique_ptr<Behavior> behavior, const SpawnParams& params);
  ThreadId Spawn(std::unique_ptr<Behavior> behavior) { return Spawn(std::move(behavior), SpawnParams{}); }

  AutogroupId CreateAutogroup() { return sched_->CreateAutogroup(); }

  SyncId CreateSpinLock();
  SyncId CreateSpinBarrier(int participants);
  SyncId CreateBlockingBarrier(int participants);
  SyncId CreateVar();

  // Schedules an arbitrary callback (workload generators, tools). Captures
  // must fit InlineCallback's 16-byte inline buffer; point at out-of-line
  // state for anything larger.
  void At(Time when, EventQueue::Callback fn);
  void After(Time delay, EventQueue::Callback fn);

  // CPU hotplug, the /proc interface of §3.4. Safely deschedules the
  // running thread before the scheduler evacuates the core.
  void SetCpuOnline(CpuId cpu, bool online);

  // Wakes a blocked thread from outside (tools/tests); no-op when runnable.
  void WakeExternal(ThreadId tid, CpuId waker_cpu = kInvalidCpu);

  // ---- Execution ------------------------------------------------------------

  // Runs until the event queue drains or virtual time reaches `until`.
  void Run(Time until);

  // Runs until every spawned thread has exited (or `deadline`); returns
  // true if all exited.
  bool RunUntilAllExited(Time deadline);

  Time Now() const { return queue_.now(); }

  // ---- Introspection ---------------------------------------------------------

  Scheduler& sched() { return *sched_; }
  const Scheduler& sched() const { return *sched_; }
  const Topology& topo() const { return *topo_; }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  const SimThread& thread(ThreadId tid) const { return threads_[tid]; }
  int thread_count() const { return static_cast<int>(threads_.size()); }
  int alive_threads() const { return alive_; }

  CpuAccounting& accounting() { return acct_; }

  const SpinLock& spin_lock(SyncId id) const { return spin_locks_[id]; }
  const SpinBarrier& spin_barrier(SyncId id) const { return spin_barriers_[id]; }
  const BlockingBarrier& blocking_barrier(SyncId id) const { return blocking_barriers_[id]; }
  const SpinVar& var(SyncId id) const { return vars_[id]; }
  int64_t VarValue(SyncId id) const { return vars_[id].value; }

  uint64_t context_switches() const { return context_switches_; }

  // ---- SchedClient ------------------------------------------------------------

  void KickCpu(CpuId cpu) override;
  void NohzKick(CpuId cpu) override;

 private:
  struct Core {
    ThreadId running = kInvalidThread;
    EventHandle tick;
    EventHandle pending;  // Segment end / action resume / spin completion.
    bool kick_pending = false;
    Time run_start = 0;
  };

  // Event handlers.
  void OnTick(CpuId cpu);
  void OnSegmentEnd(CpuId cpu);
  void OnTimerWake(ThreadId tid);
  void CheckResched(CpuId cpu);

  // Core execution control.
  void ContextSwitch(CpuId cpu);
  void StopRunning(CpuId cpu);
  void StartRunning(CpuId cpu, ThreadId tid, bool charge_cost);
  void ArmTickIfNeeded(CpuId cpu);

  // Action interpretation. ProcessActions requires threads_[tid] to be the
  // running thread of `cpu`.
  void ProcessActions(CpuId cpu, ThreadId tid);
  // Returns true if the action completed synchronously (continue the loop).
  bool ApplyAction(CpuId cpu, SimThread& t, const Action& action);

  // Spin machinery.
  bool SpinSatisfied(const SimThread& t) const;
  // Hybrid waiting: the spin grace expired; convert the spinner to a
  // blocked waiter of its barrier.
  void OnSpinTimeout(CpuId cpu, ThreadId tid);
  void ArmSpinTimeout(CpuId cpu, ThreadId tid, Time extra_delay);
  // Claims the spun-on resource if available; returns true when the thread
  // may proceed to its next action.
  bool TryCompleteSpin(SimThread& t);
  void OnSpinRecheck(CpuId cpu, ThreadId tid);
  void NotifySpinner(ThreadId tid);  // Schedule a recheck if it is on a core.
  // Copies a barrier's waiter list into wake_scratch_ and empties the list
  // in place, so it keeps its capacity for the next generation's arrivals.
  // The copy lets the wake loop run over a list no wake can touch.
  const std::vector<ThreadId>& TakeWaiters(std::vector<ThreadId>& waiters);

  void BlockAndSwitch(CpuId cpu, SimThread& t);
  void WakeThreadInternal(ThreadId tid, CpuId waker_cpu);

  const Topology* topo_;
  SchedFeatures features_;
  SchedTunables tunables_;
  EventQueue queue_;
  Rng rng_;
  std::unique_ptr<Scheduler> sched_;
  StableVector<SimThread> threads_;
  std::vector<Core> cores_;
  CpuAccounting acct_;
  int alive_ = 0;
  uint64_t context_switches_ = 0;

  StableVector<SpinLock> spin_locks_;
  StableVector<SpinBarrier> spin_barriers_;
  StableVector<BlockingBarrier> blocking_barriers_;
  StableVector<SpinVar> vars_;
  std::vector<ThreadId> wake_scratch_;  // See TakeWaiters.
};

}  // namespace wcores

#endif  // SRC_SIM_SIMULATOR_H_
