// The vocabulary of things a simulated thread can do: the nine actions the
// paper's workloads use. make and R compute and sleep (Compute, Sleep;
// §3.1); the database's worker pools sleep at blocking barriers
// (BlockingBarrier; §3.3); NAS spins at barriers and locks and hands off
// through lu's pipeline counters (SpinBarrier, SpinLock/SpinUnlock,
// SpinUntil/VarAdd; §3.2, §3.4). Exit ends the thread.
//
// A Behavior emits one Action at a time; the simulator interprets it.
// The synchronization actions act on the sync objects owned by the
// simulator (src/sim/sync.h). Spin variants burn CPU while waiting — which
// is how lock-holder preemption translates scheduling bugs into the
// super-linear slowdowns of Tables 1 and 3 — while blocking variants sleep
// and later travel through the scheduler wakeup path, which is where the
// Overload-on-Wakeup bug lives.
#ifndef SRC_SIM_ACTIONS_H_
#define SRC_SIM_ACTIONS_H_

#include <cstdint>
#include <variant>

#include "src/simkit/time.h"

namespace wcores {

using SyncId = int;

struct ComputeAction {
  Time duration;
};

// Sleep for a fixed duration; woken by a timer on the core it slept on.
struct SleepAction {
  Time duration;
};

struct SpinLockAction {
  SyncId lock;
};

struct SpinUnlockAction {
  SyncId lock;
};

// Spin-barrier: arrivals burn CPU until the last participant arrives.
// A finite `spin_grace` models OpenMP-style hybrid waiting (GOMP_SPINCOUNT):
// the thread spins for that much CPU time, then gives up and blocks; the
// releasing thread wakes blocked waiters through the scheduler.
struct SpinBarrierAction {
  SyncId barrier;
  Time spin_grace = kTimeNever;  // kTimeNever = spin forever.
};

// Blocking barrier: arrivals sleep; the last participant wakes everyone.
struct BlockingBarrierAction {
  SyncId barrier;
};

// Spin until counter `var` >= `value` (pipeline hand-off, e.g. NAS lu).
struct SpinUntilAction {
  SyncId var;
  int64_t value;
};

// Add `delta` to counter `var`, releasing satisfied spinners.
struct VarAddAction {
  SyncId var;
  int64_t delta;
};

struct ExitAction {};

using Action = std::variant<ComputeAction, SleepAction, SpinLockAction, SpinUnlockAction,
                            SpinBarrierAction, BlockingBarrierAction, SpinUntilAction,
                            VarAddAction, ExitAction>;

}  // namespace wcores

#endif  // SRC_SIM_ACTIONS_H_
