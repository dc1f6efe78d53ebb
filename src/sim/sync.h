// Synchronization objects for simulated threads.
//
// These are plain state records; all transitions are performed by the
// Simulator (single-threaded discrete-event execution), so no atomicity is
// needed. The semantics that matter for the paper:
//
//  * Spin objects keep waiters *runnable*: a spinner occupies its core and
//    burns cycles without progress. If the lock holder (or a barrier
//    straggler) is descheduled, every spinner wastes entire timeslices —
//    the amplification mechanism behind the 27x and 138x slowdowns.
//  * Blocking objects put waiters to sleep; wakeups then go through
//    Scheduler::Wake and its (buggy) placement path.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cstdint>
#include <vector>

#include "src/core/entity.h"
#include "src/sim/actions.h"

namespace wcores {

struct SpinLock {
  ThreadId holder = kInvalidThread;
  // Arrival-ordered spinners (descheduled or running).
  std::vector<ThreadId> spinners;
  uint64_t acquisitions = 0;
  uint64_t contended_acquisitions = 0;
};

struct SpinBarrier {
  int participants = 0;
  int arrived = 0;
  uint64_t generation = 0;
  std::vector<ThreadId> spinners;
  // Hybrid waiters whose spin grace expired; woken by the last arrival.
  std::vector<ThreadId> sleepers;
  uint64_t crossings = 0;
  uint64_t sleeps = 0;  // Times a waiter gave up spinning and blocked.
};

struct BlockingBarrier {
  int participants = 0;
  int arrived = 0;
  uint64_t generation = 0;
  std::vector<ThreadId> sleepers;
  uint64_t crossings = 0;
};

struct SpinVar {
  int64_t value = 0;
  // (thread, threshold) pairs spinning until value >= threshold.
  std::vector<std::pair<ThreadId, int64_t>> spinners;
};

// What a spinning thread is waiting for; checked when the spinner is
// scheduled (and on releases while it runs).
struct SpinWait {
  enum class Kind { kNone, kLock, kBarrier, kVar };
  Kind kind = Kind::kNone;
  SyncId id = -1;
  uint64_t barrier_generation = 0;  // Generation the thread is waiting out.
  int64_t var_threshold = 0;
};

}  // namespace wcores

#endif  // SRC_SIM_SYNC_H_
