// Simulated threads and their behaviors.
#ifndef SRC_SIM_THREAD_H_
#define SRC_SIM_THREAD_H_

#include <memory>
#include <vector>

#include "src/core/entity.h"
#include "src/sim/actions.h"
#include "src/sim/sync.h"
#include "src/simkit/event_queue.h"
#include "src/simkit/rng.h"
#include "src/simkit/time.h"

namespace wcores {

class Simulator;

// Per-thread view handed to Behavior::Next.
struct BehaviorContext {
  ThreadId tid = kInvalidThread;
  Time now = 0;
  Rng* rng = nullptr;       // Thread-private deterministic stream.
  Simulator* sim = nullptr;  // For advanced behaviors (spawning children).
};

// A thread's program: a state machine emitting one action at a time.
// Next() is called when the previous action has completed; returning
// ExitAction terminates the thread.
class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual Action Next(BehaviorContext& ctx) = 0;
};

// Fixed list of actions, optionally repeated; handy for tests and simple
// workloads. If `repeat` > 1 the list is executed that many times; the
// thread exits afterwards (an explicit ExitAction in the list overrides).
class ScriptBehavior : public Behavior {
 public:
  explicit ScriptBehavior(std::vector<Action> actions, int repeat = 1)
      : actions_(std::move(actions)), repeat_(repeat) {}

  Action Next(BehaviorContext& ctx) override {
    (void)ctx;
    if (index_ >= actions_.size()) {
      index_ = 0;
      ++iteration_;
      if (iteration_ >= repeat_) {
        return ExitAction{};
      }
    }
    return actions_[index_++];
  }

 private:
  std::vector<Action> actions_;
  size_t index_ = 0;
  int repeat_ = 1;
  int iteration_ = 0;
};

enum class ThreadState {
  kRunnable,  // In a runqueue or running.
  kBlocked,   // Sleeping / waiting on a blocking sync object.
  kExited,
};

// What the thread is doing while it owns a core.
enum class RunMode {
  kIdleSlot,  // Needs its next action fetched when it gets on cpu.
  kCompute,   // Executing a compute segment.
  kSpin,      // Burning cycles on a spin object.
};

struct SimThread {
  ThreadId tid = kInvalidThread;
  std::unique_ptr<Behavior> behavior;
  Rng rng;

  ThreadState state = ThreadState::kRunnable;
  RunMode mode = RunMode::kIdleSlot;

  // Compute-segment bookkeeping.
  Time seg_remaining = 0;   // CPU time left in the current compute segment.
  Time seg_exec_start = 0;  // When the current on-cpu stint began (while kCompute).

  SpinWait spin;
  // Remaining CPU time the thread will spin before giving up and blocking
  // (hybrid barriers); kTimeNever = spins forever.
  Time spin_grace_left = kTimeNever;

  // Pending sleep timer, cancelled if the thread is woken early.
  EventHandle sleep_timer;

  // Statistics.
  Time finished_at = 0;
  Time total_compute = 0;  // Productive CPU time (excludes spinning).
  Time spin_time = 0;      // CPU time burned while spinning.
  Time spin_started = 0;   // While kSpin and on cpu.

  bool Alive() const { return state != ThreadState::kExited; }
};

}  // namespace wcores

#endif  // SRC_SIM_THREAD_H_
