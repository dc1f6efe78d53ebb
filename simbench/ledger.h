// Span ledger: host-time self-time accounting at the simulator's public
// layer seams.
//
// A span covers one call into a layer. Its self time is its duration minus
// the durations of the spans opened inside it (a trace callback fired from a
// balance pass is charged to the trace sink, not to the balancer). The
// scenario phases — topology build, simulator build, workload setup, and the
// run itself — are root spans, so the run span's self time is everything the
// decorators did not cover: the engine residual (event queue, Simulator
// action interpretation, runqueue mechanism reached outside policy hooks).
#ifndef SIMBENCH_LEDGER_H_
#define SIMBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>

#include "src/simkit/check.h"

namespace simbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Ledger slots. Root spans first (the phases of one scenario), then one slot
// per SchedPolicy hook, one per TraceSink callback of the hash sink, and one
// for the whole stream sink.
enum Layer : int {
  kSetupTopology,
  kSetupSimulator,
  kSetupWorkload,
  kRun,
  kPolicyWakeCpu,
  kPolicyForkCpu,
  kPolicyPickNext,
  kPolicyTickPreempt,
  kPolicyWakeupPreempt,
  kPolicyPeriodicBalance,
  kPolicyNewidleBalance,
  kPolicyNohzBalance,
  kPolicyRqEvent,
  kHashFirst,  // Nine slots, in TraceKind order.
  kStream = kHashFirst + 9,
  kLayerCount,
};

// TraceSink callbacks, in declaration order (src/core/trace.h).
inline constexpr const char* kTraceKinds[9] = {
    "nr_running", "load",           "considered", "migration", "switch_in",
    "switch_out", "wakeup_latency", "idle_enter", "idle_exit",
};

inline constexpr const char* kPolicyHooks[9] = {
    "wake_cpu",         "fork_cpu",        "pick_next",   "tick_preempt", "wakeup_preempt",
    "periodic_balance", "newidle_balance", "nohz_balance", "rq_event",
};

inline bool IsRoot(int layer) { return layer <= kRun; }

class Ledger {
 public:
  void Enter(int layer) {
    WC_CHECK(depth_ < static_cast<int>(frames_.size()), "span nesting too deep");
    WC_CHECK(depth_ > 0 || IsRoot(layer), "layer span opened outside a phase");
    frames_[depth_++] = Frame{layer, 0, NowNs()};
  }

  // Closes the innermost span and returns its duration.
  int64_t Exit() {
    int64_t end = NowNs();
    WC_CHECK(depth_ > 0, "span closed twice");
    const Frame& f = frames_[--depth_];
    int64_t duration = end - f.start;
    self_ns_[f.layer] += duration - f.child_ns;
    ++calls_[f.layer];
    if (depth_ > 0) {
      frames_[depth_ - 1].child_ns += duration;
      ++child_calls_[frames_[depth_ - 1].layer];
      covered_ns_[frames_[0].layer] += duration - f.child_ns;
    } else {
      inclusive_ns_[f.layer] += duration;
    }
    return duration;
  }

  int depth() const { return depth_; }
  uint64_t calls(int layer) const { return calls_[layer]; }
  int64_t self_ns(int layer) const { return self_ns_[layer]; }
  // Root spans only: total duration, and the part nested spans covered.
  int64_t inclusive_ns(int layer) const { return inclusive_ns_[layer]; }
  int64_t covered_ns(int layer) const { return covered_ns_[layer]; }
  // Spans opened directly inside `layer`'s spans.
  uint64_t child_calls(int layer) const { return child_calls_[layer]; }

 private:
  struct Frame {
    int layer;
    int64_t child_ns;
    int64_t start;
  };
  std::array<Frame, 32> frames_{};
  int depth_ = 0;
  std::array<uint64_t, kLayerCount> calls_{};
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<int64_t, kLayerCount> inclusive_ns_{};
  std::array<int64_t, kLayerCount> covered_ns_{};
  std::array<uint64_t, kLayerCount> child_calls_{};
};

class Span {
 public:
  Span(Ledger* ledger, int layer) : ledger_(ledger) { ledger_->Enter(layer); }
  ~Span() { ledger_->Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace simbench

#endif  // SIMBENCH_LEDGER_H_
