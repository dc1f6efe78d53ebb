#include "src/tools/sweep/trace_hash.h"

#include <bit>

#include "src/simkit/exact.h"

namespace wcores {

void Fnv1a::MixDouble(double value) {
  // Bit pattern, not numeric value: the digest must notice a 1-ulp change
  // in a recorded load, because a 1-ulp change can flip a balance decision
  // later. Normalize the one double with two encodings.
  if (ExactlyEqual(value, 0.0)) {
    value = 0.0;  // Collapses -0.0.
  }
  Mix(std::bit_cast<uint64_t>(value));
}

void TraceHashSink::OnNrRunning(Time now, CpuId cpu, int nr_running) {
  Tag(kTagNrRunning, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.Mix(static_cast<uint64_t>(nr_running));
}

void TraceHashSink::OnLoad(Time now, CpuId cpu, double load) {
  Tag(kTagLoad, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.MixDouble(load);
}

void TraceHashSink::OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                                 ConsideredKind kind) {
  Tag(kTagConsidered, now);
  fnv_.Mix(static_cast<uint64_t>(initiator));
  fnv_.Mix(static_cast<uint64_t>(kind));
  for (CpuId c : considered) {
    fnv_.Mix(static_cast<uint64_t>(c));
  }
}

void TraceHashSink::OnMigration(Time now, ThreadId tid, CpuId from, CpuId to,
                                MigrationReason reason) {
  Tag(kTagMigration, now);
  fnv_.Mix(static_cast<uint64_t>(tid));
  fnv_.Mix(static_cast<uint64_t>(from));
  fnv_.Mix(static_cast<uint64_t>(to));
  fnv_.Mix(static_cast<uint64_t>(reason));
}

void TraceHashSink::OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) {
  Tag(kTagSwitchIn, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.Mix(static_cast<uint64_t>(tid));
  fnv_.Mix(waited);
}

void TraceHashSink::OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran,
                                bool still_runnable) {
  Tag(kTagSwitchOut, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.Mix(static_cast<uint64_t>(tid));
  fnv_.Mix(ran);
  fnv_.Mix(still_runnable ? 1 : 0);
}

void TraceHashSink::OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) {
  Tag(kTagWakeupLatency, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.Mix(static_cast<uint64_t>(tid));
  fnv_.Mix(latency);
}

void TraceHashSink::OnIdleEnter(Time now, CpuId cpu) {
  Tag(kTagIdleEnter, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
}

void TraceHashSink::OnIdleExit(Time now, CpuId cpu, Time idle_for) {
  Tag(kTagIdleExit, now);
  fnv_.Mix(static_cast<uint64_t>(cpu));
  fnv_.Mix(idle_for);
}

}  // namespace wcores
