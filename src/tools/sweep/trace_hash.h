// Deterministic digest of a scheduler trace stream.
//
// The determinism contract of the whole repo — same seed, same scenario,
// same decisions — is checkable only if a run can be reduced to a value.
// TraceHashSink folds every TraceSink callback (kind tag + all fields, with
// doubles hashed by bit pattern) into a 64-bit FNV-1a digest, in callback
// order. Two runs have equal digests iff the scheduler made the same
// decisions at the same instants; the determinism regression test and the
// sweep driver both gate on it.
#ifndef SRC_TOOLS_SWEEP_TRACE_HASH_H_
#define SRC_TOOLS_SWEEP_TRACE_HASH_H_

#include <array>
#include <cstdint>

#include "src/core/trace.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"

namespace wcores {

// FNV-1a, 64-bit. Stable across platforms and build modes.
class Fnv1a {
 public:
  static constexpr uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Mix(uint64_t value) {
    // Canonically: eight rounds of h = (h ^ byte) * prime, bytes LSB-first.
    // A zero byte's round is h = (h ^ 0) * prime = h * prime, and multiply
    // mod 2^64 is associative, so a run of k zero bytes collapses into one
    // multiply by prime^k — the same digest, bit for bit (the golden
    // determinism hashes and Fnv1a.MatchesCanonicalByteRounds pin this).
    // The last non-zero byte's round absorbs the zero tail after it:
    // (h ^ b) * prime^(8 - bytes_before). Most mixed values are one byte
    // (tags, cpu ids, nr counts), and this sink runs on every trace event,
    // so the serial 8-multiply dependency chain becomes one multiply.
    if (value == 0) {
      hash_ *= kPrimePow[8];
      return;
    }
    uint64_t h = hash_;
    int bytes = 0;
    for (;;) {
      if ((value & 0xff) == 0) {
        int run = __builtin_ctzll(value) >> 3;  // value != 0 here, so run <= 7.
        h *= kPrimePow[run];
        value >>= run * 8;
        bytes += run;
      }
      uint64_t b = value & 0xff;
      value >>= 8;
      if (value == 0) {
        hash_ = (h ^ b) * kPrimePow[8 - bytes];
        return;
      }
      h = (h ^ b) * kPrime;
      ++bytes;
    }
  }
  void MixDouble(double value);

  uint64_t digest() const { return hash_; }

 private:
  // kPrimePow[k] = kPrime^k mod 2^64: the collapsed factor for k rounds
  // (see Mix).
  static constexpr auto kPrimePow = [] {
    std::array<uint64_t, 9> t{};
    t[0] = 1;
    for (int k = 1; k < 9; ++k) {
      t[k] = t[k - 1] * kPrime;
    }
    return t;
  }();

  uint64_t hash_ = kOffset;
};

class TraceHashSink : public TraceSink {
 public:
  uint64_t digest() const { return fnv_.digest(); }
  uint64_t events() const { return events_; }

  void OnNrRunning(Time now, CpuId cpu, int nr_running) override;
  void OnLoad(Time now, CpuId cpu, double load) override;
  void OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                    ConsideredKind kind) override;
  void OnMigration(Time now, ThreadId tid, CpuId from, CpuId to, MigrationReason reason) override;
  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override;
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override;
  void OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) override;
  void OnIdleEnter(Time now, CpuId cpu) override;
  void OnIdleExit(Time now, CpuId cpu, Time idle_for) override;

 private:
  // Each callback starts with a distinct tag so that, e.g., an IdleEnter
  // followed by an IdleExit cannot collide with the reverse order.
  enum : uint64_t {
    kTagNrRunning = 1,
    kTagLoad,
    kTagConsidered,
    kTagMigration,
    kTagSwitchIn,
    kTagSwitchOut,
    kTagWakeupLatency,
    kTagIdleEnter,
    kTagIdleExit,
  };

  void Tag(uint64_t tag, Time now) {
    fnv_.Mix(tag);
    fnv_.Mix(now);
    ++events_;
  }

  Fnv1a fnv_;
  uint64_t events_ = 0;
};

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_TRACE_HASH_H_
