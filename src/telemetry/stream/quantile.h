// Streaming quantile sketches for the bounded-memory telemetry pipeline.
//
// P2Quantile is the P² algorithm (Jain & Chlamtac, CACM 1985): five markers
// track the running p-quantile in O(1) time and O(1) space per observation,
// adjusting interior markers with a piecewise-parabolic fit. Exact for the
// first five samples, an estimate afterwards.
//
// Error bounds (documented, and pinned by the parity test in
// tests/telemetry/stream_test.cc against the exact batch Summary): on the
// simulator's latency distributions — heavy-tailed mixtures of timeslice
// quanta — the estimate satisfies, at each quoted rank, at least one of
//   * rank error: the estimate's exact rank in the batch sample set is
//     within 0.10 of the target for p50 and within 0.05 for p95/p99
//     (i.i.d.-ish streams do much better: the uniform-stream test pins
//     0.02 at all three ranks), or
//   * absolute error <= 50 us — the escape hatch for distributions that
//     concentrate most of their mass inside one scheduling quantum (e.g.
//     rq-wait with the group-imbalance fix applied, where half the samples
//     are ~0 and rank error is not a meaningful metric).
// P² is NOT a guaranteed-error sketch (GK is; it costs O(log n) space); it
// was chosen because the O(1)-space determinism matters more here than tight
// rank guarantees. Sketches at different ranks are independent, so the
// estimates are not forced to be monotone across ranks on strongly bimodal
// inputs. Consumers needing certified ranks re-run with the batch
// LatencyAccountant.
//
// Determinism: pure arithmetic on the sample stream — same samples in the
// same order give bit-identical markers. No allocation after construction.
#ifndef SRC_TELEMETRY_STREAM_QUANTILE_H_
#define SRC_TELEMETRY_STREAM_QUANTILE_H_

#include <cstdint>

#include "src/simkit/time.h"

namespace wcores {

class P2Quantile {
 public:
  explicit P2Quantile(double p) : p_(p) {}

  void Add(double x);

  // Current estimate; exact (linear-interpolated, matching Summary::Quantile)
  // while fewer than five samples have arrived. 0 when empty.
  double Value() const;

  uint64_t count() const { return count_; }

 private:
  double Parabolic(int i, double d) const;
  double Linear(int i, double d) const;

  double p_;
  uint64_t count_ = 0;
  double q_[5] = {0, 0, 0, 0, 0};     // Marker heights.
  double pos_[5] = {1, 2, 3, 4, 5};   // Marker positions (1-based).
  double want_[5] = {0, 0, 0, 0, 0};  // Desired positions.
  double step_[5] = {0, 0, 0, 0, 0};  // Desired-position increments.
};

// One metric's streaming summary: exact count/sum/min/max plus P² sketches
// at the three ranks the schedstat reports quote. ~0.5 KiB, O(1) per sample.
struct StreamingDistribution {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t min_ns = kTimeNever;
  uint64_t max_ns = 0;
  P2Quantile p50{0.50};
  P2Quantile p95{0.95};
  P2Quantile p99{0.99};

  void Add(uint64_t ns) {
    ++count;
    sum_ns += ns;
    if (ns < min_ns) {
      min_ns = ns;
    }
    if (ns > max_ns) {
      max_ns = ns;
    }
    double v = static_cast<double>(ns);
    p50.Add(v);
    p95.Add(v);
    p99.Add(v);
  }

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
};

}  // namespace wcores

#endif  // SRC_TELEMETRY_STREAM_QUANTILE_H_
