// The one latency distribution type: a mergeable log-bucketed histogram.
//
// LogHistogram is the bcc `runqlat` / HDR idiom. Values below 128 ns each
// have their own bucket; above that, every power of two is split into 64
// equal sub-buckets. The bucket array is fixed and covers every uint64, so
// Add never allocates, and two histograms merge by adding their counts.
// Count, sum, min and max are exact.
//
// Quantile(q) keeps the linear-interpolation definition over order
// statistics ⌊q(n−1)⌋ and ⌊q(n−1)⌋+1. Each order statistic reads as its
// bucket's midpoint, clamped to [min, max]; a bucket above 128 ns spans less
// than 1/64 of its lower bound, so every quantile is within 1/128 (relative)
// of the exact value, and exact when both order statistics are below 128 ns.
// All state is integer, so the fold is deterministic.
#ifndef SRC_METRICS_HISTOGRAM_H_
#define SRC_METRICS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace wcores {

class LogHistogram {
 public:
  static constexpr uint64_t kLinear = 128;  // One bucket per value below this.
  static constexpr int kSubBits = 6;        // 64 sub-buckets per power of two.
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // 128 linear buckets, then 64 for each exponent 7..63.
  static constexpr size_t kBuckets = kLinear + (64 - 7) * kSub;

  void Add(uint64_t v) {
    ++counts_[BucketOf(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void Merge(const LogHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    for (size_t i = 0, last = BucketOf(other.max_); i <= last; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t Count() const { return count_; }
  uint64_t Sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t Min() const { return count_ == 0 ? 0 : min_; }
  uint64_t Max() const { return max_; }

  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    double pos = q * static_cast<double>(count_ - 1);
    uint64_t lo = static_cast<uint64_t>(pos);
    uint64_t hi = std::min(lo + 1, count_ - 1);
    double frac = pos - static_cast<double>(lo);
    double v_lo = 0;
    uint64_t seen = 0;
    for (size_t i = 0, last = BucketOf(max_); i <= last; ++i) {
      uint64_t before = seen;
      seen += counts_[i];
      if (before <= lo && lo < seen) {
        v_lo = Value(i);
      }
      if (hi < seen) {
        return v_lo * (1 - frac) + Value(i) * frac;
      }
    }
    return v_lo;
  }

  // Exact state equality, bucket for bucket.
  bool operator==(const LogHistogram&) const = default;

  static size_t BucketOf(uint64_t v) {
    if (v < kLinear) {
      return static_cast<size_t>(v);
    }
    int shift = std::bit_width(v) - 1 - kSubBits;  // >= 1 here.
    uint64_t exponent_rank = static_cast<uint64_t>(shift - 1);
    return static_cast<size_t>(kLinear + exponent_rank * kSub + ((v >> shift) & (kSub - 1)));
  }

 private:
  // Bucket i's midpoint, clamped to the observed range.
  double Value(size_t i) const {
    double mid;
    if (i < kLinear) {
      mid = static_cast<double>(i);
    } else {
      int shift = static_cast<int>((i - kLinear) / kSub) + 1;
      uint64_t lower = (kSub + (i - kLinear) % kSub) << shift;
      mid = static_cast<double>(lower) + static_cast<double>((uint64_t{1} << shift) - 1) / 2;
    }
    return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace wcores

#endif  // SRC_METRICS_HISTOGRAM_H_
