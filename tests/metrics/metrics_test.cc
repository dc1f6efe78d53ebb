#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/metrics/accounting.h"
#include "src/metrics/histogram.h"
#include "src/simkit/rng.h"

namespace wcores {
namespace {

// The exact order statistic the histogram approximates, read the same way
// LogHistogram::Quantile reads it (linear interpolation between ranks).
double ExactQuantile(const std::vector<uint64_t>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1 - frac) + static_cast<double>(sorted[hi]) * frac;
}

TEST(LogHistogramTest, EmptyReadsAllZeros) {
  LogHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.0) << q;
  }
}

TEST(LogHistogramTest, MeanMinMaxSumAreExact) {
  LogHistogram h;
  for (uint64_t v : {3000001u, 1000003u, 2000002u}) {
    h.Add(v);
  }
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 6000006u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2000002.0);
  EXPECT_EQ(h.Min(), 1000003u);
  EXPECT_EQ(h.Max(), 3000001u);
  // The extreme ranks read as their buckets' midpoints, within 1/128.
  EXPECT_NEAR(h.Quantile(0.0), 1000003.0, 1000003.0 / 128);
  EXPECT_NEAR(h.Quantile(1.0), 3000001.0, 3000001.0 / 128);
}

TEST(LogHistogramTest, QuantilesInterpolate) {
  LogHistogram h;
  for (uint64_t i = 0; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 0.01);
}

TEST(LogHistogramTest, QuantilesOfKnownDistribution) {
  LogHistogram s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  // Linear interpolation over 100 samples: p50 = 50.5, p95 = 95.05.
  EXPECT_NEAR(s.Quantile(0.50), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
}

TEST(LogHistogramTest, MergeEqualsOneFold) {
  Rng rng(7);
  LogHistogram a;
  LogHistogram b;
  LogHistogram both;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBelow(uint64_t{1} << rng.NextBelow(40));
    (i % 3 == 0 ? a : b).Add(v);
    both.Add(v);
  }
  LogHistogram merged = a;
  merged.Merge(b);
  EXPECT_TRUE(merged == both);
  // Merging an empty histogram changes nothing; merging into one copies.
  merged.Merge(LogHistogram{});
  EXPECT_TRUE(merged == both);
  LogHistogram empty;
  empty.Merge(both);
  EXPECT_TRUE(empty == both);
}

TEST(LogHistogramTest, LogUniformStreamWithinRelativeBound) {
  // 100k samples spread evenly over 1 ns .. ~1.1 s in log space: every one
  // of 257 evenly spaced quantiles is within 1/128 of the exact value.
  Rng rng(42);
  LogHistogram h;
  std::vector<uint64_t> all;
  all.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    auto v = static_cast<uint64_t>(std::exp(rng.NextDouble() * std::log(1.1e9)));
    h.Add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  for (int k = 0; k <= 256; ++k) {
    double q = k / 256.0;
    double exact = ExactQuantile(all, q);
    EXPECT_LE(std::abs(h.Quantile(q) - exact), exact / 128) << "q=" << q;
  }
}

TEST(LogHistogramTest, ExtremesLandInsideTheArray) {
  EXPECT_EQ(LogHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LogHistogram::BucketOf(127), 127u);
  EXPECT_EQ(LogHistogram::BucketOf(128), 128u);
  EXPECT_EQ(LogHistogram::BucketOf(UINT64_MAX), LogHistogram::kBuckets - 1);
  LogHistogram h;
  h.Add(0);
  h.Add(UINT64_MAX);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), UINT64_MAX);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_NEAR(h.Quantile(1.0), 0x1p64, 0x1p64 / 128);
}

TEST(CpuAccountingTest, BusyAccumulatesPerCore) {
  CpuAccounting acct(4);
  acct.AddBusy(0, Milliseconds(10));
  acct.AddBusy(0, Milliseconds(5));
  acct.AddBusy(2, Milliseconds(20));
  EXPECT_EQ(acct.Busy(0), Milliseconds(15));
  EXPECT_EQ(acct.Busy(1), 0u);
  EXPECT_EQ(acct.TotalBusy(), Milliseconds(35));
}

TEST(CpuAccountingTest, UtilizationFractions) {
  CpuAccounting acct(2);
  acct.AddBusy(0, Milliseconds(50));
  EXPECT_DOUBLE_EQ(acct.Utilization(0, Milliseconds(100)), 0.5);
  EXPECT_DOUBLE_EQ(acct.Utilization(1, Milliseconds(100)), 0.0);
  EXPECT_DOUBLE_EQ(acct.MachineUtilization(Milliseconds(100)), 0.25);
}

TEST(CpuAccountingTest, ZeroElapsedIsSafe) {
  CpuAccounting acct(1);
  EXPECT_DOUBLE_EQ(acct.Utilization(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(acct.MachineUtilization(0), 0.0);
}

}  // namespace
}  // namespace wcores
