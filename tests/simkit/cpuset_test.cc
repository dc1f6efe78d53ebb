#include "src/simkit/cpuset.h"

#include <gtest/gtest.h>

#include <set>

#include "src/simkit/rng.h"

namespace wcores {
namespace {

TEST(CpuSetTest, StartsEmpty) {
  CpuSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.First(), kInvalidCpu);
}

TEST(CpuSetTest, SetTestClear) {
  CpuSet s;
  s.Set(5);
  EXPECT_TRUE(s.Test(5));
  EXPECT_FALSE(s.Test(4));
  EXPECT_EQ(s.Count(), 1);
  s.Clear(5);
  EXPECT_FALSE(s.Test(5));
  EXPECT_TRUE(s.Empty());
}

TEST(CpuSetTest, FirstN) {
  CpuSet s = CpuSet::FirstN(10);
  EXPECT_EQ(s.Count(), 10);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(9));
  EXPECT_FALSE(s.Test(10));
}

TEST(CpuSetTest, Single) {
  CpuSet s = CpuSet::Single(63);
  EXPECT_EQ(s.Count(), 1);
  EXPECT_EQ(s.First(), 63);
}

// The set is one word, so its edges are bits 0 and 63.
TEST(CpuSetTest, FirstAndNextCrossWordBoundaries) {
  CpuSet s;
  s.Set(0);
  s.Set(1);
  s.Set(62);
  s.Set(63);
  EXPECT_EQ(s.First(), 0);
  EXPECT_EQ(s.Next(0), 1);
  EXPECT_EQ(s.Next(1), 62);
  EXPECT_EQ(s.Next(62), 63);
  EXPECT_EQ(s.Next(63), kInvalidCpu);
}

TEST(CpuSetTest, NextFromUnsetPosition) {
  CpuSet s;
  s.Set(62);
  EXPECT_EQ(s.Next(kInvalidCpu), 62);
  EXPECT_EQ(s.Next(3), 62);
  EXPECT_EQ(s.Next(61), 62);
  EXPECT_EQ(s.Next(62), kInvalidCpu);
  EXPECT_EQ(s.Next(kMaxCpus - 1), kInvalidCpu);
}

TEST(CpuSetTest, Iteration) {
  CpuSet s;
  s.Set(1);
  s.Set(62);
  s.Set(63);
  std::vector<CpuId> seen;
  for (CpuId c : s) {
    seen.push_back(c);
  }
  EXPECT_EQ(seen, (std::vector<CpuId>{1, 62, 63}));
}

// The word-at-a-time range-for against two independent views of the same
// set: a Test() scan over every cpu, and the First()/Next() chain.
TEST(CpuSetTest, IterationMatchesTestScan) {
  auto check = [](const CpuSet& s) {
    std::vector<CpuId> scanned;
    for (CpuId c = 0; c < kMaxCpus; ++c) {
      if (s.Test(c)) {
        scanned.push_back(c);
      }
    }
    std::vector<CpuId> chained;
    for (CpuId c = s.First(); c != kInvalidCpu; c = s.Next(c)) {
      chained.push_back(c);
    }
    std::vector<CpuId> iterated;
    for (CpuId c : s) {
      iterated.push_back(c);
    }
    EXPECT_EQ(iterated, scanned) << s.ToString();
    EXPECT_EQ(iterated, chained) << s.ToString();
  };

  check(CpuSet{});
  check(CpuSet::FirstN(kMaxCpus));
  CpuSet edges;
  for (CpuId c : {0, 1, 62, 63}) {
    check(CpuSet::Single(c));
    edges.Set(c);
  }
  check(edges);
  check(~edges);

  Rng rng(20260417);
  for (int i = 0; i < 500; ++i) {
    // Densities from empty-ish to full.
    double density = rng.NextDouble();
    CpuSet a;
    CpuSet b;
    for (CpuId c = 0; c < kMaxCpus; ++c) {
      if (rng.NextBool(density)) {
        a.Set(c);
      }
      if (rng.NextBool(density)) {
        b.Set(c);
      }
    }
    check(a);
    check(a | b);
    // Iterating a temporary: the range-for keeps it alive for the loop.
    std::vector<CpuId> from_temporary;
    for (CpuId c : a & b) {
      from_temporary.push_back(c);
    }
    std::vector<CpuId> expected;
    for (CpuId c = 0; c < kMaxCpus; ++c) {
      if (a.Test(c) && b.Test(c)) {
        expected.push_back(c);
      }
    }
    ASSERT_EQ(from_temporary, expected);
  }
}

TEST(CpuSetTest, AndOrNot) {
  CpuSet a = CpuSet::FirstN(8);
  CpuSet b;
  b.Set(6);
  b.Set(7);
  b.Set(8);
  CpuSet band = a & b;
  EXPECT_EQ(band.Count(), 2);
  EXPECT_TRUE(band.Test(6));
  EXPECT_TRUE(band.Test(7));
  CpuSet bor = a | b;
  EXPECT_EQ(bor.Count(), 9);
  CpuSet nota = ~a;
  EXPECT_FALSE(nota.Test(0));
  EXPECT_TRUE(nota.Test(8));
}

TEST(CpuSetTest, IntersectsAndContainsAll) {
  CpuSet a = CpuSet::FirstN(4);
  CpuSet b;
  b.Set(3);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.ContainsAll(b));
  EXPECT_FALSE(b.ContainsAll(a));
  CpuSet c;
  c.Set(9);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(CpuSetTest, EqualityOperators) {
  CpuSet a = CpuSet::FirstN(5);
  CpuSet b = CpuSet::FirstN(5);
  EXPECT_EQ(a, b);
  b.Set(63);
  EXPECT_NE(a, b);
  a.Set(63);
  EXPECT_EQ(a, b);
}

TEST(CpuSetTest, LessThanIsAStrictTotalOrder) {
  // The word compared as an unsigned number: total (usable as a map key)
  // but not subset-based.
  CpuSet empty;
  CpuSet low = CpuSet::Single(0);
  CpuSet high = CpuSet::Single(63);  // The word's top bit: no sign flip.
  EXPECT_TRUE(empty < low);
  EXPECT_TRUE(empty < high);
  EXPECT_TRUE(low < high);
  EXPECT_FALSE(high < low);
  EXPECT_FALSE(low < low);
  EXPECT_FALSE(low < empty);
  CpuSet pair = CpuSet::Single(1);
  pair.Set(62);
  EXPECT_TRUE(pair < high);  // Not a subset relation: {1, 62} < {63}.
  // Distinct sets compare in exactly one direction.
  CpuSet a = CpuSet::FirstN(3);
  CpuSet b = CpuSet::Single(2);
  EXPECT_NE(a < b, b < a);
  EXPECT_TRUE((a < b) || (b < a));
}

TEST(CpuSetTest, CompoundAssignment) {
  CpuSet a = CpuSet::FirstN(4);
  CpuSet b = CpuSet::Single(10);
  a |= b;
  EXPECT_TRUE(a.Test(10));
  a &= b;
  EXPECT_EQ(a.Count(), 1);
}

TEST(CpuSetTest, ToStringRanges) {
  CpuSet s;
  for (int i = 0; i <= 3; ++i) {
    s.Set(i);
  }
  s.Set(8);
  s.Set(10);
  s.Set(11);
  EXPECT_EQ(s.ToString(), "0-3,8,10-11");
  EXPECT_EQ(CpuSet{}.ToString(), "(empty)");
}

TEST(CpuSetTest, GtestPrintsTheCpuList) {
  CpuSet s = CpuSet::FirstN(4);
  s.Set(8);
  EXPECT_EQ(::testing::PrintToString(s), "0-3,8");
}

TEST(CpuSetTest, RandomizedAgainstStdSet) {
  Rng rng(123);
  CpuSet s;
  std::set<int> mirror;
  for (int i = 0; i < 2000; ++i) {
    int cpu = static_cast<int>(rng.NextBelow(kMaxCpus));
    if (rng.NextBool(0.5)) {
      s.Set(cpu);
      mirror.insert(cpu);
    } else {
      s.Clear(cpu);
      mirror.erase(cpu);
    }
    ASSERT_EQ(s.Count(), static_cast<int>(mirror.size()));
    ASSERT_EQ(s.First(), mirror.empty() ? kInvalidCpu : *mirror.begin());
  }
  std::vector<int> iterated;
  for (CpuId c : s) {
    iterated.push_back(c);
  }
  EXPECT_EQ(iterated, std::vector<int>(mirror.begin(), mirror.end()));
}

}  // namespace
}  // namespace wcores
