#include "src/simkit/exact.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace wcores {
namespace {

// NotifyLoad's trace callback and the trace hash's -0.0 fold both rely on
// the two zeros comparing equal.
TEST(ExactlyEqualTest, SignedZerosAreEqual) {
  EXPECT_TRUE(ExactlyEqual(0.0, -0.0));
  EXPECT_TRUE(ExactlyEqual(-0.0, 0.0));
}

TEST(ExactlyEqualTest, OneUlpApartDiffers) {
  EXPECT_TRUE(ExactlyEqual(1.0, 1.0));
  EXPECT_FALSE(ExactlyEqual(1.0, std::nextafter(1.0, 2.0)));
}

TEST(ExactlyEqualTest, NanEqualsNothing) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ExactlyEqual(nan, nan));
  EXPECT_FALSE(ExactlyEqual(nan, 0.0));
}

}  // namespace
}  // namespace wcores
