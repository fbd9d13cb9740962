#include "src/core/mhz.h"

#include <gtest/gtest.h>

namespace lmb {
namespace {

TEST(MhzTest, DependentAddsProduceNonZeroValue) {
  unsigned long v1 = run_dependent_adds(10);
  unsigned long v2 = run_dependent_adds(10);
  EXPECT_NE(v1, 0u);
  EXPECT_EQ(v1, v2);  // deterministic
  EXPECT_NE(run_dependent_adds(11), v1);
}

TEST(MhzTest, EstimateIsPlausible) {
  CpuClock clock = estimate_cpu_clock(TimingPolicy::quick());
  // Anything sold since the paper's era runs between 50 MHz and 10 GHz.
  EXPECT_GT(clock.mhz, 50.0);
  EXPECT_LT(clock.mhz, 10000.0);
  EXPECT_NEAR(clock.period_ns * clock.mhz, 1000.0, 1e-6);
}

}  // namespace
}  // namespace lmb
