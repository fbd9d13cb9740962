#include "src/core/clock.h"

#include <gtest/gtest.h>

#include "src/core/virtual_clock.h"

namespace lmb {
namespace {

TEST(WallClockTest, IsMonotonicNonDecreasing) {
  const WallClock& clock = WallClock::instance();
  Nanos prev = clock.now();
  for (int i = 0; i < 1000; ++i) {
    Nanos cur = clock.now();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(WallClockTest, AdvancesOverRealTime) {
  const WallClock& clock = WallClock::instance();
  Nanos start = clock.now();
  // Burn a little CPU; the clock must advance.
  volatile double x = 1.0;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 1.0000001;
  }
  EXPECT_GT(clock.now(), start);
}

TEST(ProbeResolutionTest, WallClockResolutionIsSane) {
  ClockResolution res = probe_resolution(WallClock::instance(), 2000);
  EXPECT_GT(res.tick, 0);
  // A modern CLOCK_MONOTONIC resolves far better than 1 ms.
  EXPECT_LT(res.tick, kMillisecond);
  EXPECT_GE(res.read_overhead, 0);
}

TEST(ProbeResolutionTest, CoarseFakeClockIsDetected) {
  // A clock that jumps 10 ms per observed tick (the paper's problem case).
  class CoarseClock final : public Clock {
   public:
    Nanos now() const override {
      ++reads_;
      return (reads_ / 5) * (10 * kMillisecond);  // advances every 5th read
    }

   private:
    mutable Nanos reads_ = 0;
  };
  CoarseClock coarse;
  ClockResolution res = probe_resolution(coarse, 100);
  EXPECT_EQ(res.tick, 10 * kMillisecond);
}

TEST(ClockOverheadTest, RobustEstimatorIsNonNegativeAndStable) {
  Nanos a = measure_clock_overhead_robust(WallClock::instance(), 256, 3);
  Nanos b = measure_clock_overhead_robust(WallClock::instance(), 256, 3);
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  // Median-of-round-minima on the same clock should land in the same ballpark
  // (generous bound: both are a handful of ns; CI jitter is the enemy here).
  EXPECT_LT(a, kMicrosecond);
  EXPECT_LT(b, kMicrosecond);
}

TEST(ClockOverheadTest, RobustEstimatorSeesVirtualClockAsFree) {
  VirtualClock clock;
  EXPECT_EQ(measure_clock_overhead_robust(clock, 64, 3), 0);
}

TEST(StopWatchTest, MeasuresVirtualTime) {
  VirtualClock clock;
  StopWatch sw(clock);
  EXPECT_EQ(sw.elapsed(), 0);
  clock.advance(5 * kMicrosecond);
  EXPECT_EQ(sw.elapsed(), 5 * kMicrosecond);
  sw.reset();
  EXPECT_EQ(sw.elapsed(), 0);
  clock.advance(7);
  EXPECT_EQ(sw.elapsed(), 7);
}

}  // namespace
}  // namespace lmb
