// Calibration memoization: scoped keys, warm-path validation probes, drift
// fallback, and hit/miss accounting — all on deterministic scripted clocks.
#include "src/core/cal_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/timing.h"

namespace lmb {
namespace {

class ScriptedClock final : public Clock {
 public:
  Nanos now() const override { return now_; }
  void advance(Nanos d) { now_ += d; }

 private:
  Nanos now_ = 0;
};

TEST(CalibrationCacheTest, PutFindAndWallClockRoundTrip) {
  CalibrationCache cache;
  EXPECT_FALSE(cache.find("lat_x#0@1000000").has_value());
  cache.put("lat_x#0@1000000", CalEntry{4096, kMillisecond});
  auto entry = cache.find("lat_x#0@1000000");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->iterations, 4096u);
  EXPECT_EQ(entry->min_interval, kMillisecond);

  EXPECT_FALSE(cache.expected_wall_ms("lat_x").has_value());
  cache.record_wall_ms("lat_x", 123.5);
  EXPECT_DOUBLE_EQ(cache.expected_wall_ms("lat_x").value(), 123.5);
}

TEST(CalibrationScopeTest, KeysEmbedBenchOrdinalAndInterval) {
  CalibrationCache cache;
  CalibrationScope scope(&cache, "lat_pipe");
  EXPECT_EQ(CalibrationScope::current(), &scope);
  EXPECT_EQ(scope.next_key(kMillisecond), "lat_pipe#0@1000000");
  EXPECT_EQ(scope.next_key(kMillisecond), "lat_pipe#1@1000000");
  EXPECT_EQ(scope.next_key(10 * kMillisecond), "lat_pipe#2@10000000");
}

TEST(CalibrationScopeTest, ScopesNestAndUnwind) {
  EXPECT_EQ(CalibrationScope::current(), nullptr);
  CalibrationCache cache;
  {
    CalibrationScope outer(&cache, "outer");
    {
      CalibrationScope inner(&cache, "inner");
      EXPECT_EQ(CalibrationScope::current(), &inner);
      EXPECT_EQ(inner.next_key(1), "inner#0@1");
    }
    EXPECT_EQ(CalibrationScope::current(), &outer);
  }
  EXPECT_EQ(CalibrationScope::current(), nullptr);
}

TEST(MeasureCacheTest, ColdRunPopulatesWarmRunSkipsTheRamp) {
  ScriptedClock clock;
  constexpr Nanos kPerOp = 1000;
  int calls = 0;
  BenchFn fn = [&](std::uint64_t iters) {
    ++calls;
    clock.advance(static_cast<Nanos>(iters) * kPerOp);
  };
  TimingPolicy policy;
  policy.min_interval = 10 * kMillisecond;
  policy.warmup_runs = 0;

  CalibrationCache cache;
  std::uint64_t cold_iters = 0;
  {
    CalibrationScope scope(&cache, "bench");
    Measurement cold = measure(fn, policy, clock);
    EXPECT_FALSE(cold.calibration_cached);
    EXPECT_EQ(scope.hits(), 0);
    EXPECT_EQ(scope.misses(), 1);
    cold_iters = cold.iterations;
  }
  ASSERT_EQ(cache.size(), 1u);

  int cold_calls = calls;
  calls = 0;
  {
    CalibrationScope scope(&cache, "bench");
    Measurement warm = measure(fn, policy, clock);
    EXPECT_TRUE(warm.calibration_cached);
    EXPECT_EQ(warm.iterations, cold_iters);
    EXPECT_DOUBLE_EQ(warm.ns_per_op, static_cast<double>(kPerOp));
    EXPECT_EQ(scope.hits(), 1);
    EXPECT_EQ(scope.misses(), 0);
    // Warm path: validation probe (reused as rep 1) + 2 repetitions = 3
    // body calls; the cold run additionally paid the whole ramp.
    EXPECT_EQ(calls, 3);
    EXPECT_LT(calls, cold_calls);
  }
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(MeasureCacheTest, DriftedEntryFailsValidationAndRecalibrates) {
  ScriptedClock clock;
  // Entry claims 10 iterations are enough, but each op only costs 1 ns —
  // the validation probe falls far short of min_interval.
  CalibrationCache cache;
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.warmup_runs = 0;
  std::vector<std::uint64_t> probes;
  BenchFn fn = [&](std::uint64_t iters) {
    probes.push_back(iters);
    clock.advance(static_cast<Nanos>(iters));
  };
  {
    CalibrationScope scope(&cache, "bench");
    cache.put(scope.next_key(policy.min_interval), CalEntry{10, policy.min_interval});
  }
  CalibrationScope scope(&cache, "bench");
  Measurement m = measure(fn, policy, clock);
  EXPECT_FALSE(m.calibration_cached);
  EXPECT_GE(m.iterations, static_cast<std::uint64_t>(policy.min_interval));
  EXPECT_EQ(scope.hits(), 0);
  EXPECT_EQ(scope.misses(), 1);
  // The re-ramp resumes from the failed probe's rate estimate instead of
  // re-climbing from one iteration.
  ASSERT_GE(probes.size(), 2u);
  EXPECT_EQ(probes[0], 10u);  // the validation probe itself
  for (size_t i = 1; i < probes.size(); ++i) {
    EXPECT_GT(probes[i], 10u) << "ramp restarted from scratch at probe " << i;
  }
  // The fresh calibration overwrote the stale entry.
  auto refreshed = cache.find("bench#0@" + std::to_string(policy.min_interval));
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(refreshed->iterations, m.iterations);
}

TEST(MeasureCacheTest, OversizedEntryFailsValidationAndShrinks) {
  ScriptedClock clock;
  // The right count is 1,000 iterations of 1 us for a 1 ms interval; the
  // entry holds 10x that (the key names no args, so lat_mem_rd at a larger
  // --size finds a smaller size's count).  Its probe spans 12 ms.
  constexpr Nanos kPerOp = 1000;
  CalibrationCache cache;
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.warmup_runs = 0;
  std::vector<std::uint64_t> probes;
  BenchFn fn = [&](std::uint64_t iters) {
    probes.push_back(iters);
    clock.advance(static_cast<Nanos>(iters) * kPerOp);
  };
  {
    CalibrationScope scope(&cache, "bench");
    cache.put(scope.next_key(policy.min_interval), CalEntry{12'000, policy.min_interval});
  }
  CalibrationScope scope(&cache, "bench");
  Measurement m = measure(fn, policy, clock);
  EXPECT_FALSE(m.calibration_cached);
  EXPECT_EQ(scope.hits(), 0);
  EXPECT_EQ(scope.misses(), 1);
  EXPECT_DOUBLE_EQ(m.ns_per_op, static_cast<double>(kPerOp));
  // The long probe spans a full interval, so it stays repetition 1; every
  // later interval runs at the count rescaled to 1.2 x min_interval.
  ASSERT_GE(probes.size(), 2u);
  EXPECT_EQ(probes[0], 12'000u);
  for (size_t i = 1; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i], 1'200u) << "interval " << i;
  }
  EXPECT_EQ(m.iterations, 1'200u);
  auto refreshed = cache.find("bench#0@" + std::to_string(policy.min_interval));
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(refreshed->iterations, 1'200u);
}

TEST(MeasureCacheTest, OneIterationEntryStaysAHitHoweverLong) {
  ScriptedClock clock;
  // One call takes 10 ms against a 1 ms interval: the count cannot shrink.
  CalibrationCache cache;
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.warmup_runs = 0;
  BenchFn fn = [&](std::uint64_t iters) {
    clock.advance(static_cast<Nanos>(iters) * 10 * kMillisecond);
  };
  {
    CalibrationScope scope(&cache, "bench");
    cache.put(scope.next_key(policy.min_interval), CalEntry{1, policy.min_interval});
  }
  CalibrationScope scope(&cache, "bench");
  Measurement m = measure(fn, policy, clock);
  EXPECT_TRUE(m.calibration_cached);
  EXPECT_EQ(m.iterations, 1u);
  EXPECT_EQ(scope.hits(), 1);
  EXPECT_EQ(scope.misses(), 0);
}

TEST(MeasureCacheTest, PolicyIntervalChangeMissesInsteadOfReusing) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 100); };
  CalibrationCache cache;
  TimingPolicy coarse;
  coarse.min_interval = 10 * kMillisecond;
  {
    CalibrationScope scope(&cache, "bench");
    measure(fn, coarse, clock);
  }
  TimingPolicy fine;
  fine.min_interval = kMillisecond;
  CalibrationScope scope(&cache, "bench");
  Measurement m = measure(fn, fine, clock);
  // Different min_interval -> different key -> miss, never a wrong reuse.
  EXPECT_FALSE(m.calibration_cached);
  EXPECT_EQ(scope.misses(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MeasureCacheTest, NoScopeMeansNoCaching) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 100); };
  Measurement m = measure(fn, TimingPolicy::quick(), clock);
  EXPECT_FALSE(m.calibration_cached);
}

}  // namespace
}  // namespace lmb
