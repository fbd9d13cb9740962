#include "src/core/timing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "src/core/tsc_clock.h"
#include "src/core/virtual_clock.h"
#include "src/obs/trace.h"

namespace lmb {
namespace {

// A clock whose time is driven by the "benchmark body" below, so the harness
// logic can be tested deterministically.
class ScriptedClock final : public Clock {
 public:
  Nanos now() const override { return now_; }
  void advance(Nanos d) { now_ += d; }

 private:
  Nanos now_ = 0;
};

TEST(CalibrateTest, FindsIterationCountMeetingMinInterval) {
  ScriptedClock clock;
  constexpr Nanos kPerOp = 1000;  // each op "takes" 1 us of scripted time
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * kPerOp); };
  TimingPolicy policy;
  policy.min_interval = 10 * kMillisecond;
  std::uint64_t iters = calibrate(fn, policy, clock, clock.now()).iterations;
  // 10 ms / 1 us = 10,000 ops minimum.
  EXPECT_GE(iters, 10'000u);
  // The 20% overshoot plus geometric probing should not explode.
  EXPECT_LE(iters, 2'000'000u);
}

TEST(CalibrateTest, RampStepNearTheTargetDoesNotDouble) {
  // A 700 us probe against a 1 ms target: the 20% overshoot asks for
  // 1.2 ms.  A ramp that doubles every short probe would run 1.4 ms, and
  // every repetition inherits the final probe's count.
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 1000); };
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  Calibration cal = calibrate(fn, policy, clock, clock.now(), /*start_iters=*/700);
  EXPECT_GE(cal.probe_elapsed, policy.min_interval);
  EXPECT_LE(cal.probe_elapsed, 1250 * kMicrosecond);
}

TEST(CalibrateTest, RespectsMaxIterations) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t) { clock.advance(1); };  // ~zero-cost op
  TimingPolicy policy;
  policy.min_interval = kSecond;
  policy.max_iterations = 5000;
  EXPECT_EQ(calibrate(fn, policy, clock, clock.now()).iterations, 5000u);
}

TEST(MeasureTest, ReportsPerOperationTime) {
  ScriptedClock clock;
  constexpr Nanos kPerOp = 250;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * kPerOp); };
  TimingPolicy policy;
  policy.convergence = 0.0;  // paper mode: all reps always run
  policy.min_interval = kMillisecond;
  policy.repetitions = 5;
  Measurement m = measure(fn, policy, clock);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 250.0);
  EXPECT_DOUBLE_EQ(m.mean_ns_per_op, 250.0);
  EXPECT_EQ(m.repetitions, 5);
  EXPECT_FALSE(m.converged);
  EXPECT_GT(m.iterations, 0u);
}

TEST(MeasureTest, MinimumOfNoisyRepetitionsIsReported) {
  // Alternate slow/fast intervals; the headline must be the minimum
  // (§3.4: "taking the minimum result").
  ScriptedClock clock;
  std::atomic<int> rep{0};
  BenchFn fn = [&](std::uint64_t iters) {
    Nanos per_op = rep.fetch_add(1) % 2 == 0 ? 500 : 250;
    clock.advance(static_cast<Nanos>(iters) * per_op);
  };
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.repetitions = 4;
  policy.warmup_runs = 0;
  Measurement m = measure(fn, policy, clock);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 250.0);
  EXPECT_GT(m.max_ns_per_op, m.ns_per_op);
}

TEST(MeasureTest, BudgetCutsRepetitionsButKeepsAtLeastOne) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 1000); };
  TimingPolicy policy;
  policy.min_interval = 10 * kMillisecond;
  policy.repetitions = 100;
  policy.max_total = 30 * kMillisecond;  // room for calibration + ~1-2 reps
  Measurement m = measure(fn, policy, clock);
  EXPECT_GE(m.repetitions, 1);
  EXPECT_LT(m.repetitions, 100);
}

TEST(MeasureTest, EmptyBodyRejected) {
  EXPECT_THROW(measure(BenchFn{}), std::invalid_argument);
  EXPECT_THROW(measure_once_each(nullptr, 3), std::invalid_argument);
  EXPECT_THROW(measure_once_each([] {}, 0), std::invalid_argument);
}

TEST(MeasureOnceEachTest, AggregatesIndividualRuns) {
  ScriptedClock clock;
  int run = 0;
  Measurement m = measure_once_each(
      [&]() { clock.advance(++run * kMicrosecond); }, 4, clock);
  EXPECT_EQ(m.repetitions, 4);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 1000.0);            // fastest run
  EXPECT_DOUBLE_EQ(m.max_ns_per_op, 4000.0);        // slowest run
  EXPECT_DOUBLE_EQ(m.mean_ns_per_op, 2500.0);
}

// measure_once_each is traced like measure(): one timing/measure span
// encloses its one-shot repetitions and carries measure()'s args.
TEST(MeasureOnceEachTest, RepsLieInsideOneMeasureSpan) {
  obs::TraceSink sink;
  {
    obs::ObsScope scope(&sink, /*counters=*/false, "once");
    measure_once_each([] {}, 5);
  }
  std::vector<obs::TraceEvent> spans;
  std::vector<obs::TraceEvent> reps;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.cat == "timing" && e.name == "measure") {
      spans.push_back(e);
    } else if (e.cat == "timing" && e.name == "rep") {
      reps.push_back(e);
    }
  }
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(reps.size(), 5u);
  const obs::TraceEvent& span = spans[0];
  for (const obs::TraceEvent& rep : reps) {
    EXPECT_GE(rep.ts, span.ts);
    EXPECT_LE(rep.ts + rep.dur, span.ts + span.dur);
  }
  std::map<std::string, std::string> args(span.args.begin(), span.args.end());
  EXPECT_EQ(args["iterations"], "1");
  EXPECT_EQ(args["repetitions"], "5");
  EXPECT_EQ(args["converged"], "false");
  EXPECT_EQ(args["calibration_cached"], "false");
  EXPECT_EQ(args.count("ns_per_op"), 1u);
}

TEST(MbPerSecTest, Conversions) {
  // 1 MiB moved in 1 second = 1 MB/s.
  EXPECT_NEAR(mb_per_sec(1024.0 * 1024.0, 1e9), 1.0, 1e-9);
  // 64 KB in 1 ms = 62.5 MB/s.
  EXPECT_NEAR(mb_per_sec(64.0 * 1024.0, 1e6), 62.5, 1e-9);
  EXPECT_DOUBLE_EQ(mb_per_sec(100.0, 0.0), 0.0);
}

TEST(MeasurementTest, DerivedUnits) {
  Measurement m;
  m.ns_per_op = 2'500'000.0;
  EXPECT_DOUBLE_EQ(m.us_per_op(), 2500.0);
  EXPECT_DOUBLE_EQ(m.ms_per_op(), 2.5);
  EXPECT_DOUBLE_EQ(m.ops_per_sec(), 400.0);
}

TEST(TimingPolicyTest, StandardIntervalSpansHundredClockTicks) {
  // DESIGN.md: a timed interval lasts at least max(100 x tick, 1 ms).  On a
  // clock whose tick exceeds 1% of the default interval, the default is too
  // short for it; fail loudly rather than time against it.
  const Nanos interval = TimingPolicy::standard().min_interval;
  ClockResolution wall = probe_resolution(WallClock::instance());
  EXPECT_LE(100 * wall.tick, interval) << "wall tick " << wall.tick << " ns";
  if (TscClock::supported()) {
    ClockResolution tsc = probe_resolution(TscClock::instance());
    EXPECT_LE(100 * tsc.tick, interval) << "tsc tick " << tsc.tick << " ns";
  }
}

// ---------------------------------------------------------------------------
// Adaptive engine: early stop, overhead correction, budgeted calibration,
// and calibration-probe reuse — all on deterministic scripted/virtual clocks.

TEST(EarlyStopTest, NoiseFreeSampleConvergesAtTheFloor) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 400); };
  TimingPolicy policy;  // standard: convergence 0.05, floor 3, cap 11
  policy.min_interval = kMillisecond;
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.repetitions, policy.min_repetitions);
  EXPECT_TRUE(m.converged);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 400.0);
}

TEST(EarlyStopTest, NoisySampleRunsToTheCap) {
  // Two of every three intervals run 2x slow, so the running median stays
  // pinned at the slow value while the minimum sees the fast one —
  // (median - min) never approaches 2% of min and early stop must not fire.
  ScriptedClock clock;
  int rep = 0;
  BenchFn fn = [&](std::uint64_t iters) {
    Nanos per_op = rep++ % 3 == 0 ? 400 : 800;
    clock.advance(static_cast<Nanos>(iters) * per_op);
  };
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.repetitions = 9;
  policy.warmup_runs = 0;
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.repetitions, 9);
  EXPECT_FALSE(m.converged);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 400.0);
}

TEST(EarlyStopTest, ConvergenceZeroRestoresFixedPolicy) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 400); };
  TimingPolicy policy;
  policy.convergence = 0.0;
  policy.min_interval = kMillisecond;
  policy.repetitions = 7;
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.repetitions, 7);
  EXPECT_FALSE(m.converged);
}

TEST(ClockOverheadTest, OverheadIsSubtractedFromEachInterval) {
  // With read cost r, one timed interval's raw span carries one extra clock
  // read; the correction must recover the exact scripted per-op cost.
  VirtualClock clock;
  clock.set_read_cost(500);
  constexpr Nanos kPerOp = 1000;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * kPerOp); };
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.clock_overhead_ns, 500);
  EXPECT_DOUBLE_EQ(m.ns_per_op, static_cast<double>(kPerOp));
}

TEST(ClockOverheadTest, CorrectionNeverProducesNegativeIntervals) {
  // A clock whose claimed overhead exceeds any real interval: corrected
  // intervals must clamp at zero, not go negative.
  class OverclaimingClock final : public Clock {
   public:
    Nanos now() const override { return now_ += 10; }
    Nanos overhead_ns() const override { return 1000; }

   private:
    mutable Nanos now_ = 0;
  };
  OverclaimingClock clock;
  Measurement m = measure([](std::uint64_t) {}, TimingPolicy::quick(), clock);
  EXPECT_GE(m.ns_per_op, 0.0);
  for (double v : m.sample.values()) {
    EXPECT_GE(v, 0.0);
  }
  Measurement once = measure_once_each([] {}, 3, clock);
  EXPECT_GE(once.ns_per_op, 0.0);
}

TEST(CalibrateBudgetTest, SlowBodyBailsToBestKnownCount) {
  // The body costs a fixed 1 ms per probe regardless of the iteration
  // count, so it can never reach min_interval; without the budget the ramp
  // would grind through ~30 doublings.  With max_total = 5 ms it must bail
  // after a handful of probes.
  ScriptedClock clock;
  int probes = 0;
  BenchFn fn = [&](std::uint64_t) {
    ++probes;
    clock.advance(kMillisecond);
  };
  TimingPolicy policy;
  policy.min_interval = 10 * kMillisecond;
  policy.max_total = 5 * kMillisecond;
  Calibration cal = calibrate(fn, policy, clock, clock.now());
  EXPECT_TRUE(cal.budget_exhausted);
  EXPECT_LE(probes, 7);
  EXPECT_GE(cal.iterations, 1u);
  // And measure() still times at least one repetition afterwards.
  Measurement m = measure(fn, policy, clock);
  EXPECT_GE(m.repetitions, 1);
}

TEST(CalibrateBudgetTest, FastBodyIsUnaffectedByBudget) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 100); };
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  Calibration cal = calibrate(fn, policy, clock, clock.now());
  EXPECT_FALSE(cal.budget_exhausted);
  EXPECT_GE(cal.probe_elapsed, policy.min_interval);
}

TEST(CalibrationReuseTest, FinalProbeSeedsTheSample) {
  // The last calibration probe spans a full interval; it must be kept as
  // the first repetition instead of re-timed.  Count the full-length
  // intervals the body executes: floor-of-3 early stop should need exactly
  // 3 (1 reused probe + 2 repetitions), not 4.
  ScriptedClock clock;
  int full_intervals = 0;
  TimingPolicy policy;
  policy.min_interval = kMillisecond;
  policy.warmup_runs = 0;
  BenchFn fn = [&](std::uint64_t iters) {
    if (static_cast<Nanos>(iters) * 200 >= policy.min_interval) {
      ++full_intervals;
    }
    clock.advance(static_cast<Nanos>(iters) * 200);
  };
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.repetitions, 3);
  EXPECT_EQ(full_intervals, 3);
  EXPECT_DOUBLE_EQ(m.ns_per_op, 200.0);
}

// ---------------------------------------------------------------------------
// Clock-source scope.

TEST(MeasureScopeTest, SelectedClockDefaultsToWallAndFollowsScope) {
  EXPECT_EQ(&selected_clock(), static_cast<const Clock*>(&WallClock::instance()));
  ScriptedClock outer;
  {
    MeasureScope scope(outer);
    EXPECT_EQ(&selected_clock(), static_cast<const Clock*>(&outer));
    ScriptedClock inner;
    {
      MeasureScope nested(inner);
      EXPECT_EQ(&selected_clock(), static_cast<const Clock*>(&inner));
    }
    EXPECT_EQ(&selected_clock(), static_cast<const Clock*>(&outer));
  }
  EXPECT_EQ(&selected_clock(), static_cast<const Clock*>(&WallClock::instance()));
}

TEST(MeasureScopeTest, MeasurementRecordsTheClockSource) {
  ScriptedClock clock;
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 100); };
  TimingPolicy policy = TimingPolicy::quick();
  Measurement m = measure(fn, policy, clock);
  EXPECT_EQ(m.clock_source, "custom");  // ScriptedClock never overrides name()

  VirtualClock vclock;
  BenchFn vfn = [&](std::uint64_t iters) { vclock.advance(static_cast<Nanos>(iters) * 100); };
  EXPECT_EQ(measure(vfn, policy, vclock).clock_source, "virtual");
}

// Property sweep: measured per-op time equals the scripted cost for a range
// of costs and policies.
class TimingPropertyTest : public ::testing::TestWithParam<Nanos> {};

TEST_P(TimingPropertyTest, RecoversScriptedCost) {
  ScriptedClock clock;
  const Nanos per_op = GetParam();
  BenchFn fn = [&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * per_op); };
  TimingPolicy policy = TimingPolicy::quick();
  Measurement m = measure(fn, policy, clock);
  EXPECT_DOUBLE_EQ(m.ns_per_op, static_cast<double>(per_op));
}

INSTANTIATE_TEST_SUITE_P(Costs, TimingPropertyTest,
                         ::testing::Values<Nanos>(1, 7, 100, 999, 12345, 1'000'000));

}  // namespace
}  // namespace lmb
