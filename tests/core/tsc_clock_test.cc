#include "src/core/tsc_clock.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace lmb {
namespace {

// Sets LMBPP_NO_TSC for one test body and restores on destruction.
class NoTscGuard {
 public:
  NoTscGuard() { ::setenv("LMBPP_NO_TSC", "1", 1); }
  ~NoTscGuard() { ::unsetenv("LMBPP_NO_TSC"); }
};

// Exits with the number of the first broken expectation: 1 when
// LMBPP_NO_TSC does not force wall, 2 when it still pays the calibration,
// 3 when the TSC is not usable once the variable is unset.  Under
// LMBPP_NO_TSC, calibration() reports a calibration that already ran
// without starting one, so check 2 sees the eager-probe bug.
[[noreturn]] void no_tsc_env_check() {
  ::setenv("LMBPP_NO_TSC", "1", 1);
  if (select_clock(ClockSource::kAuto).source != "wall") {
    std::exit(1);
  }
  if (TscClock::calibration().windows != 0) {
    std::exit(2);
  }
  ::unsetenv("LMBPP_NO_TSC");
  if (TscClock::supported() && (select_clock(ClockSource::kAuto).source != "tsc" ||
                                TscClock::calibration().ticks_per_ns <= 0)) {
    std::exit(3);
  }
  std::exit(0);
}

// The check needs a process in which nothing has calibrated yet.  The
// "threadsafe" death-test style re-executes this binary and runs only this
// test in the child, so the outcome does not depend on which tests ran
// before, on --gtest_repeat or on --gtest_shuffle.
TEST(TscClockTest, NoTscEnvSkipsTheCalibration) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(no_tsc_env_check(), ::testing::ExitedWithCode(0), "")
      << "1: LMBPP_NO_TSC did not force wall; 2: it still paid the calibration; "
         "3: the TSC did not become usable once unset";
}

TEST(ClockSourceTest, NamesRoundTrip) {
  EXPECT_STREQ(clock_source_name(ClockSource::kAuto), "auto");
  EXPECT_STREQ(clock_source_name(ClockSource::kTsc), "tsc");
  EXPECT_STREQ(clock_source_name(ClockSource::kWall), "wall");
  EXPECT_EQ(parse_clock_source("auto"), ClockSource::kAuto);
  EXPECT_EQ(parse_clock_source("tsc"), ClockSource::kTsc);
  EXPECT_EQ(parse_clock_source("wall"), ClockSource::kWall);
}

TEST(ClockSourceTest, ParseRejectsUnknownText) {
  EXPECT_THROW(parse_clock_source("hpet"), std::invalid_argument);
  EXPECT_THROW(parse_clock_source(""), std::invalid_argument);
  EXPECT_THROW(parse_clock_source("TSC"), std::invalid_argument);
}

TEST(SelectClockTest, WallIsAlwaysHonored) {
  SelectedClock sel = select_clock(ClockSource::kWall);
  ASSERT_NE(sel.clock, nullptr);
  EXPECT_EQ(sel.source, "wall");
  EXPECT_EQ(sel.clock->name(), "wall");
  EXPECT_FALSE(sel.fell_back);
  EXPECT_TRUE(sel.fallback_reason.empty());
}

TEST(SelectClockTest, SourceAlwaysMatchesClockName) {
  for (ClockSource req : {ClockSource::kAuto, ClockSource::kTsc, ClockSource::kWall}) {
    SelectedClock sel = select_clock(req);
    ASSERT_NE(sel.clock, nullptr);
    EXPECT_TRUE(sel.source == "tsc" || sel.source == "wall") << sel.source;
    EXPECT_EQ(sel.clock->name(), sel.source);
  }
}

TEST(SelectClockTest, EnvKillSwitchForcesExplicitFallback) {
  NoTscGuard guard;
  EXPECT_FALSE(TscClock::supported());

  // auto quietly resolves to wall; an explicit tsc request must say why it
  // was not honored.
  SelectedClock auto_sel = select_clock(ClockSource::kAuto);
  EXPECT_EQ(auto_sel.source, "wall");
  EXPECT_FALSE(auto_sel.fell_back);

  SelectedClock tsc_sel = select_clock(ClockSource::kTsc);
  EXPECT_EQ(tsc_sel.source, "wall");
  EXPECT_TRUE(tsc_sel.fell_back);
  EXPECT_NE(tsc_sel.fallback_reason.find("LMBPP_NO_TSC"), std::string::npos)
      << tsc_sel.fallback_reason;
}

TEST(TscClockTest, InstanceThrowsWhenDisabled) {
  NoTscGuard guard;
  EXPECT_THROW(TscClock::instance(), std::runtime_error);
}

TEST(TscClockTest, MonotonicNonDecreasing) {
  if (!TscClock::supported()) {
    GTEST_SKIP() << "no invariant TSC on this host";
  }
  const TscClock& clock = TscClock::instance();
  Nanos prev = clock.now();
  for (int i = 0; i < 10'000; ++i) {
    Nanos cur = clock.now();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(TscClockTest, CalibrationLooksSane) {
  if (!TscClock::supported()) {
    GTEST_SKIP() << "no invariant TSC on this host";
  }
  const TscCalibration& cal = TscClock::calibration();
  // Any TSC of the last two decades ticks somewhere between 0.5 and 6 GHz.
  EXPECT_GT(cal.ticks_per_ns, 0.5);
  EXPECT_LT(cal.ticks_per_ns, 6.0);
  EXPECT_NEAR(cal.tsc_mhz, cal.ticks_per_ns * 1000.0, 1e-6);
  EXPECT_GT(cal.windows, 0);
  EXPECT_GT(cal.window_ns, 0);
  EXPECT_GT(cal.error_ppm, 0.0);
}

TEST(TscClockTest, CalibrationBusyWaitsAtMostTwoMilliseconds) {
  if (!TscClock::supported()) {
    GTEST_SKIP() << "no invariant TSC on this host";
  }
  const TscCalibration& cal = TscClock::calibration();
  EXPECT_LE(cal.windows * cal.window_ns, 2 * kMillisecond)
      << cal.windows << " x " << cal.window_ns << " ns";
}

// A wall stamp between two TSC reads, the tightest of 16 tries: preemption
// between the reads widens a bracket, and the widest are dropped.
struct BracketedStamp {
  Nanos wall = 0;
  Nanos tsc_before = 0;
  Nanos tsc_after = 0;

  Nanos width() const { return tsc_after - tsc_before; }
  double tsc_mid() const { return static_cast<double>(tsc_before) + width() / 2.0; }
};

BracketedStamp bracketed_stamp(const TscClock& tsc, const WallClock& wall) {
  BracketedStamp best;
  for (int i = 0; i < 16; ++i) {
    BracketedStamp s;
    s.tsc_before = tsc.now();
    s.wall = wall.now();
    s.tsc_after = tsc.now();
    if (i == 0 || s.width() < best.width()) {
      best = s;
    }
  }
  return best;
}

TEST(TscClockTest, AgreesWithWallClockOverABusyWindow) {
  if (!TscClock::supported()) {
    GTEST_SKIP() << "no invariant TSC on this host";
  }
  const TscClock& tsc = TscClock::instance();
  const WallClock& wall = WallClock::instance();

  BracketedStamp start = bracketed_stamp(tsc, wall);
  while (wall.now() - start.wall < 20 * kMillisecond) {
    // busy-wait: sleeping could park the core and is exactly the case the
    // invariant-TSC gate exists to keep honest anyway
  }
  BracketedStamp end = bracketed_stamp(tsc, wall);
  double wall_elapsed = static_cast<double>(end.wall - start.wall);
  double tsc_elapsed = end.tsc_mid() - start.tsc_mid();

  // The calibration's bound is tens of ppm, and each bracket pins its end
  // to tens of ns of 20 ms; a preemption only lengthens the window.
  EXPECT_NEAR(tsc_elapsed / wall_elapsed, 1.0, 1e-4)
      << "tsc=" << tsc_elapsed << " wall=" << wall_elapsed
      << " calibration bound=" << TscClock::calibration().error_ppm << " ppm";
}

TEST(TscClockTest, OverheadIsSmallAndNonNegative) {
  if (!TscClock::supported()) {
    GTEST_SKIP() << "no invariant TSC on this host";
  }
  Nanos overhead = TscClock::instance().overhead_ns();
  EXPECT_GE(overhead, 0);
  // A serialized RDTSCP is tens of ns at the very worst.
  EXPECT_LT(overhead, kMicrosecond);
}

TEST(TscClockTest, CrossCheckHandlesBadInput) {
  EXPECT_EQ(TscClock::cross_check_cpu_mhz(0.0), 0.0);
  EXPECT_EQ(TscClock::cross_check_cpu_mhz(-1.0), 0.0);
  if (TscClock::supported()) {
    // TSC and core base clock are within an order of magnitude of each other
    // on any real machine.
    double ratio = TscClock::cross_check_cpu_mhz(TscClock::calibration().tsc_mhz);
    EXPECT_NEAR(ratio, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace lmb
