#include "src/core/tsc_clock.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#define LMBPP_HAVE_TSC 1
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace lmb {

namespace {

bool tsc_env_disabled() {
  const char* env = std::getenv("LMBPP_NO_TSC");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#if defined(LMBPP_HAVE_TSC)

// CPUID probes: invariant TSC is advertised in extended leaf 0x80000007
// (EDX bit 8, "TscInvariant"); RDTSCP in leaf 0x80000001 (EDX bit 27).
bool cpu_has_invariant_tsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 || eax < 0x80000007u) {
    return false;
  }
  if (__get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (edx & (1u << 8)) != 0;
}

bool cpu_has_rdtscp() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000001u, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (edx & (1u << 27)) != 0;
}

// Serialized TSC read: RDTSCP waits for all prior loads to retire, and the
// trailing LFENCE keeps subsequent instructions from starting before the
// read completes — so a (read, work, read) frame brackets exactly `work`.
inline std::uint64_t read_tsc_serialized() {
  unsigned aux = 0;
  std::uint64_t ticks = __rdtscp(&aux);
  _mm_lfence();
  return ticks;
}

// A CLOCK_MONOTONIC stamp bracketed by two serialized TSC reads: the TSC
// value at the instant of the stamp lies in [before, after].
struct Bracket {
  Nanos wall = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;

  std::uint64_t width() const { return after - before; }
};

// Tightest of 16 back-to-back brackets.  An interrupt or a preemption can
// only widen a bracket, so the narrowest one pins its stamp best.
Bracket tightest_bracket(const WallClock& wall) {
  constexpr int kTries = 16;
  Bracket best;
  for (int i = 0; i < kTries; ++i) {
    Bracket b;
    b.before = read_tsc_serialized();
    b.wall = wall.now();
    b.after = read_tsc_serialized();
    if (i == 0 || b.width() < best.width()) {
      best = b;
    }
  }
  return best;
}

// TSC ticks between the midpoints of two brackets, computed from small
// differences: absolute tick counts outgrow double's exact integers.
double ticks_between(const Bracket& a, const Bracket& b) {
  return static_cast<double>(static_cast<std::int64_t>(b.before - a.before)) +
         (static_cast<double>(b.width()) - static_cast<double>(a.width())) / 2.0;
}

// How far a bracket's midpoint may be from the TSC value at its stamp, in
// nanoseconds: half the bracket plus CLOCK_MONOTONIC's 1 ns resolution.
double uncertainty_ns(const Bracket& b, double ticks_per_ns) {
  return static_cast<double>(b.width()) / 2.0 / ticks_per_ns + 1.0;
}

// The calibration busy-waits kSegments segments of kSegment each: 1 ms.
constexpr int kSegments = 4;
constexpr Nanos kSegment = 250 * kMicrosecond;

// A bracketed pair at the start and after each segment.  The rate comes
// from the two end pairs, so a preemption during the wait lengthens the
// span but cannot bias it.  Every intermediate pair must lie on the same
// line within the brackets' uncertainty; otherwise the TSC and
// CLOCK_MONOTONIC did not advance in proportion (a TSC jump, a change in
// the clock's rate) and the calibration is rejected: ticks_per_ns stays 0.
TscCalibration calibrate() {
  const WallClock& wall = WallClock::instance();
  std::array<Bracket, kSegments + 1> pairs;
  pairs[0] = tightest_bracket(wall);
  for (int i = 1; i <= kSegments; ++i) {
    while (wall.now() - pairs[0].wall < i * kSegment) {
    }
    pairs[i] = tightest_bracket(wall);
  }

  const Bracket& first = pairs.front();
  const Bracket& last = pairs.back();
  const double span_ns = static_cast<double>(last.wall - first.wall);
  const double rate = ticks_between(first, last) / span_ns;
  if (!(rate > 0)) {
    return {};
  }
  const double end_slack_ns = uncertainty_ns(first, rate) + uncertainty_ns(last, rate);
  for (int i = 1; i < kSegments; ++i) {
    const Bracket& p = pairs[i];
    double residual_ns = ticks_between(first, p) / rate - static_cast<double>(p.wall - first.wall);
    if (std::abs(residual_ns) > end_slack_ns + uncertainty_ns(p, rate)) {
      return {};
    }
  }
  TscCalibration cal;
  cal.ticks_per_ns = rate;
  cal.tsc_mhz = rate * 1e3;
  cal.error_ppm = end_slack_ns / span_ns * 1e6;
  return cal;
}

// Set when the calibration starts, so calibration() can report one that
// already ran without starting one on an unsupported clock.
std::atomic<bool> g_calibration_ran{false};

struct TscState {
  TscCalibration cal;
  std::uint64_t epoch_ticks = 0;
};

// Calibrates once per process, on first use.  A rejected calibration
// leaves ticks_per_ns at 0, and select_clock() then falls back to wall.
const TscState& tsc_state() {
  static const TscState state = [] {
    g_calibration_ran.store(true, std::memory_order_relaxed);
    TscState s;
    s.cal = calibrate();
    s.cal.windows = kSegments;
    s.cal.window_ns = kSegment;
    s.epoch_ticks = read_tsc_serialized();
    return s;
  }();
  return state;
}

#endif  // LMBPP_HAVE_TSC

}  // namespace

#if defined(LMBPP_HAVE_TSC)

bool TscClock::supported() {
  // The env gate is re-read so a test can flip LMBPP_NO_TSC after the probe.
  if (tsc_env_disabled()) {
    return false;
  }
  static const bool probed = cpu_has_invariant_tsc() && cpu_has_rdtscp();
  return probed;
}

Nanos TscClock::now() const {
  const TscState& s = tsc_state();
  std::uint64_t ticks = read_tsc_serialized() - s.epoch_ticks;
  return static_cast<Nanos>(static_cast<double>(ticks) / s.cal.ticks_per_ns);
}

#else  // !LMBPP_HAVE_TSC

bool TscClock::supported() { return false; }

Nanos TscClock::now() const { return WallClock::instance().now(); }

#endif  // LMBPP_HAVE_TSC

Nanos TscClock::overhead_ns() const {
  static const Nanos overhead = measure_clock_overhead_robust(TscClock::instance());
  return overhead;
}

const TscClock& TscClock::instance() {
  if (!supported()) {
    throw std::runtime_error("TscClock: no invariant TSC on this host (or LMBPP_NO_TSC set)");
  }
  if (calibration().ticks_per_ns <= 0) {
    throw std::runtime_error("TscClock: calibration against CLOCK_MONOTONIC failed");
  }
  static const TscClock clock;
  return clock;
}

const TscCalibration& TscClock::calibration() {
#if defined(LMBPP_HAVE_TSC)
  if (g_calibration_ran.load(std::memory_order_relaxed) || supported()) {
    return tsc_state().cal;
  }
#endif
  static const TscCalibration none;
  return none;
}

double TscClock::cross_check_cpu_mhz(double cpu_mhz) {
  if (!supported() || cpu_mhz <= 0) {
    return 0.0;
  }
  return calibration().tsc_mhz / cpu_mhz;
}

const char* clock_source_name(ClockSource source) {
  switch (source) {
    case ClockSource::kAuto:
      return "auto";
    case ClockSource::kTsc:
      return "tsc";
    case ClockSource::kWall:
      return "wall";
  }
  return "?";
}

ClockSource parse_clock_source(const std::string& text) {
  if (text == "auto") return ClockSource::kAuto;
  if (text == "tsc") return ClockSource::kTsc;
  if (text == "wall") return ClockSource::kWall;
  throw std::invalid_argument("unknown clock source '" + text + "' (expected auto|tsc|wall)");
}

SelectedClock select_clock(ClockSource requested) {
  SelectedClock selected;
  if (requested != ClockSource::kWall && TscClock::supported() &&
      TscClock::calibration().ticks_per_ns > 0) {
    selected.clock = &TscClock::instance();
    selected.source = "tsc";
    return selected;
  }
  selected.clock = &WallClock::instance();
  selected.source = "wall";
  if (requested == ClockSource::kTsc) {
    selected.fell_back = true;
    selected.fallback_reason =
        tsc_env_disabled()      ? "LMBPP_NO_TSC is set"
        : TscClock::supported() ? "TSC calibration failed: it did not advance in step with "
                                  "CLOCK_MONOTONIC"
                                : "no invariant TSC on this host (CPUID 0x80000007 EDX.8)";
  }
  return selected;
}

}  // namespace lmb
