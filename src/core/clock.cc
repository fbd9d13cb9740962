#include "src/core/clock.h"

#include <time.h>

#include <algorithm>
#include <vector>

namespace lmb {

Nanos WallClock::now() const {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

Nanos measure_clock_overhead(const Clock& clock, int samples) {
  Nanos best = kSecond;
  for (int i = 0; i < samples; ++i) {
    Nanos t0 = clock.now();
    Nanos t1 = clock.now();
    best = std::min(best, t1 - t0);
  }
  return std::max<Nanos>(best, 0);
}

Nanos measure_clock_overhead_robust(const Clock& clock, int samples, int rounds) {
  rounds = std::max(rounds, 1);
  std::vector<Nanos> minima;
  minima.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    minima.push_back(measure_clock_overhead(clock, samples));
  }
  std::sort(minima.begin(), minima.end());
  return minima[minima.size() / 2];
}

Nanos WallClock::overhead_ns() const {
  // One probe per process; all WallClock instances are interchangeable.
  static const Nanos overhead = measure_clock_overhead_robust(WallClock{});
  return overhead;
}

const WallClock& WallClock::instance() {
  static const WallClock clock;
  return clock;
}

ClockResolution probe_resolution(const Clock& clock, int samples) {
  ClockResolution res;
  res.tick = kSecond;  // pessimistic until observed

  std::vector<Nanos> deltas;
  deltas.reserve(static_cast<size_t>(samples));
  Nanos prev = clock.now();
  for (int i = 0; i < samples; ++i) {
    Nanos cur = clock.now();
    deltas.push_back(cur - prev);
    if (cur > prev) {
      res.tick = std::min(res.tick, cur - prev);
    }
    prev = cur;
  }
  if (res.tick == kSecond) {
    // The clock never advanced during the probe window; treat each full probe
    // as one tick so callers still get a usable (very coarse) bound.
    res.tick = kSecond;
  }

  // Median back-to-back read cost.  Zero deltas mean reads are cheaper than
  // the tick; report the tick-free median as overhead.
  std::sort(deltas.begin(), deltas.end());
  res.read_overhead = deltas[deltas.size() / 2];
  return res;
}

}  // namespace lmb
