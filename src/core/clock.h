// Monotonic time sources and clock-resolution probing.
//
// lmbench's central timing problem (paper §3.4) is that the system clock may
// be coarse relative to the operations being measured.  Everything in the
// harness is therefore written against the abstract `Clock` interface so the
// calibration logic can be exercised in tests with deliberately coarse or
// scripted fake clocks.
#ifndef LMBENCHPP_SRC_CORE_CLOCK_H_
#define LMBENCHPP_SRC_CORE_CLOCK_H_

#include <cstdint>
#include <string>

namespace lmb {

// Nanoseconds.  Signed so durations and differences are representable.
using Nanos = std::int64_t;

inline constexpr Nanos kMicrosecond = 1'000;
inline constexpr Nanos kMillisecond = 1'000'000;
inline constexpr Nanos kSecond = 1'000'000'000;

// A monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;

  // Current time in nanoseconds since an arbitrary epoch.  Monotonic
  // non-decreasing for any given instance.
  virtual Nanos now() const = 0;

  // Cost of one now() read, subtracted from every timed interval by the
  // harness (nanoBench-style overhead correction).  The default is 0 —
  // correct for fake clocks whose reads are free; real clocks override it
  // with a measured value.
  virtual Nanos overhead_ns() const { return 0; }

  // Stable short identifier of the time source, recorded per measurement as
  // `clock_source` ("wall", "tsc", ...).  Fakes and scripted clocks report
  // "custom" unless they override.
  virtual std::string name() const { return "custom"; }
};

// Measures the cost of one `clock.now()` read as the minimum over `samples`
// back-to-back read pairs.  Min-of-N deliberately: any interrupt or
// migration only inflates a delta, so the minimum is the closest observable
// bound on the true read cost.
Nanos measure_clock_overhead(const Clock& clock, int samples = 4096);

// Hardened estimator: `rounds` independent min-of-`samples` probes, then the
// median of the round minima.  A single min-of-N probe taken once at startup
// can still be skewed — a frequency ramp or an unlucky SMI window inflates
// every delta of one round, and a torn TSC read can deflate one.  Taking the
// median across rounds rejects whole-round outliers in both directions.
Nanos measure_clock_overhead_robust(const Clock& clock, int samples = 2048, int rounds = 5);

// The real monotonic wall clock (CLOCK_MONOTONIC).
class WallClock final : public Clock {
 public:
  Nanos now() const override;

  // Measured once per process (robust min-of-N, see
  // measure_clock_overhead_robust) and memoized; every WallClock instance
  // reports the same value.
  Nanos overhead_ns() const override;

  std::string name() const override { return "wall"; }

  // Shared instance; stateless, safe to use from multiple threads/processes.
  static const WallClock& instance();
};

// Empirically observed properties of a clock.
struct ClockResolution {
  // The smallest observed non-zero increment between consecutive reads.
  Nanos tick = 0;
  // Median cost of one now() call, measured back to back.
  Nanos read_overhead = 0;
};

// Probes `clock` by reading it repeatedly.  `samples` bounds the number of
// consecutive-read pairs examined.
ClockResolution probe_resolution(const Clock& clock, int samples = 10000);

// A simple elapsed-time stopwatch over an injectable clock.
class StopWatch {
 public:
  explicit StopWatch(const Clock& clock = WallClock::instance()) : clock_(&clock) { reset(); }

  void reset() { start_ = clock_->now(); }
  Nanos elapsed() const { return clock_->now() - start_; }

 private:
  const Clock* clock_;
  Nanos start_ = 0;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_CLOCK_H_
