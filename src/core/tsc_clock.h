// Userspace TSC time source and clock-source selection.
//
// Every timed interval in the suite pays the cost of its clock reads;
// clock_gettime(CLOCK_MONOTONIC) goes through the vDSO but still costs tens
// of nanoseconds — comparable to the operations the sub-100ns benchmarks
// (lat_ops dependent chains, L1 hits) are trying to resolve.  nanoBench
// (Abel & Reineke, PAPERS.md) reads the time-stamp counter directly from
// userspace: a serialized RDTSCP is a handful of nanoseconds, driving
// per-interval overhead toward zero.
//
// TscClock is that read wrapped in the suite's Clock interface:
//  * RDTSCP followed by LFENCE, so the read can neither drift ahead of the
//    measured code nor let later instructions start before it completes
//    (Intel SDM's recommended end-of-region fencing).
//  * Gated on CPUID invariant-TSC (leaf 0x80000007, EDX bit 8): only an
//    invariant TSC ticks at a constant rate across P-/C-state transitions,
//    which is what makes tick->ns conversion meaningful.
//  * Calibrated against CLOCK_MONOTONIC at first use, so ticks convert to
//    wall nanoseconds without trusting any nominal frequency.  Each end of
//    a ~1 ms span is a bracketed pair: a CLOCK_MONOTONIC stamp sandwiched
//    between two TSC reads, the tightest of 16 tries.  The rate is the
//    ratio of the spans between the two ends' midpoints; preemption during
//    the wait lengthens the span but cannot bias it, and the bracket widths
//    bound the rate error (TscCalibration::error_ppm).  Intermediate pairs
//    must lie on the same line, or the calibration is rejected.  The TSC
//    frequency is NOT the core frequency on modern x86 —
//    cross_check_cpu_mhz() compares against src/core/mhz's dependent-add
//    estimate for diagnostics.
//
// Hosts without the prerequisites (non-x86, no invariant TSC, or the
// LMBPP_NO_TSC escape hatch) report supported() == false without paying
// for a calibration.  There, or when the calibration fails, clock-source
// selection falls back to WallClock with an explicit marker — never
// silently.
#ifndef LMBENCHPP_SRC_CORE_TSC_CLOCK_H_
#define LMBENCHPP_SRC_CORE_TSC_CLOCK_H_

#include <string>

#include "src/core/clock.h"

namespace lmb {

// Outcome of the tick->ns calibration, exposed for traces and tests.  All
// zero until a calibration has run; ticks_per_ns stays 0 when it failed.
struct TscCalibration {
  double ticks_per_ns = 0.0;  // TSC frequency in GHz
  double tsc_mhz = 0.0;       // the same, in MHz (trace/report friendly)
  Nanos window_ns = 0;        // busy-wait between consecutive bracketed pairs
  int windows = 0;            // such waits; busy-wait budget = windows * window_ns
  double error_ppm = 0.0;     // worst-case rate error, parts per million, from
                              // the end pairs' bracket widths
};

// Serialized time-stamp-counter clock.  Construct only when supported()
// (select_clock enforces this); constructing on an unsupported host throws
// std::runtime_error.
class TscClock final : public Clock {
 public:
  // Nanoseconds since an arbitrary epoch (the first calibration), from a
  // serialized RDTSCP read.
  Nanos now() const override;

  // Measured robust min-of-N read cost, memoized per process; seeded from
  // the calibration cache via seed_clock_overhead("tsc", ...) when present.
  Nanos overhead_ns() const override;

  std::string name() const override { return "tsc"; }

  // True when this host has what the TSC path needs: x86-64, CPUID reports
  // an invariant TSC, RDTSCP is available, and the LMBPP_NO_TSC environment
  // variable is not set.  The CPUID probe is memoized; the variable is
  // re-read on every call.  Never calibrates, so a failed calibration shows
  // in instance() and calibration(), not here.
  static bool supported();

  // The process-wide instance; the first call on a supported host
  // calibrates.  Throws std::runtime_error when !supported() or the
  // calibration failed.
  static const TscClock& instance();

  // Calibration facts for the process-wide instance.  The first call on a
  // supported host calibrates; otherwise reports whatever calibration has
  // already run (all zero if none did).
  static const TscCalibration& calibration();

  // Ratio of the calibrated TSC frequency to `cpu_mhz` (the dependent-add
  // core-clock estimate from src/core/mhz).  ~1.0 on machines whose TSC
  // ticks at the base core clock; below 1.0 under turbo (core runs faster
  // than the invariant TSC).  Diagnostic only — returns 0 when either side
  // is unusable.
  static double cross_check_cpu_mhz(double cpu_mhz);
};

// --clock= grammar: which time source the harness should use.
enum class ClockSource {
  kAuto,  // TSC when supported, wall otherwise
  kTsc,   // require the TSC path (falls back to wall with a marker)
  kWall,  // always CLOCK_MONOTONIC
};

// Stable lowercase name ("auto", "tsc", "wall").
const char* clock_source_name(ClockSource source);

// Inverse of clock_source_name.  Throws std::invalid_argument on unknown
// text (the --clock= grammar).
ClockSource parse_clock_source(const std::string& text);

// Outcome of resolving a requested clock source on this host.
struct SelectedClock {
  const Clock* clock = nullptr;  // never null; points at a process-wide instance
  std::string source;            // actual source: "tsc" or "wall"
  bool fell_back = false;        // an explicit --clock=tsc request was not honorable
  std::string fallback_reason;   // human-readable, non-empty iff fell_back
};

// Resolves `requested` against this host's capabilities.  kAuto prefers the
// TSC; an explicit kTsc on an unsupported host falls back to WallClock with
// fell_back set (callers surface it as a warning and the per-measurement
// clock_source records what actually ran — fallback is explicit, never
// silent).
SelectedClock select_clock(ClockSource requested);

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_TSC_CLOCK_H_
