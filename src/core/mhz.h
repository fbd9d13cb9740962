// CPU clock-rate estimation ("mhz" in lmbench).
//
// Paper §5.1/§6.2: latencies are expressed both in nanoseconds and in
// processor clocks (Table 6), which requires knowing the clock period.  The
// classic trick: a chain of *dependent* integer adds retires at exactly one
// add per cycle on every processor the paper covers (and on modern x86/ARM),
// so ns-per-add == the clock period.
#ifndef LMBENCHPP_SRC_CORE_MHZ_H_
#define LMBENCHPP_SRC_CORE_MHZ_H_

#include "src/core/timing.h"

namespace lmb {

struct CpuClock {
  double mhz = 0.0;        // estimated core frequency
  double period_ns = 0.0;  // one cycle, in ns
};

// Estimates the clock by timing a long dependent-add chain.
CpuClock estimate_cpu_clock(const TimingPolicy& policy = TimingPolicy::standard());

// The measured kernel: runs `iters` blocks of kAddsPerBlock dependent adds
// and returns a value derived from them (so the chain cannot be elided).
inline constexpr int kAddsPerBlock = 128;
unsigned long run_dependent_adds(std::uint64_t iters);

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_MHZ_H_
