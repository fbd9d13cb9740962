// Output checks run on every pass.  Each returns the failures it found as
// human-readable messages; an empty list means the output verified.  They
// are pure functions of the program's results so the self-test can feed
// them deliberately corrupted copies.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lat/load_gen.h"
#include "src/report/serialize.h"

namespace perfbench {

using Failures = std::vector<std::string>;

// Every expected benchmark ran once and is ok, and every metric is finite
// and > 0.
Failures check_suite_batch(const lmb::report::ResultBatch& batch,
                           const std::vector<std::string>& expected_names);

// `parsed` (from_json of to_json(original)) carries the same system, timing
// block and results: names, statuses, wall times, metrics and metadata.
Failures check_round_trip(const lmb::report::ResultBatch& original,
                          const lmb::report::ResultBatch& parsed);

// What a load pass was configured to do.
struct LoadExpect {
  bool echo = false;           // bytes come back unchanged
  bool intervals = false;      // an interval series was requested
  int connections = 0;
  std::uint64_t requests = 0;  // max_requests the pass stops at
};

// No connection lost, every connection established, the pass reached its
// request count inside the measured window, echo bytes balance, the
// histogram counted every request, interval requests sum to the total and
// windows tile, and the histogram p50 is within max_relative_error of the
// unsampled reservoir's.
Failures check_load_result(const lmb::lat::LoadResult& r, const LoadExpect& expect);

// Achieved over offered open-loop rate is within 2% of 1.
Failures check_rate_ratio(double ratio);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
