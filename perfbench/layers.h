// Per-layer figures computed from what a pass left behind: the program's
// own timing-decision events (RunRequest::collect_trace) and a load run's
// interval series.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/spans.h"
#include "src/obs/histogram.h"
#include "src/obs/trace.h"

namespace perfbench {

// One suite pass as its timing-decision events describe it.
struct TimingLayers {
  double calib_ms = 0;          // calibration probes, cache-validation probes included
  double warmup_ms = 0;         // warm-up runs
  double rep_ms = 0;            // timed repetitions
  double reps_per_measure = 0;  // timed repetitions per measure() call
  double early_stop_ratio = 0;  // measure() calls that stopped on convergence
  double useful_ratio = 0;      // rep_ms over the time of whole measure() calls
  double bench_ms = 0;          // per-benchmark spans, summed
  double bench_self_ms = 0;     // bench_ms minus the measure() time inside it
  double suite_run_ms = 0;      // the runner's whole-suite span
};

TimingLayers fold_timing_events(const std::vector<lmb::obs::TraceEvent>& events);

// Shift that maps the program's trace timestamps onto `rec`'s clock: the
// program's span for the first benchmark in `bench_spans` (name -> span id
// in `rec`) then starts where that span does.  0 when either is missing.
std::int64_t anchor_offset(const SpanRecorder& rec, const std::vector<lmb::obs::TraceEvent>& events,
                           const std::vector<std::pair<std::string, std::uint64_t>>& bench_spans);

// Appends the program's events to `rec`, shifted by `offset`, as children of
// the span listed in `bench_spans` for their benchmark (events of no listed
// benchmark go under `parent`).
void fold_into_spans(SpanRecorder& rec, const std::vector<lmb::obs::TraceEvent>& events,
                     const std::vector<std::pair<std::string, std::uint64_t>>& bench_spans,
                     std::uint64_t parent, std::uint64_t pass, std::int64_t offset);

// Coefficient of variation of per-window request rates, ignoring the final
// (partial) window; 0 with fewer than two full windows.
double window_rps_cv(const std::vector<lmb::obs::IntervalStats>& windows);

// Largest per-window p99 in microseconds over windows with requests.
double max_window_p99_us(const std::vector<lmb::obs::IntervalStats>& windows);

// Median of `v` (mean of the middle two for even sizes); NaN when empty.
double median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
