// The three workloads.  Each runs cycles of passes until `seconds` have gone
// by (at least two cycles), checks every pass's output, and reports the
// catalog's metrics for its mode (perfbench/metrics.h).
//
// A cycle starts from cold state and runs one cold pass, then warm passes:
//   suite        cold = BenchService::run on a fresh calibration-cache path,
//                warm = the same 22 benchmarks again on that path; a pass is
//                the run plus report::to_json of its batch, as run_suite
//                --json does.
//   echo_closed  cold = the first run_load against a freshly started
//                LoadServer, warm = later run_loads against it; a pass is a
//                fixed number of closed-loop echo requests.
//   rpc_open     as echo_closed, with open-loop Poisson RPC arrivals.
// With tracing on, the cold pass and every other warm pass are traced; the
// untraced warm passes give the tracing overhead.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/metrics.h"
#include "perfbench/spans.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files (calibration caches) and the trace
};

// Whether the pass with 0-based index `pass` in a cycle (0 = cold) is
// traced in a traced run: the cold pass always, warm passes alternately,
// starting with the first warm pass on even cycles and the second on odd
// ones, so neither position is always the traced one.
inline bool pass_traced(bool trace, int cycle, int pass) {
  return trace && (pass == 0 || pass % 2 == (cycle % 2 == 0 ? 1 : 0));
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Whether cycle number `cycle` should start: always the first two (a traced
// run needs an untraced warm pass), later ones only while one more of
// average length still fits in `seconds`.
inline bool cycle_fits(std::chrono::steady_clock::time_point start, int cycle, double seconds) {
  const double elapsed = seconds_since(start);
  return cycle < 2 || elapsed + elapsed / cycle <= seconds;
}

// Median of `field` over the passes `keep` selects.  A pass type has `cold`,
// `traced` and `pass_s` members.
template <typename Pass, typename Keep, typename Field>
double median_of(const std::vector<Pass>& passes, Keep keep, Field field) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (keep(p)) {
      v.push_back(field(p));
    }
  }
  return median(std::move(v));
}

// Reports trace.overhead_frac: the median traced warm pass against the
// median untraced one, as a share of the untraced.
template <typename Pass>
void add_trace_overhead(Outcome& out, const std::vector<Pass>& passes) {
  auto pass_s = [](const Pass& p) { return p.pass_s; };
  const double traced =
      median_of(passes, [](const Pass& p) { return p.traced && !p.cold; }, pass_s);
  const double plain =
      median_of(passes, [](const Pass& p) { return !p.traced && !p.cold; }, pass_s);
  out.metrics["trace.overhead_frac"] = (traced - plain) / plain;
  out.notes.push_back("tracing overhead: traced warm pass " + std::to_string(traced) +
                      " s vs untraced " + std::to_string(plain) + " s");
}

Outcome run_suite_workload(const RunConfig& cfg, SpanRecorder* rec);
Outcome run_load_workload(const RunConfig& cfg, SpanRecorder* rec);

// What one set-up does before the first pass; main times it in a fresh
// process (`perfbench --setup-only`).
void setup_suite(const RunConfig& cfg);
void setup_load(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
