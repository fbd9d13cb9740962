// The benchmark's metric catalog and the outcome one run reports.
//
// Every workload reports every end-to-end metric (tracing off) and every
// per-layer metric (tracing on).  A per-layer metric whose layer a workload
// bypasses reads 0 there: no calibration runs on a load workload, no
// LoadServer runs on the suite.  BENCHMARK.json lists the same names; the
// self-test (`python3 perfbench/run.py --self-test`)
// checks the two agree.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr const char* kWorkloads[] = {"suite", "echo_closed", "rpc_open"};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;                  // "lower" | "higher"
  std::vector<std::string> workloads;  // the workloads that measure it
  std::string moves;                   // end-to-end metric(s) it should move, and where
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

// True when `spec` is measured on `workload`.
bool measured_on(const MetricSpec& spec, const std::string& workload);

// What one run produced.  `metrics` holds whatever the workload measured;
// finalize() turns it into the reported set.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty: outputs verified
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the result

  bool correct() const { return check_failures.empty() && failed == 0; }
};

// Restricts `out.metrics` to the catalog for the mode (end-to-end when
// !trace, per-layer when trace): a metric the workload bypasses is set to 0,
// a metric it should have measured but did not, or a non-finite value, is a
// check failure.
void finalize(Outcome& out, const std::string& workload, bool trace);

// The result line: {"correct", "attempted", "failed", "metrics": {name:
// {"value", "unit"}}}.
std::string result_json(const Outcome& out, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
