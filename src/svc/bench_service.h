// Runner-as-a-service: the whole run_suite pipeline — calibration cache,
// provenance capture, tracing, execution, serialization, baseline compare,
// trend-store append — as a reusable library.
//
// The paper's driver (`lmbench-run`, §3.5) is a one-shot script; PR 1..5
// reproduced it as a ~380-line main().  This module is that pipeline with
// the argv parsing and printing peeled off: a RunRequest describes one
// suite invocation, BenchService::run executes it and returns a
// RunArtifacts bundle, and a progress callback streams per-benchmark
// events.  examples/run_suite, the lmbenchd daemon, and tests all drive
// the same code path, so "what a suite run does" is defined exactly once
// (the ROOT-style continuous-benchmarking service in ROADMAP.md builds on
// this seam).
#ifndef LMBENCHPP_SRC_SVC_BENCH_SERVICE_H_
#define LMBENCHPP_SRC_SVC_BENCH_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cal_cache.h"
#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/core/tsc_clock.h"
#include "src/obs/trace.h"
#include "src/report/compare.h"
#include "src/report/serialize.h"

namespace lmb::svc {

// A caller mistake (unknown benchmark name, empty category, malformed
// flag) as opposed to a benchmark failing: drivers map this to their usage
// exit code (run_suite: 2) instead of a failed-run code.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Everything one suite invocation needs — the typed form of run_suite's
// command line.  Defaults reproduce `run_suite` with no flags.
struct RunRequest {
  // Selection: explicit names, then plan entries (each with its own args
  // over bench_options); either overrides a category filter ("" = every
  // registered benchmark).  One run() executes a whole plan: one
  // environment capture, one calibration-cache load and save, one trace,
  // one set of output files.
  std::string category;
  std::vector<std::string> names;
  std::vector<PlanEntry> entries;

  // Execution.
  int jobs = 1;
  double timeout_sec = 0.0;
  bool counters = false;
  // Time source (--clock=auto|tsc|wall): resolved against the host by
  // select_clock at run start; what actually ran is recorded per
  // measurement as clock_source, and an unhonorable --clock=tsc surfaces a
  // fallback warning, never a silent switch.
  ClockSource clock_source = ClockSource::kAuto;
  // Passed verbatim to every benchmark (--quick, --size=, --kernel=,
  // --bw-threads=, ...).
  Options bench_options;

  // Calibration cache.
  bool use_cal_cache = true;
  std::string cal_cache_path = ".lmbenchpp-cal.db";

  // Timing-decision trace: collect events into RunArtifacts::trace_events
  // and optionally write them out.
  bool collect_trace = false;
  std::string trace_path;  // lmbenchpp.trace.v1 JSON ("" = skip)

  // Output files ("" = skip each).
  std::string json_path;  // lmbenchpp.results.v1
  std::string csv_path;

  // Baseline comparison / regression gate ("" = no comparison): a
  // results.v1 file, or a trend store (its newest run for this host).
  std::string baseline_path;
  bool gate = false;
  // Significance floor in percent when --gate carried a value; nullopt
  // keeps the compare default.
  std::optional<double> gate_floor_pct;
  double assume_noise_pct = 0.0;
  bool save_baseline = false;  // append this run to a baseline directory
  std::string compare_json_path;  // lmbenchpp.compare.v1 ("" = skip)

  // Time-series trend store directory ("" = no append).  Every completed
  // batch is appended with its provenance block (src/db/trend_store.h).
  std::string trend_dir;

  // Builds a request from parsed command-line options, using exactly
  // run_suite's flag names (--category, --only, --jobs, --timeout, --json,
  // --csv, --trace, --counters, --clock, --cal-cache, --no-cal-cache,
  // --baseline, --gate, --assume-noise, --save-baseline, --compare-json,
  // --trend-store).  The full option set is also retained as bench_options
  // so benchmark-level flags flow through.  Throws UsageError /
  // std::invalid_argument on malformed values, and UsageError naming the
  // replacement for a removed flag, or saying why there is none.
  static RunRequest from_options(const Options& opts);
};

// Progress events streamed while a request executes.  kSuiteStart fires
// once before the first benchmark (after provenance capture and cache
// loading, so headers can say warm/cold); kBenchStart/kBenchFinish wrap
// the SuiteRunner's events; kSuiteEnd fires after outputs are written.
struct ServiceEvent {
  enum class Kind { kSuiteStart, kBenchStart, kBenchFinish, kSuiteEnd };
  Kind kind = Kind::kSuiteStart;

  // kSuiteStart.
  std::string system;  // SystemInfo::label()
  int total = 0;       // benchmarks (names plus entries) selected
  bool cal_cache = false;
  bool cal_warm = false;
  std::string cal_path;
  std::vector<std::string> warnings;  // environment noise warnings

  // kBenchStart / kBenchFinish.
  int index = 0;
  std::string name;
  std::string description;
  const RunResult* result = nullptr;  // kBenchFinish only

  // kSuiteEnd.
  double total_wall_ms = 0.0;
  size_t metric_count = 0;
  int failed = 0;
};

using ProgressFn = std::function<void(const ServiceEvent&)>;

// Everything a finished request produced, for drivers to print, serialize,
// or stream.
struct RunArtifacts {
  report::ResultBatch batch;  // system label, results, timing, environment

  size_t metric_count = 0;
  int failed = 0;
  double total_wall_ms = 0.0;

  // Calibration cache state for this run.
  bool cal_cache_used = false;
  bool cal_warm = false;  // entries were available before the run
  int cal_hits = 0;
  int cal_misses = 0;
  std::string cal_save_error;  // non-empty when persisting the cache failed

  // Trace events captured when RunRequest::collect_trace was on.
  std::vector<obs::TraceEvent> trace_events;

  // Baseline comparison (only when RunRequest::baseline_path was set).
  std::optional<report::CompareReport> compare;
  bool baseline_established = false;  // no run for this host yet: this run became the baseline
  long baseline_seq = -1;  // trend-store sequence number when this run was saved as a baseline
  bool gate_failed = false;

  // Trend store append (only when RunRequest::trend_dir was set).
  long trend_seq = -1;  // sequence number assigned to this run

  // run_suite's exit-code contract: 1 when any benchmark failed, else 3
  // when the gate tripped, else 0.  (Usage errors never reach artifacts —
  // they throw UsageError.)
  int exit_code() const { return failed != 0 ? 1 : (gate_failed ? 3 : 0); }
};

// Executes RunRequests against a registry.  One service owns the
// calibration caches and trace sinks its runs use; because a timed-out
// benchmark's thread is abandoned (suite_runner.h) and may touch those
// after run() returns, the service must outlive every such thread — make
// it long-lived (the daemon) or static (run_suite), like the registry.
//
// run() is serialized with an internal mutex: concurrent callers queue,
// which is exactly the FIFO semantics the daemon wants (benchmarks must
// not time-share the machine they are measuring).
class BenchService {
 public:
  explicit BenchService(const Registry& registry = Registry::global());

  // Executes one request.  Throws UsageError on selection mistakes
  // (unknown name, empty category match) before anything runs, and
  // std::runtime_error when a requested output file cannot be written.
  RunArtifacts run(const RunRequest& request, const ProgressFn& progress = nullptr);

  // Number of completed run() calls.
  int completed_runs() const;

 private:
  CalibrationCache* cache_for(const std::string& path);

  const Registry* registry_;
  std::mutex run_mu_;  // serializes run(); see class comment
  mutable std::mutex state_mu_;
  // One calibration cache per on-disk path, kept alive for the service's
  // lifetime (abandoned-thread rule above; also keeps a daemon's caches
  // warm across requests).
  std::map<std::string, std::unique_ptr<CalibrationCache>> cal_caches_;
  // One sink per traced run, retained for the same lifetime reason.
  std::vector<std::unique_ptr<obs::TraceSink>> trace_sinks_;
  int completed_ = 0;
};

}  // namespace lmb::svc

#endif  // LMBENCHPP_SRC_SVC_BENCH_SERVICE_H_
