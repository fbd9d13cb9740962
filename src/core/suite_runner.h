// Suite execution engine: runs registered benchmarks with failure
// isolation, per-benchmark wall-clock timeouts, and optional parallelism.
//
// The paper's driver (`lmbench-run`) executes benchmarks strictly one at a
// time; this runner keeps that as the default (jobs=1) because concurrent
// benchmarks perturb each other's timings.  When callers opt into
// `jobs=N`, benchmarks in the *exclusive* categories "bandwidth" and
// "disk" (the ones most sensitive to a busy memory bus) are still
// serialized against their own category, while cheap independent latency
// probes overlap.
//
// Isolation contract: one misbehaving benchmark cannot take down the
// suite.  A throwing benchmark becomes a RunStatus::kError result; a
// hanging benchmark is abandoned after `timeout_sec` and reported as
// RunStatus::kTimeout.  (Abandonment detaches the thread — C++ offers no
// portable cancellation — so a timed-out benchmark may keep consuming one
// CPU until the process exits; the registry it came from must stay alive.)
#ifndef LMBENCHPP_SRC_CORE_SUITE_RUNNER_H_
#define LMBENCHPP_SRC_CORE_SUITE_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/cal_cache.h"
#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/core/run_result.h"
#include "src/obs/trace.h"

namespace lmb {

// One suite invocation's knobs.
struct SuiteConfig {
  // Run only benchmarks in this category ("" = every category).
  std::string category;
  // Explicit benchmark names, each run with `options` alone.
  std::vector<std::string> names;
  // Plan entries, each run with `options` plus its own args, after
  // `names`.  A non-empty `names` or `entries` overrides `category`.
  // Unknown names and malformed args throw std::invalid_argument before
  // anything runs.
  std::vector<PlanEntry> entries;
  // Worker count; values < 1 behave as 1.  Exclusive categories are
  // serialized regardless of the worker count.
  int jobs = 1;
  // Per-benchmark wall-clock budget in seconds; <= 0 disables timeouts.
  double timeout_sec = 0.0;
  // Passed verbatim to every benchmark (--quick, --size=, ...).
  Options options;
  // Optional calibration cache (must outlive run()).  When set, every
  // benchmark runs inside a CalibrationScope against it, so measure()
  // calls memoize their calibrated iteration counts; per-benchmark wall
  // clock is recorded back for scheduling, and each RunResult gains
  // cal_hits/cal_misses metadata.  With jobs > 1, benchmarks are claimed
  // longest-expected-first (classic LPT makespan reduction) using the
  // cache's wall-clock history; benchmarks with no history run first.
  CalibrationCache* cal_cache = nullptr;
  // Optional trace sink (must outlive run(), same lifetime rule as
  // cal_cache).  When set, every benchmark runs inside an obs::ObsScope so
  // the timing engine emits calibration/repetition events into it, and the
  // runner adds suite-level spans and scheduler claim events.
  obs::TraceSink* trace = nullptr;
  // Sample hardware perf counters (src/obs/perf_counters.h) around each
  // timed interval.  Benchmarks with a dominant measurement then gain
  // ipc/"count" and cache_miss_pct/"%" metrics.  A graceful no-op where
  // perf_event_open is unavailable (the metrics are simply absent).
  bool counters = false;
  // Optional time source for every measurement in the suite (must outlive
  // run(), same lifetime rule as cal_cache).  When set, each benchmark runs
  // inside a MeasureScope so timing calls that don't pass an explicit clock
  // use this one; null keeps the WallClock default.  Set from --clock= via
  // select_clock (src/core/tsc_clock.h).
  const Clock* clock = nullptr;
};

// Observability hook payload.  kStart fires before a benchmark runs,
// kFinish after its result is recorded (result points at the stored
// RunResult, valid until the run() call returns its vector).
struct SuiteEvent {
  enum class Kind { kStart, kFinish };
  Kind kind = Kind::kStart;
  int index = 0;  // position in the run order
  int total = 0;  // number of benchmarks in this invocation
  std::string name;
  std::string description;
  const RunResult* result = nullptr;  // kFinish only
};

class SuiteRunner {
 public:
  // The registry must outlive the runner AND any timed-out benchmark
  // threads it abandoned.  Registry::global() trivially satisfies both.
  // The same lifetime rule applies to SuiteConfig::cal_cache: an abandoned
  // benchmark thread may still touch the cache after run() returns.
  explicit SuiteRunner(const Registry& registry = Registry::global());

  // Progress callback; invoked serially (an internal mutex orders events
  // from concurrent workers).  Pass nullptr to clear.
  void set_progress(std::function<void(const SuiteEvent&)> callback);

  // Executes the selected benchmarks and returns one RunResult per
  // benchmark or entry, in selection order (`names`, then `entries`; a
  // category is name-sorted) independent of `jobs`.
  std::vector<RunResult> run(const SuiteConfig& config) const;

 private:
  const Registry* registry_;
  std::function<void(const SuiteEvent&)> progress_;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_SUITE_RUNNER_H_
