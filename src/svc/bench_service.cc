#include "src/svc/bench_service.h"

#include <filesystem>
#include <limits>

#include "src/core/env.h"
#include "src/core/suite_runner.h"
#include "src/db/cal_store.h"
#include "src/db/trend_store.h"
#include "src/obs/run_env.h"
#include "src/report/trace_io.h"
#include "src/sys/fdio.h"

namespace lmb::svc {

namespace {

// Flags that no longer exist, each with what replaced it or why nothing
// did.  Options keeps unknown keys, so a removed flag must fail loudly
// rather than silently do nothing.
struct RemovedFlag {
  const char* name;
  const char* replacement;
};
constexpr RemovedFlag kRemovedFlags[] = {
    {"out", "write results with --json=PATH (lmbenchpp.results.v1)"},
    {"trace-chrome",
     "use --trace=PATH: its lmbenchpp.trace.v1 document is itself a Chrome trace that "
     "about:tracing and Perfetto load"},
    {"nanoscale",
     "there is no replacement: every timed interval already lasts at least 1 ms, so one "
     "clock read is noise, and a paired comparison found no number it changed (see "
     "EXPERIMENTS.md)"},
    {"heatmap",
     "run_suite renders the heatmap of every load benchmark run with --interval-ms=MS"},
    {"heatmap-json",
     "use --json=PATH: each load result run with --interval-ms=MS stores its heatmap as "
     "metadata.heatmap_loopback, and lmbench_heatmap renders that file"},
    {"threads", "use --bw-threads=LIST with --only=bw_mem_par"},
    {"op",
     "there is no replacement: the rdwr and bzero ops are gone, and bw_mem_par sweeps "
     "copy, read and write"},
    {"compare-kernels",
     "run --only=bw_mem once per --kernel=VARIANT with --json=PATH and compare the two "
     "files with lmbench_compare"},
};

}  // namespace

RunRequest RunRequest::from_options(const Options& opts) {
  for (const RemovedFlag& flag : kRemovedFlags) {
    if (opts.has(flag.name)) {
      throw UsageError(std::string("--") + flag.name + " was removed; " + flag.replacement);
    }
  }
  RunRequest req;
  req.category = opts.get_string("category", "");
  req.names = opts.get_list("only");
  req.jobs = opts.get_int_in("jobs", 1, std::numeric_limits<int>::min(),
                             std::numeric_limits<int>::max());
  req.timeout_sec = opts.get_double("timeout", 0.0);
  req.counters = opts.get_bool("counters");
  try {
    req.clock_source = parse_clock_source(opts.get_string("clock", "auto"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  req.bench_options = opts;

  req.use_cal_cache = !opts.get_bool("no-cal-cache");
  req.cal_cache_path = opts.get_string("cal-cache", ".lmbenchpp-cal.db");

  req.trace_path = opts.get_string("trace", "");
  req.collect_trace = !req.trace_path.empty();

  req.json_path = opts.get_string("json", "");
  req.csv_path = opts.get_string("csv", "");

  req.baseline_path = opts.get_string("baseline", "");
  req.gate = opts.has("gate");
  // --gate is a flag ("true") or carries the significance floor in percent.
  if (req.gate && opts.get_string("gate", "") != "true") {
    req.gate_floor_pct = opts.get_double("gate", 5.0);
  }
  req.assume_noise_pct = opts.get_double("assume-noise", 0.0);
  req.save_baseline = opts.get_bool("save-baseline");
  req.compare_json_path = opts.get_string("compare-json", "");

  req.trend_dir = opts.get_string("trend-store", "");
  return req;
}

BenchService::BenchService(const Registry& registry) : registry_(&registry) {}

int BenchService::completed_runs() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return completed_;
}

CalibrationCache* BenchService::cache_for(const std::string& path) {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::unique_ptr<CalibrationCache>& slot = cal_caches_[path];
  if (!slot) {
    slot = std::make_unique<CalibrationCache>();
  }
  return slot.get();
}

namespace {

// The post-suite baseline comparison (run_suite --baseline/--gate), writing
// its findings into `artifacts` instead of printing.
void compare_against_baseline(const RunRequest& request, RunArtifacts& artifacts) {
  const std::string& baseline_path = request.baseline_path;
  // An existing regular file is an explicit results JSON; anything else
  // (existing directory, or a path not there yet) is a trend store — the
  // first gated CI run must be able to create it.
  bool is_dir = !std::filesystem::is_regular_file(baseline_path);
  db::TrendStore store(baseline_path);

  std::optional<report::ResultBatch> base;
  if (is_dir) {
    base = store.latest(artifacts.batch.system);
  } else {
    base = report::from_json(sys::read_file(baseline_path));  // throws if bad
  }
  if (!base.has_value()) {
    // No run for this host yet: this run becomes the baseline; nothing to
    // gate yet.
    artifacts.baseline_established = true;
    artifacts.baseline_seq = store.append(artifacts.batch);
    return;
  }

  report::CompareThresholds thresholds;
  if (request.gate_floor_pct.has_value()) {
    thresholds.floor_rel = *request.gate_floor_pct / 100.0;
  }
  thresholds.fallback_noise_rel = request.assume_noise_pct / 100.0;

  artifacts.compare = report::compare_batches(*base, artifacts.batch, thresholds);

  if (!request.compare_json_path.empty()) {
    sys::write_file(request.compare_json_path, report::compare_to_json(*artifacts.compare));
  }
  if (is_dir && request.save_baseline) {
    artifacts.baseline_seq = store.append(artifacts.batch);
  }
  artifacts.gate_failed = request.gate && artifacts.compare->has_regressions();
}

}  // namespace

RunArtifacts BenchService::run(const RunRequest& request, const ProgressFn& progress) {
  std::lock_guard<std::mutex> run_lock(run_mu_);

  // Validate the selection before anything runs: a typo must be a usage
  // error, not a silent zero-benchmark run.
  int total = 0;
  if (!request.names.empty() || !request.entries.empty()) {
    auto check = [&](const std::string& name) {
      if (registry_->find(name) == nullptr) {
        throw UsageError("no such benchmark '" + name + "' (try --list)");
      }
    };
    for (const std::string& name : request.names) {
      check(name);
    }
    for (const PlanEntry& entry : request.entries) {
      check(entry.name);
    }
    total = static_cast<int>(request.names.size() + request.entries.size());
  } else {
    total = static_cast<int>(registry_->list(request.category).size());
    if (total == 0 && !request.category.empty()) {
      throw UsageError("no benchmarks in category '" + request.category + "' (try --list)");
    }
  }

  SystemInfo info = query_system_info();
  RunArtifacts artifacts;
  artifacts.batch.system = info.label();

  // Provenance snapshot + noise warnings; the snapshot rides along in the
  // batch so lmbench_compare and the trend store can diff environments.
  obs::RunEnvironment run_env = obs::capture_run_environment();
  artifacts.batch.environment = run_env;

  // Resolve the requested time source against this host.  An unhonorable
  // --clock=tsc becomes a startup warning; the per-measurement clock_source
  // field records what actually ran.
  SelectedClock selected = select_clock(request.clock_source);

  SuiteConfig config;
  config.category = request.category;
  config.names = request.names;
  config.entries = request.entries;
  config.jobs = request.jobs;
  config.timeout_sec = request.timeout_sec;
  config.options = request.bench_options;
  config.counters = request.counters;
  config.clock = selected.clock;

  obs::TraceSink* sink = nullptr;
  if (request.collect_trace) {
    // One sink per traced run, owned by the service: an abandoned
    // (timed-out) benchmark thread may emit events after run() returns.
    std::lock_guard<std::mutex> lock(state_mu_);
    trace_sinks_.push_back(std::make_unique<obs::TraceSink>());
    sink = trace_sinks_.back().get();
    config.trace = sink;
  }

  CalibrationCache* cal_cache = nullptr;
  std::string host_sig = host_signature(info);
  size_t cal_available = 0;
  if (request.use_cal_cache) {
    cal_cache = cache_for(request.cal_cache_path);
    if (cal_cache->size() == 0) {
      db::load_calibration_cache(request.cal_cache_path, host_sig, *cal_cache);
    }
    cal_available = cal_cache->size();
    config.cal_cache = cal_cache;
  }
  artifacts.cal_cache_used = request.use_cal_cache;
  artifacts.cal_warm = cal_available > 0;
  const int cal_hits_before = cal_cache != nullptr ? cal_cache->hits() : 0;
  const int cal_misses_before = cal_cache != nullptr ? cal_cache->misses() : 0;

  auto emit = [&](const ServiceEvent& event) {
    if (progress) {
      progress(event);
    }
  };

  {
    ServiceEvent event;
    event.kind = ServiceEvent::Kind::kSuiteStart;
    event.system = info.label();
    event.total = total;
    event.cal_cache = request.use_cal_cache;
    event.cal_warm = artifacts.cal_warm;
    event.cal_path = request.cal_cache_path;
    event.warnings = run_env.warnings;
    if (selected.fell_back) {
      event.warnings.push_back("clock: --clock=tsc not honorable, using wall (" +
                               selected.fallback_reason + ")");
    }
    emit(event);
  }

  if (sink != nullptr) {
    obs::TraceArgs clock_args = {{"requested", clock_source_name(request.clock_source)},
                                 {"source", selected.source},
                                 {"fell_back", selected.fell_back ? "true" : "false"},
                                 {"overhead_ns", std::to_string(selected.clock->overhead_ns())}};
    if (selected.source == "tsc") {
      const TscCalibration& cal = TscClock::calibration();
      clock_args.push_back({"tsc_mhz", std::to_string(cal.tsc_mhz)});
      clock_args.push_back({"tsc_error_ppm", std::to_string(cal.error_ppm)});
    }
    if (selected.fell_back) {
      clock_args.push_back({"fallback_reason", selected.fallback_reason});
    }
    sink->instant("clock", "select", std::move(clock_args));
  }

  SuiteRunner runner(*registry_);
  runner.set_progress([&](const SuiteEvent& suite_event) {
    ServiceEvent event;
    event.kind = suite_event.kind == SuiteEvent::Kind::kStart
                     ? ServiceEvent::Kind::kBenchStart
                     : ServiceEvent::Kind::kBenchFinish;
    event.index = suite_event.index;
    event.total = suite_event.total;
    event.name = suite_event.name;
    event.description = suite_event.description;
    event.result = suite_event.result;
    emit(event);
  });

  StopWatch suite_watch;
  artifacts.batch.results = runner.run(config);
  artifacts.total_wall_ms = static_cast<double>(suite_watch.elapsed()) / 1e6;

  if (cal_cache != nullptr) {
    artifacts.cal_hits = cal_cache->hits() - cal_hits_before;
    artifacts.cal_misses = cal_cache->misses() - cal_misses_before;
    try {
      db::save_calibration_cache(request.cal_cache_path, host_sig, *cal_cache);
    } catch (const std::exception& e) {
      artifacts.cal_save_error = e.what();
    }
  }

  report::SuiteTiming timing;
  timing.total_wall_ms = artifacts.total_wall_ms;
  timing.jobs = request.jobs;
  timing.cal_cache = request.use_cal_cache;
  timing.cal_hits = artifacts.cal_hits;
  timing.cal_misses = artifacts.cal_misses;
  artifacts.batch.timing = timing;

  for (const RunResult& r : artifacts.batch.results) {
    if (!r.ok()) {
      ++artifacts.failed;
      continue;
    }
    artifacts.metric_count += r.metrics.size();
  }

  // Requested output files.
  if (!request.json_path.empty()) {
    sys::write_file(request.json_path, report::to_json(artifacts.batch));
  }
  if (!request.csv_path.empty()) {
    sys::write_file(request.csv_path, report::to_csv(artifacts.batch.results, &timing));
  }
  if (sink != nullptr) {
    artifacts.trace_events = sink->events();
    if (!request.trace_path.empty()) {
      sys::write_file(request.trace_path,
                      report::trace_to_json(artifacts.trace_events, info.label()));
    }
  }

  if (!request.baseline_path.empty()) {
    compare_against_baseline(request, artifacts);
  }

  if (!request.trend_dir.empty()) {
    // A baseline directory is a trend store too: never record a run twice.
    bool saved_here = request.trend_dir == request.baseline_path && artifacts.baseline_seq >= 0;
    artifacts.trend_seq = saved_here ? artifacts.baseline_seq
                                     : db::TrendStore(request.trend_dir).append(artifacts.batch);
  }

  {
    ServiceEvent event;
    event.kind = ServiceEvent::Kind::kSuiteEnd;
    event.total = total;
    event.total_wall_ms = artifacts.total_wall_ms;
    event.metric_count = artifacts.metric_count;
    event.failed = artifacts.failed;
    emit(event);
  }

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++completed_;
  }
  return artifacts;
}

}  // namespace lmb::svc
