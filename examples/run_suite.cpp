// run_suite: the `lmbench-run` analog — run every registered benchmark
// through the suite service and save typed results (paper §3.5) as
// lmbenchpp.results.v1 JSON and/or CSV.
//
// This binary is a thin argv adapter: it parses flags into a
// svc::RunRequest, executes it through the shared svc::BenchService (the
// same pipeline the lmbenchd daemon and the tests run), and prints.  All
// pipeline behavior — calibration cache, provenance, tracing, output
// files, baseline compare, trend append — lives in src/svc.
//
//   ./build/examples/run_suite [--quick] [--category=latency] [--jobs=N]
//                              [--only=bench1,bench2] [--timeout=SECONDS]
//                              [--json=results.json] [--csv=results.csv]
//                              [--trace=trace.json]
//                              [--counters] [--clock=auto|tsc|wall]
//                              [--cal-cache=PATH] [--no-cal-cache]
//                              [--baseline=PATH] [--gate[=PCT]]
//                              [--save-baseline] [--compare-json=PATH]
//                              [--trend-store=DIR]
//                              [--bw-threads=1,2,4] [--kernel=VARIANT]
//                              [--list] [--with-hang]
//
//   --list       print every registered benchmark (grouped by category)
//                without running anything
//   --only=A,B   run exactly these benchmarks (names as shown by --list);
//                overrides --category.  An unknown name is a usage error
//                (exit 2) before anything runs
//   --bw-threads=1,2,4  worker counts for the bw_mem_par scaling sweep;
//                its <op>_p<N>_mbs metrics flow into the JSON/CSV/baseline
//                pipeline and a scaling table + plot print after the run
//   --kernel=auto|scalar|sse2|avx2|nt  memory-kernel implementation for
//                the bandwidth benchmarks (auto = best this CPU supports)
//   --jobs=N     run up to N benchmarks concurrently; bandwidth/disk
//                benchmarks stay serialized within their category
//   --timeout=S  per-benchmark wall-clock budget; a hung benchmark is
//                reported as `timeout` and the suite keeps going
//   --cal-cache=PATH  where calibration state persists between invocations
//                (default .lmbenchpp-cal.db); a warm cache skips every
//                benchmark's calibration ramp and schedules
//                longest-expected-first under --jobs=N
//   --no-cal-cache    disable calibration caching entirely (the paper's
//                re-calibrate-every-run behavior)
//   --trace=PATH write a lmbenchpp.trace.v1 timing-decision trace (also a
//                valid Chrome trace — open it in about:tracing or
//                ui.perfetto.dev): calibration probes, warm-up, every timed
//                repetition, early-stop triggers, cal-cache hits/misses,
//                scheduler placement under --jobs
//   --counters   sample hardware perf counters (instructions, cycles,
//                cache refs/misses, context switches) around every timed
//                interval; measurements gain ipc and cache_miss_pct
//                metrics.  Silently a no-op where perf_event_open is
//                unavailable (non-Linux, perf_event_paranoid, seccomp)
//   --clock=auto|tsc|wall  timestamp source for every timed interval.
//                auto (default) uses the serialized invariant-TSC clock
//                when the CPU supports it, else CLOCK_MONOTONIC; tsc
//                demands the TSC (falls back to wall with a warning when
//                unavailable); wall forces CLOCK_MONOTONIC.  The chosen
//                source lands in every measurement's clock_source field
//                and in the trace's clock/select event
//   --with-hang  register a deliberately-hanging `test_hang` benchmark
//                (for exercising --timeout end to end)
//   --baseline=PATH   after the run, compare this run's results against a
//                baseline: PATH is either a results JSON file or a trend
//                store directory (src/db/trend_store.h) whose newest run
//                for this host is the baseline.  A store with no run for
//                this host gets this one ("baseline established").
//   --gate[=PCT]      with --baseline: exit 3 when any metric regressed
//                beyond the noise-aware threshold; PCT overrides the 5%
//                significance floor
//   --assume-noise=PCT  assumed relative noise for metrics without a stored
//                repetition sample (see lmbench_compare)
//   --save-baseline   with a directory --baseline: append this run to the
//                store after comparing, making it the next baseline
//   --compare-json=PATH  write the comparison (lmbenchpp.compare.v1), e.g.
//                BENCH_compare.json for CI artifacts
//   --trend-store=DIR  append this run to a time-series trend store
//                (src/db/trend_store.h); `lmbench_trend DIR` reports
//                per-metric history and changepoints across runs
//
// A removed flag is a usage error (exit 2) whose message says what replaced
// it, or why nothing did.
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/obs/perf_counters.h"
#include "src/report/heatmap.h"
#include "src/report/load.h"
#include "src/report/scaling.h"
#include "src/svc/bench_service.h"

namespace {

using namespace lmb;

int list_benchmarks(const std::string& category) {
  std::vector<const BenchmarkInfo*> benches = Registry::global().list(category);
  // list() sorts by name; group by category for display.
  std::map<std::string, std::vector<const BenchmarkInfo*>> groups;
  for (const BenchmarkInfo* bench : benches) {
    groups[bench->category].push_back(bench);
  }
  bool first = true;
  for (const auto& [group, members] : groups) {
    std::printf("%s[%s]\n", first ? "" : "\n", group.c_str());
    first = false;
    for (const BenchmarkInfo* bench : members) {
      std::printf("  %-16s %s\n", bench->name.c_str(), bench->description.c_str());
    }
  }
  std::printf("\n%zu benchmarks\n", benches.size());
  return 0;
}

void register_hang_benchmark() {
  Registry::global().add(BenchmarkInfo{
      .name = "test_hang",
      .category = "test",
      .description = "deliberately hangs (exercises --timeout)",
      .run =
          [](const Options&) -> RunResult {
            for (;;) {
              std::this_thread::sleep_for(std::chrono::seconds(1));
            }
          },
  });
}

// Prints the startup header + per-benchmark progress lines from service
// events, reproducing the pre-service output byte for byte.
svc::ProgressFn console_progress(const svc::RunRequest& request, bool quick) {
  return [request, quick](const svc::ServiceEvent& event) {
    switch (event.kind) {
      case svc::ServiceEvent::Kind::kSuiteStart: {
        // Startup noise check: recorded into the provenance block
        // regardless, and echoed on stderr so an interactive user sees why
        // numbers might wobble before waiting out a full suite run.
        for (const std::string& warning : event.warnings) {
          std::fprintf(stderr, "run_suite: warning: %s\n", warning.c_str());
        }
        if (request.counters && !obs::PerfCounters::supported()) {
          std::fprintf(stderr,
                       "run_suite: warning: hardware counters unavailable "
                       "(perf_event_open restricted?); ipc/cache_miss_pct will be absent\n");
        }
        std::printf("running the lmbench++ suite on %s%s", event.system.c_str(),
                    quick ? " (quick mode)" : "");
        if (request.jobs > 1) {
          std::printf(" [jobs=%d]", request.jobs);
        }
        if (request.timeout_sec > 0) {
          std::printf(" [timeout=%.0fs]", request.timeout_sec);
        }
        if (event.cal_cache) {
          std::printf(" [cal-cache=%s, %s]", event.cal_path.c_str(),
                      event.cal_warm ? "warm" : "cold");
        }
        std::printf("\n\n");
        std::fflush(stdout);
        break;
      }
      case svc::ServiceEvent::Kind::kBenchFinish:
        // With jobs>1 starts interleave; printing one line per *finish*
        // keeps the output readable in both modes.
        std::printf("%-16s %-52s %s\n", event.name.c_str(), event.description.c_str(),
                    event.result->summary().c_str());
        std::fflush(stdout);
        break;
      case svc::ServiceEvent::Kind::kBenchStart:
      case svc::ServiceEvent::Kind::kSuiteEnd:
        break;
    }
  };
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts = Options::parse(argc, argv);
  if (opts.get_bool("list")) {
    return list_benchmarks(opts.get_string("category", ""));
  }
  if (opts.get_bool("with-hang")) {
    register_hang_benchmark();
  }

  svc::RunRequest request = svc::RunRequest::from_options(opts);

  // Static for the lifetime rule in bench_service.h: an abandoned
  // (timed-out) benchmark thread may still touch the service's calibration
  // cache or trace sink after run() returns.
  static svc::BenchService service;
  svc::RunArtifacts artifacts = service.run(request, console_progress(request, opts.quick()));

  if (!artifacts.cal_save_error.empty()) {
    std::fprintf(stderr, "run_suite: could not save calibration cache: %s\n",
                 artifacts.cal_save_error.c_str());
  }

  if (!request.json_path.empty()) {
    std::printf("wrote JSON to %s\n", request.json_path.c_str());
  }
  if (!request.csv_path.empty()) {
    std::printf("wrote CSV to %s\n", request.csv_path.c_str());
  }
  if (!request.trace_path.empty()) {
    std::printf("wrote %zu trace events to %s (open in about:tracing / perfetto)\n",
                artifacts.trace_events.size(), request.trace_path.c_str());
  }

  // Scaling table + plot for any result that produced <op>_p<N>_mbs metrics
  // (the bw_mem_par sweep).
  for (const RunResult& r : artifacts.batch.results) {
    if (!r.ok()) {
      continue;
    }
    std::vector<report::ScalingSeries> scaling = report::extract_scaling(r);
    if (!scaling.empty()) {
      std::printf("\n%s", report::render_scaling_report(scaling).c_str());
    }
  }

  // Tail-latency table for the concurrent load scenarios (lat_tcp_n,
  // lat_rpc_n, bw_tcp_n): one row per (benchmark, scenario).
  {
    std::vector<report::LoadScenarioRow> load_rows;
    for (const RunResult& r : artifacts.batch.results) {
      if (!r.ok()) {
        continue;
      }
      std::vector<report::LoadScenarioRow> rows = report::extract_load_scenarios(r);
      load_rows.insert(load_rows.end(), rows.begin(), rows.end());
    }
    if (!load_rows.empty()) {
      std::printf("\n%s", report::render_load_table(load_rows).c_str());
    }
  }

  // Shard-scaling table for load benchmarks run with --shards=...: shard
  // counts vs throughput, p99, and wakeups per request.
  {
    std::vector<report::ShardScalingRow> shard_rows;
    for (const RunResult& r : artifacts.batch.results) {
      if (!r.ok()) {
        continue;
      }
      std::vector<report::ShardScalingRow> rows = report::extract_shard_scaling(r);
      shard_rows.insert(shard_rows.end(), rows.begin(), rows.end());
    }
    if (!shard_rows.empty()) {
      std::printf("\n%s", report::render_shard_table(shard_rows).c_str());
    }
  }

  // Time × latency heatmaps for load benchmarks run with --interval-ms=...
  // (the document also rides into the results JSON via metadata).
  for (const RunResult& r : artifacts.batch.results) {
    if (!r.ok()) {
      continue;
    }
    for (const auto& [key, value] : r.metadata) {
      if (key.rfind("heatmap_", 0) != 0) {
        continue;
      }
      try {
        std::printf("\n%s", report::render_heatmap(report::heatmap_from_json(value)).c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run_suite: bad heatmap document in %s: %s\n", key.c_str(),
                     e.what());
      }
    }
  }

  std::printf("\n%zu benchmarks attempted, %zu metrics, %d failures in %.1f s\n",
              artifacts.batch.results.size(), artifacts.metric_count, artifacts.failed,
              artifacts.total_wall_ms / 1e3);
  if (artifacts.cal_cache_used) {
    std::printf("calibration cache: %d hits, %d misses\n", artifacts.cal_hits,
                artifacts.cal_misses);
  }

  if (!request.baseline_path.empty()) {
    if (artifacts.baseline_established) {
      std::printf("\nno baseline in %s yet; established one: run %ld\n",
                  request.baseline_path.c_str(), artifacts.baseline_seq);
    } else if (artifacts.compare.has_value()) {
      std::printf("\n%s", report::render_compare_table(*artifacts.compare).c_str());
      std::printf("%s", report::render_environment_diff(*artifacts.compare).c_str());
      if (!request.compare_json_path.empty()) {
        std::printf("wrote comparison to %s\n", request.compare_json_path.c_str());
      }
      if (artifacts.baseline_seq >= 0) {
        std::printf("saved new baseline: run %ld\n", artifacts.baseline_seq);
      }
      if (artifacts.gate_failed) {
        std::printf("regression gate FAILED (%d metrics beyond the noise threshold)\n",
                    artifacts.compare->regressed);
      }
    }
  }
  if (artifacts.trend_seq >= 0) {
    std::printf("appended run %ld to trend store %s\n", artifacts.trend_seq,
                request.trend_dir.c_str());
  }

  return artifacts.exit_code();
} catch (const std::exception& e) {
  std::fprintf(stderr, "run_suite: %s\n", e.what());
  return 2;
}
