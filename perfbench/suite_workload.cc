// The `suite` workload: BenchService::run passes over a fixed list of 22
// benchmarks, cold and warm calibration cache.
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "perfbench/checks.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/core/registry.h"
#include "src/core/stats.h"
#include "src/core/tsc_clock.h"
#include "src/report/serialize.h"
#include "src/svc/bench_service.h"

namespace perfbench {

namespace {

constexpr int kPassesPerCycle = 2;  // one cold, one warm

const std::vector<std::string>& suite_benchmarks() {
  static const std::vector<std::string> names = {
      "lat_syscall", "lat_getpid", "lat_select", "lat_sig_install", "lat_sig_catch",
      "lat_pipe",    "lat_unix",   "lat_tcp",    "lat_udp",         "lat_connect",
      "lat_ctx",     "lat_fork",   "lat_exec",   "lat_mem_rd",      "lat_ops",
      "lat_pagefault", "lat_mmap", "bw_mem",     "bw_pipe",         "bw_unix",
      "bw_file_rd",  "lat_rpc_tcp"};
  return names;
}

double span_ms(const SpanRecorder& rec, std::uint64_t id) {
  return static_cast<double>(rec.get(id).dur_ns()) / 1e6;
}

struct SuitePass {
  bool cold = false;
  bool traced = false;
  double pass_s = 0;
  std::vector<double> bench_us;  // per-benchmark wall time
  int hits = 0;
  int misses = 0;
  // Traced passes only.
  TimingLayers timing;
  double svc_self_ms = 0;
  double to_json_ms = 0;
  Usage self;
};

SuitePass run_pass(lmb::svc::BenchService& service, const std::string& cal_path, bool cold,
                   bool traced, SpanRecorder* rec, std::uint64_t pass_id, Outcome& out) {
  lmb::svc::RunRequest req;
  req.names = suite_benchmarks();
  req.jobs = 1;
  req.cal_cache_path = cal_path;
  req.collect_trace = traced;
  SpanRecorder* r = traced ? rec : nullptr;

  SuitePass pass;
  pass.cold = cold;
  pass.traced = traced;
  std::vector<std::pair<std::string, std::uint64_t>> bench_spans;
  lmb::svc::RunArtifacts art;
  std::string json;
  std::uint64_t run_span = 0;
  std::uint64_t json_span = 0;
  const Usage u0 = traced ? usage_now(RUSAGE_SELF) : Usage{};
  const auto t0 = std::chrono::steady_clock::now();
  {
    ScopedSpan pass_span(r, "pass", cold ? "suite.cold" : "suite.warm", 0, pass_id);
    {
      ScopedSpan run(r, "svc", "BenchService::run", pass_span.id(), pass_id);
      run_span = run.id();
      std::uint64_t open_bench = 0;
      auto progress = [&](const lmb::svc::ServiceEvent& ev) {
        if (r == nullptr) {
          return;
        }
        if (ev.kind == lmb::svc::ServiceEvent::Kind::kBenchStart) {
          open_bench = r->begin("core.suite", ev.name, run_span, pass_id);
          bench_spans.emplace_back(ev.name, open_bench);
        } else if (ev.kind == lmb::svc::ServiceEvent::Kind::kBenchFinish && open_bench != 0) {
          r->end(open_bench, {{"status", lmb::run_status_name(ev.result->status)}});
          open_bench = 0;
        }
      };
      art = service.run(req, progress);
    }
    ScopedSpan to_json(r, "report", "to_json", pass_span.id(), pass_id);
    json_span = to_json.id();
    json = lmb::report::to_json(art.batch);
  }
  pass.pass_s = seconds_since(t0);

  for (std::string& f : check_suite_batch(art.batch, suite_benchmarks())) {
    out.check_failures.push_back(std::move(f));
  }
  try {
    for (std::string& f : check_round_trip(art.batch, lmb::report::from_json(json))) {
      out.check_failures.push_back(std::move(f));
    }
  } catch (const std::exception& e) {
    out.check_failures.push_back(std::string("round trip: from_json failed: ") + e.what());
  }
  if (!art.cal_save_error.empty()) {
    out.check_failures.push_back("calibration cache not saved: " + art.cal_save_error);
  }
  if (art.cal_warm == cold) {
    out.check_failures.push_back(std::string("a ") + (cold ? "cold" : "warm") +
                                 " pass found the calibration cache " +
                                 (cold ? "warm" : "cold"));
  }
  out.attempted += req.names.size();
  out.failed += static_cast<std::uint64_t>(art.failed);

  for (const lmb::RunResult& res : art.batch.results) {
    pass.bench_us.push_back(res.wall_ms * 1000.0);
  }
  pass.hits = art.cal_hits;
  pass.misses = art.cal_misses;
  if (traced) {
    pass.self = usage_now(RUSAGE_SELF) - u0;
    pass.timing = fold_timing_events(art.trace_events);
    fold_into_spans(*rec, art.trace_events, bench_spans, run_span, pass_id,
                    anchor_offset(*rec, art.trace_events, bench_spans));
    pass.svc_self_ms = span_ms(*rec, run_span) - pass.timing.suite_run_ms;
    pass.to_json_ms = span_ms(*rec, json_span);
  }
  return pass;
}

void add_timing_layers(Outcome& out, const std::vector<SuitePass>& passes, bool cold) {
  const std::string sfx = cold ? ".cold" : ".warm";
  auto keep = [cold](const SuitePass& p) { return p.traced && p.cold == cold; };
  auto put = [&](const std::string& name, auto field) {
    out.metrics[name + sfx] = median_of(passes, keep, field);
  };
  put("core.timing.calib_ms", [](const SuitePass& p) { return p.timing.calib_ms; });
  put("core.timing.warmup_ms", [](const SuitePass& p) { return p.timing.warmup_ms; });
  put("core.timing.rep_ms", [](const SuitePass& p) { return p.timing.rep_ms; });
  put("core.timing.reps_per_measure",
      [](const SuitePass& p) { return p.timing.reps_per_measure; });
  put("core.timing.early_stop_ratio",
      [](const SuitePass& p) { return p.timing.early_stop_ratio; });
  put("core.timing.useful_ratio", [](const SuitePass& p) { return p.timing.useful_ratio; });
  put("core.suite.bench_ms", [](const SuitePass& p) { return p.timing.bench_ms; });
  put("core.suite.self_ms", [](const SuitePass& p) { return p.timing.bench_self_ms; });
  put("svc.self_ms", [](const SuitePass& p) { return p.svc_self_ms; });
}

}  // namespace

void setup_suite(const RunConfig& cfg) {
  std::filesystem::create_directories(cfg.work_dir);
  for (const std::string& name : suite_benchmarks()) {
    if (lmb::Registry::global().find(name) == nullptr) {
      throw std::runtime_error("suite: benchmark " + name + " is not registered");
    }
  }
  // The clock-read overhead probe runs once per process; doing it here keeps
  // every cold pass alike instead of charging it to the first one.
  (void)lmb::select_clock(lmb::ClockSource::kAuto).clock->overhead_ns();
}

Outcome run_suite_workload(const RunConfig& cfg, SpanRecorder* rec) {
  setup_suite(cfg);
  lmb::svc::BenchService service;
  Outcome out;
  std::vector<SuitePass> passes;
  std::uint64_t pass_id = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle_fits(start, cycle, cfg.seconds); ++cycle) {
    const std::string cal_path = cfg.work_dir + "/cal-" + std::to_string(cfg.seed) + "-" +
                                 std::to_string(cycle) + ".db";
    std::filesystem::remove(cal_path);
    for (int p = 0; p < kPassesPerCycle; ++p) {
      passes.push_back(run_pass(service, cal_path, p == 0, pass_traced(cfg.trace, cycle, p), rec,
                                ++pass_id, out));
    }
    std::filesystem::remove(cal_path);
  }

  auto is_warm = [](const SuitePass& p) { return !p.cold; };
  if (!cfg.trace) {
    auto is_cold = [](const SuitePass& p) { return p.cold; };
    auto pass_s = [](const SuitePass& p) { return p.pass_s; };
    out.metrics["cold_pass_s"] = median_of(passes, is_cold, pass_s);
    out.metrics["warm_pass_s"] = median_of(passes, is_warm, pass_s);
    // Pooled over warm passes: 22 times per pass leave too few samples
    // beyond any tail percentile of a single pass.
    std::vector<double> bench_us;
    for (const SuitePass& p : passes) {
      if (!p.cold) {
        bench_us.insert(bench_us.end(), p.bench_us.begin(), p.bench_us.end());
      }
    }
    const lmb::Sample pooled(std::move(bench_us));
    out.metrics["p50_us"] = pooled.percentile(50);
    out.metrics["p95_us"] = pooled.percentile(95);
  } else {
    add_timing_layers(out, passes, /*cold=*/true);
    add_timing_layers(out, passes, /*cold=*/false);
    out.metrics["core.cal_cache.hit_ratio.warm"] =
        median_of(passes, is_warm, [](const SuitePass& p) {
          return p.hits + p.misses > 0 ? static_cast<double>(p.hits) / (p.hits + p.misses) : 0.0;
        });
    out.metrics["report.to_json_ms"] = median_of(
        passes, [](const SuitePass& p) { return p.traced; },
        [](const SuitePass& p) { return p.to_json_ms; });
    double cpu_ns = 0, ctx = 0, benches = 0;
    for (const SuitePass& p : passes) {
      if (p.traced) {
        cpu_ns += static_cast<double>(p.self.cpu_ns());
        ctx += static_cast<double>(p.self.ctx_switches);
        benches += static_cast<double>(p.bench_us.size());
      }
    }
    out.metrics["proc.cpu_us_per_req"] = cpu_ns / 1e3 / benches;
    out.metrics["proc.ctx_switches_per_req"] = ctx / benches;
    add_trace_overhead(out, passes);
  }

  std::string cold_list, warm_list, hits;
  for (const SuitePass& p : passes) {
    (p.cold ? cold_list : warm_list) += " " + std::to_string(p.pass_s);
    if (!p.cold) {
      hits += " " + std::to_string(p.hits) + "/" + std::to_string(p.hits + p.misses);
    }
  }
  out.notes.push_back("suite: cold passes (s):" + cold_list);
  out.notes.push_back("suite: warm passes (s):" + warm_list);
  out.notes.push_back("suite: calibration-cache hits per warm pass:" + hits);
  return out;
}

}  // namespace perfbench
