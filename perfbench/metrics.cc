#include "perfbench/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/report/json.h"

namespace perfbench {

namespace {

const std::vector<std::string> kAll = {"suite", "echo_closed", "rpc_open"};
const std::vector<std::string> kLoad = {"echo_closed", "rpc_open"};
const std::vector<std::string> kSuite = {"suite"};
const std::vector<std::string> kRpc = {"rpc_open"};

// Per-layer metrics of the suite come in a .cold and a .warm variant, each
// moving the pass time of the same temperature.
void add_cold_warm(std::vector<MetricSpec>& out, const std::string& name,
                   const std::string& unit, const std::string& better) {
  out.push_back({name + ".cold", unit, better, kSuite, "cold_pass_s on suite"});
  out.push_back({name + ".warm", unit, better, kSuite, "warm_pass_s on suite"});
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", kAll, "median of 11 set-ups: exec, static init, workload set-up"},
      {"cold_pass_s", "s", "lower", kAll,
       "median cold pass: fresh calibration cache (suite) or fresh LoadServer (load)"},
      {"warm_pass_s", "s", "lower", kAll, "median warm pass"},
      {"p50_us", "us", "lower", kAll,
       "p50 of per-benchmark wall time over all warm passes (suite); median over warm passes "
       "of the pass p50 request latency (load)"},
      {"p95_us", "us", "lower", kAll, "as p50_us, at the 95th percentile"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    add_cold_warm(s, "core.timing.calib_ms", "ms", "lower");
    add_cold_warm(s, "core.timing.warmup_ms", "ms", "lower");
    add_cold_warm(s, "core.timing.rep_ms", "ms", "lower");
    add_cold_warm(s, "core.timing.reps_per_measure", "count", "lower");
    add_cold_warm(s, "core.timing.early_stop_ratio", "ratio", "higher");
    add_cold_warm(s, "core.timing.useful_ratio", "ratio", "higher");
    s.push_back({"core.cal_cache.hit_ratio.warm", "ratio", "higher", kSuite,
                 "warm_pass_s on suite"});
    add_cold_warm(s, "core.suite.bench_ms", "ms", "lower");
    add_cold_warm(s, "core.suite.self_ms", "ms", "lower");
    add_cold_warm(s, "svc.self_ms", "ms", "lower");
    s.push_back({"report.to_json_ms", "ms", "lower", kSuite,
                 "cold_pass_s and warm_pass_s on suite, at most by its share"});
    const std::string server_moves = "warm_pass_s and p50_us on echo_closed; p50_us on rpc_open";
    s.push_back({"lat.load_server.cpu_us_per_req", "us", "lower", kLoad, server_moves});
    s.push_back({"lat.load_server.wakeups_per_req", "count", "lower", kLoad, server_moves});
    s.push_back({"lat.load_server.busy_frac", "ratio", "lower", kLoad, server_moves});
    s.push_back({"lat.load_gen.cpu_us_per_req", "us", "lower", kLoad,
                 "warm_pass_s on echo_closed; p95_us and rate_ratio on rpc_open"});
    s.push_back({"lat.load_gen.sys_frac", "ratio", "lower", kLoad,
                 "warm_pass_s on echo_closed; p95_us on rpc_open"});
    s.push_back({"lat.load_gen.busy_frac", "ratio", "lower", kLoad,
                 "warm_pass_s on echo_closed; p95_us and rate_ratio on rpc_open"});
    s.push_back({"lat.load_gen.bound_frac", "ratio", "lower", kLoad,
                 "whether warm_pass_s and p95_us measure the server: a pass with generator "
                 "busy_frac >= 0.95 is generator-bound"});
    s.push_back({"lat.load_gen.rate_ratio", "ratio", "higher", kRpc,
                 "warm_pass_s on rpc_open: a lagging generator stretches the pass"});
    s.push_back({"lat.load_gen.p99_us", "us", "lower", kLoad,
                 "p95_us on both load workloads; the tail itself is printed, not bounded"});
    s.push_back({"lat.load_gen.window_rps_cv", "ratio", "lower", kRpc, "p95_us on rpc_open"});
    s.push_back({"lat.load_gen.max_window_p99_us", "us", "lower", kRpc, "p95_us on rpc_open"});
    s.push_back({"proc.cpu_us_per_req", "us", "lower", kAll,
                 "p95_us on echo_closed; warm_pass_s on suite (per benchmark there)"});
    s.push_back({"proc.ctx_switches_per_req", "count", "lower", kAll,
                 "p95_us on echo_closed"});
    s.push_back({"trace.overhead_frac", "ratio", "lower", kAll,
                 "none: traced minus untraced warm pass over untraced, the cost of tracing"});
    return s;
  }();
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool measured_on(const MetricSpec& spec, const std::string& workload) {
  return std::find(spec.workloads.begin(), spec.workloads.end(), workload) != spec.workloads.end();
}

void finalize(Outcome& out, const std::string& workload, bool trace) {
  const std::vector<MetricSpec>& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, double> kept;
  for (const MetricSpec& spec : specs) {
    auto it = out.metrics.find(spec.name);
    if (!measured_on(spec, workload)) {
      kept[spec.name] = 0.0;
      continue;
    }
    if (it == out.metrics.end()) {
      out.check_failures.push_back("metric " + spec.name + " was not measured");
      kept[spec.name] = 0.0;
      continue;
    }
    if (!std::isfinite(it->second)) {
      out.check_failures.push_back("metric " + spec.name + " is not finite");
      kept[spec.name] = 0.0;
      continue;
    }
    kept[spec.name] = it->second;
  }
  out.metrics = std::move(kept);
}

std::string result_json(const Outcome& out, bool trace) {
  using lmb::report::json_double;
  using lmb::report::json_quote;
  std::string s = "{\"correct\": " + std::string(out.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : trace ? per_layer_metrics() : end_to_end_metrics()) {
    auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) {
      continue;
    }
    s += (first ? "" : ", ") + json_quote(spec.name) + ": {\"value\": " +
         json_double(it->second) + ", \"unit\": " + json_quote(spec.unit) + "}";
    first = false;
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
