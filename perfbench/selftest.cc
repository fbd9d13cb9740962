// `perfbench --self-test BENCHMARK.json`: checks the benchmark itself.
//   - every catalog name matches [A-Za-z0-9_.-]+ and has a unit;
//   - BENCHMARK.json names exactly the catalog's metrics (same units and
//     directions) and workloads;
//   - finalize() reports every catalog metric on every workload and flags
//     one a workload should have measured but did not;
//   - each output check passes a good result and trips on a deliberately
//     corrupted copy.
// Prints one line per failed expectation; exit 0 when there are none.
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>

#include "perfbench/checks.h"
#include "perfbench/metrics.h"
#include "src/report/json.h"
#include "src/report/serialize.h"
#include "src/sys/fdio.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-test FAILED: %s\n", what.c_str());
  }
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

void test_catalog() {
  std::set<std::string> names;
  for (bool trace : {false, true}) {
    for (const MetricSpec& m : trace ? per_layer_metrics() : end_to_end_metrics()) {
      expect(valid_metric_name(m.name) && m.name.size() <= 64, "metric name '" + m.name + "'");
      expect(valid_unit(m.unit), "unit of " + m.name);
      expect(m.better == "lower" || m.better == "higher", "direction of " + m.name);
      expect(names.insert(m.name).second, "metric " + m.name + " listed twice");
      bool some = false;
      for (const char* w : kWorkloads) {
        some = some || measured_on(m, w);
      }
      expect(some, "metric " + m.name + " is measured on no known workload");
    }
  }
  expect(!valid_metric_name("bad name") && !valid_metric_name("") &&
             !valid_metric_name("p99/us"),
         "valid_metric_name rejects bad names");
}

void test_benchmark_json(const std::string& path) {
  using lmb::report::JsonObject;
  using lmb::report::JsonValue;
  JsonValue doc;
  try {
    doc = lmb::report::parse_json(lmb::sys::read_file(path));
  } catch (const std::exception& e) {
    expect(false, path + " does not parse: " + e.what());
    return;
  }
  const JsonObject& root = doc.object();
  for (const auto& [key, specs] : {std::pair{"end_to_end", &end_to_end_metrics()},
                                   std::pair{"per_layer", &per_layer_metrics()}}) {
    const JsonValue* list = lmb::report::find(root, key);
    expect(list != nullptr, std::string(path) + " has no " + key);
    if (list == nullptr) {
      continue;
    }
    std::set<std::string> declared;
    for (const JsonValue& v : list->array()) {
      const JsonObject& m = v.object();
      const std::string name = lmb::report::find(m, "name")->str();
      declared.insert(name);
      const MetricSpec* spec = nullptr;
      for (const MetricSpec& s : *specs) {
        if (s.name == name) {
          spec = &s;
        }
      }
      expect(spec != nullptr, std::string(key) + " metric " + name + " in " + path +
                                  " is never emitted");
      if (spec != nullptr) {
        expect(lmb::report::find(m, "unit")->str() == spec->unit, "unit of " + name + " differs");
        expect(lmb::report::find(m, "better")->str() == spec->better,
               "direction of " + name + " differs");
      }
    }
    for (const MetricSpec& s : *specs) {
      expect(declared.count(s.name) == 1, std::string(key) + " metric " + s.name +
                                              " is emitted but not in " + path);
    }
  }
  std::set<std::string> workloads;
  for (const JsonValue& w : lmb::report::find(root, "workloads")->array()) {
    workloads.insert(lmb::report::find(w.object(), "name")->str());
  }
  expect(workloads == std::set<std::string>(std::begin(kWorkloads), std::end(kWorkloads)),
         "workloads in " + path + " differ from perfbench's");
}

void test_finalize() {
  for (const char* w : kWorkloads) {
    for (bool trace : {false, true}) {
      const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
      Outcome good;
      good.attempted = 1;
      for (const MetricSpec& m : specs) {
        if (measured_on(m, w)) {
          good.metrics[m.name] = 1.5;
        }
      }
      Outcome missing = good;
      Outcome nan = good;
      finalize(good, w, trace);
      expect(good.correct(), std::string("finalize flags a complete ") + w + " outcome");
      const std::string json = result_json(good, trace);
      for (const MetricSpec& m : specs) {
        expect(json.find("\"" + m.name + "\": {\"value\": ") != std::string::npos &&
                   good.metrics.count(m.name) == 1,
               std::string(w) + " result lacks " + m.name);
      }
      // Drop the first metric this workload measures.
      for (const MetricSpec& m : specs) {
        if (measured_on(m, w)) {
          missing.metrics.erase(m.name);
          nan.metrics[m.name] = std::nan("");
          break;
        }
      }
      finalize(missing, w, trace);
      expect(!missing.correct(), std::string("finalize misses a dropped ") + w + " metric");
      finalize(nan, w, trace);
      expect(!nan.correct(), std::string("finalize misses a NaN ") + w + " metric");
    }
  }
}

// A load result that passes every check: `n` requests over 4 connections,
// four 100 ms windows.
lmb::lat::LoadResult good_load(std::uint64_t n) {
  lmb::lat::LoadResult r;
  r.connections = 4;
  r.requests = r.total_requests = n;
  r.bytes_sent = r.bytes_received = n * 64;
  r.elapsed = 400 * lmb::kMillisecond;
  std::vector<double> raw;
  for (std::uint64_t i = 0; i < n; ++i) {
    const lmb::Nanos v = 20000 + static_cast<lmb::Nanos>((i * 7919) % 10000);
    r.rtt_hist.record(v);
    raw.push_back(static_cast<double>(v));
  }
  r.rtt_reservoir = lmb::Sample(raw);
  r.rtt_seen = n;
  for (int w = 0; w < 4; ++w) {
    lmb::obs::IntervalStats s;
    s.start = w * 100 * lmb::kMillisecond;
    s.end = (w + 1) * 100 * lmb::kMillisecond;
    s.requests = n / 4 + (w == 0 ? n % 4 : 0);
    r.intervals.push_back(std::move(s));
  }
  return r;
}

void test_load_checks() {
  const LoadExpect expect_echo{.echo = true, .intervals = true, .connections = 4, .requests = 1000};
  expect(check_load_result(good_load(1000), expect_echo).empty(), "a good load result passes");

  const std::vector<std::pair<std::string, std::function<void(lmb::lat::LoadResult&)>>> cases = {
      {"window sum off by one", [](auto& r) { r.intervals[1].requests += 1; }},
      {"window gap", [](auto& r) { r.intervals[1].end -= 1; }},
      {"first window late", [](auto& r) { r.intervals[0].start = 5; }},
      {"no windows", [](auto& r) { r.intervals.clear(); }},
      {"lost connection", [](auto& r) { r.errors = 1; }},
      {"missing connection", [](auto& r) { r.connections = 3; }},
      {"short pass", [](auto& r) { r.requests = r.total_requests = 999; }},
      {"warmup requests", [](auto& r) { r.total_requests += 1; }},
      {"echo bytes off", [](auto& r) { r.bytes_received -= 1; }},
      {"histogram count off", [](auto& r) { r.rtt_hist.record(25000); }},
      {"sampled reservoir", [](auto& r) { r.rtt_seen += 1; }},
      {"p50 disagrees", [](auto& r) {
         std::vector<double> v = r.rtt_reservoir.values();
         for (double& x : v) {
           x *= 1.01;
         }
         r.rtt_reservoir = lmb::Sample(v);
       }},
  };
  for (const auto& [name, corrupt] : cases) {
    lmb::lat::LoadResult r = good_load(1000);
    corrupt(r);
    expect(!check_load_result(r, expect_echo).empty(), "load check misses: " + name);
  }
  expect(check_rate_ratio(1.0).empty() && check_rate_ratio(0.985).empty(),
         "rate ratio near 1 passes");
  expect(!check_rate_ratio(0.97).empty() && !check_rate_ratio(1.03).empty(),
         "rate ratio check misses a 3% miss");
}

lmb::report::ResultBatch good_batch() {
  lmb::report::ResultBatch b;
  b.system = "selftest-host";
  b.timing = lmb::report::SuiteTiming{1234.5, 1, true, 3, 1};
  for (const char* name : {"lat_a", "bw_b"}) {
    lmb::RunResult r;
    r.name = name;
    r.category = "latency";
    r.wall_ms = 12.25;
    r.add("us", 0.1 + 1.0 / 3.0, "us");
    r.metadata["size"] = "64";
    b.results.push_back(std::move(r));
  }
  return b;
}

void test_suite_checks() {
  const std::vector<std::string> names = {"lat_a", "bw_b"};
  expect(check_suite_batch(good_batch(), names).empty(), "a good batch passes");
  const lmb::report::ResultBatch parsed =
      lmb::report::from_json(lmb::report::to_json(good_batch()));
  expect(check_round_trip(good_batch(), parsed).empty(),
         "a real to_json/from_json round trip passes");

  using BatchEdit = std::function<void(lmb::report::ResultBatch&)>;
  const std::vector<std::pair<std::string, BatchEdit>> cases = {
      {"failed benchmark", [](auto& b) {
         b.results[0].status = lmb::RunStatus::kError;
         b.results[0].error = "boom";
       }},
      {"NaN metric", [](auto& b) { b.results[1].metrics[0].value = std::nan(""); }},
      {"zero metric", [](auto& b) { b.results[1].metrics[0].value = 0; }},
      {"no metrics", [](auto& b) { b.results[1].metrics.clear(); }},
      {"missing benchmark", [](auto& b) { b.results.pop_back(); }},
      {"duplicate benchmark", [](auto& b) { b.results[1].name = "lat_a"; }},
  };
  for (const auto& [name, corrupt] : cases) {
    lmb::report::ResultBatch b = good_batch();
    corrupt(b);
    expect(!check_suite_batch(b, names).empty(), "suite check misses: " + name);
  }

  const std::vector<std::pair<std::string, BatchEdit>> trips = {
      {"metric value", [](auto& b) { b.results[0].metrics[0].value += 1e-12; }},
      {"metric unit", [](auto& b) { b.results[0].metrics[0].unit = "ms"; }},
      {"dropped result", [](auto& b) { b.results.pop_back(); }},
      {"metadata", [](auto& b) { b.results[1].metadata["size"] = "65"; }},
      {"wall time", [](auto& b) { b.results[1].wall_ms += 1; }},
      {"status", [](auto& b) { b.results[1].status = lmb::RunStatus::kTimeout; }},
      {"timing block", [](auto& b) { b.timing->cal_hits += 1; }},
      {"system", [](auto& b) { b.system += "x"; }},
  };
  for (const auto& [name, corrupt] : trips) {
    lmb::report::ResultBatch b = parsed;
    corrupt(b);
    expect(!check_round_trip(good_batch(), b).empty(), "round-trip check misses: " + name);
  }
}

}  // namespace

int run_self_test(const std::string& benchmark_json_path) {
  test_catalog();
  test_benchmark_json(benchmark_json_path);
  test_finalize();
  test_load_checks();
  test_suite_checks();
  std::printf("perfbench self-test: %s (%d failed)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
