// BenchService: the whole run_suite pipeline as a library, driven against
// a private registry of fast synthetic benchmarks.
#include "src/svc/bench_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/env.h"
#include "src/core/timing.h"
#include "src/db/cal_store.h"
#include "src/db/trend_store.h"
#include "src/report/json.h"
#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::svc {
namespace {

namespace fs = std::filesystem;

// A registry of instant benchmarks; `value` lets tests inject a step.
Registry make_registry(double lat_value = 10.0) {
  Registry registry;
  registry.add(BenchmarkInfo{
      .name = "fake_lat",
      .category = "latency",
      .description = "synthetic latency",
      .run = [lat_value](const Options&) { return RunResult().add("us", lat_value, "us"); },
  });
  registry.add(BenchmarkInfo{
      .name = "fake_bw",
      .category = "bandwidth",
      .description = "synthetic bandwidth",
      .run = [](const Options&) { return RunResult().add("mbs", 5000.0, "MB/s"); },
  });
  registry.add(BenchmarkInfo{
      .name = "fake_fail",
      .category = "latency",
      .description = "always throws",
      .run = [](const Options&) -> RunResult { throw std::runtime_error("boom"); },
  });
  return registry;
}

class BenchServiceTest : public ::testing::Test {
 protected:
  RunRequest base_request() {
    RunRequest req;
    req.names = {"fake_lat", "fake_bw"};
    req.use_cal_cache = false;
    return req;
  }
  sys::TempDir tmp_;
};

TEST_F(BenchServiceTest, RunsSelectedBenchmarksAndCountsMetrics) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunArtifacts artifacts = service.run(base_request());
  ASSERT_EQ(artifacts.batch.results.size(), 2u);
  EXPECT_EQ(artifacts.metric_count, 2u);
  EXPECT_EQ(artifacts.failed, 0);
  EXPECT_EQ(artifacts.exit_code(), 0);
  EXPECT_FALSE(artifacts.batch.system.empty());
  EXPECT_TRUE(artifacts.batch.environment.has_value());
  EXPECT_EQ(service.completed_runs(), 1);
}

TEST_F(BenchServiceTest, UnknownBenchmarkIsAUsageErrorBeforeAnythingRuns) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.names = {"fake_lat", "lat_typo"};
  try {
    service.run(req);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "no such benchmark 'lat_typo' (try --list)");
  }
  EXPECT_EQ(service.completed_runs(), 0);
}

TEST_F(BenchServiceTest, RunsAPlanOfEntriesInOneBatch) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.entries = {{"fake_lat", {"--msg=8"}}, {"fake_bw", {}}};
  std::vector<ServiceEvent> starts;
  RunArtifacts artifacts = service.run(req, [&](const ServiceEvent& event) {
    if (event.kind == ServiceEvent::Kind::kSuiteStart) {
      starts.push_back(event);
    }
  });
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].total, 4);
  ASSERT_EQ(artifacts.batch.results.size(), 4u);
  EXPECT_EQ(artifacts.batch.results[2].metadata.at("args"), "--msg=8");
  EXPECT_EQ(artifacts.batch.results[3].metadata.count("args"), 0u);
  EXPECT_EQ(service.completed_runs(), 1);

  req.entries = {{"no_such_bench", {}}};
  EXPECT_THROW(service.run(req), UsageError);
  EXPECT_EQ(service.completed_runs(), 1);
}

TEST_F(BenchServiceTest, EmptyCategoryMatchIsAUsageError) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req;
  req.category = "nonsense";
  req.use_cal_cache = false;
  try {
    service.run(req);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "no benchmarks in category 'nonsense' (try --list)");
  }
}

TEST_F(BenchServiceTest, FailingBenchmarkSetsExitCodeOne) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.names = {"fake_lat", "fake_fail"};
  RunArtifacts artifacts = service.run(req);
  EXPECT_EQ(artifacts.failed, 1);
  EXPECT_EQ(artifacts.exit_code(), 1);
}

TEST_F(BenchServiceTest, StreamsProgressEventsInOrder) {
  Registry registry = make_registry();
  BenchService service(registry);
  std::vector<ServiceEvent::Kind> kinds;
  int finishes = 0;
  service.run(base_request(), [&](const ServiceEvent& event) {
    kinds.push_back(event.kind);
    if (event.kind == ServiceEvent::Kind::kBenchFinish) {
      ++finishes;
      EXPECT_NE(event.result, nullptr);
      EXPECT_FALSE(event.name.empty());
    }
    if (event.kind == ServiceEvent::Kind::kSuiteStart) {
      EXPECT_EQ(event.total, 2);
      EXPECT_FALSE(event.system.empty());
    }
  });
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), ServiceEvent::Kind::kSuiteStart);
  EXPECT_EQ(kinds.back(), ServiceEvent::Kind::kSuiteEnd);
  EXPECT_EQ(finishes, 2);
}

TEST_F(BenchServiceTest, WritesRequestedOutputFiles) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.json_path = tmp_.path() + "/r.json";
  req.csv_path = tmp_.path() + "/r.csv";
  service.run(req);
  EXPECT_TRUE(fs::exists(req.json_path));
  EXPECT_TRUE(fs::exists(req.csv_path));
  // A removed flag is an error naming its replacement, or why it has none,
  // not a silent no-op.
  for (auto [flag, replacement] : {std::pair{"out", "--json=PATH"},
                                   std::pair{"trace-chrome", "--trace=PATH"},
                                   std::pair{"nanoscale", "EXPERIMENTS.md"},
                                   std::pair{"heatmap", "--interval-ms"},
                                   std::pair{"heatmap-json", "heatmap_loopback"},
                                   std::pair{"threads", "--bw-threads"},
                                   std::pair{"op", "rdwr and bzero"},
                                   std::pair{"compare-kernels", "lmbench_compare"}}) {
    try {
      RunRequest::from_options(Options::from_pairs({{flag, tmp_.path() + "/r.out"}}));
      ADD_FAILURE() << "expected UsageError for --" << flag;
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(replacement), std::string::npos) << e.what();
    }
  }
}

TEST_F(BenchServiceTest, EstablishesBaselineThenGates) {
  std::string store = tmp_.path() + "/baselines";
  {
    Registry registry = make_registry(10.0);
    BenchService service(registry);
    RunRequest req = base_request();
    req.baseline_path = store;
    RunArtifacts first = service.run(req);
    EXPECT_TRUE(first.baseline_established);
    EXPECT_EQ(first.baseline_seq, 1);
    EXPECT_TRUE(db::TrendStore(store).latest(first.batch.system).has_value());
    EXPECT_EQ(first.exit_code(), 0);
  }
  {
    // Second run regresses 10us -> 20us; the armed gate must trip (exit 3).
    Registry registry = make_registry(20.0);
    BenchService service(registry);
    RunRequest req = base_request();
    req.baseline_path = store;
    req.gate = true;
    RunArtifacts second = service.run(req);
    ASSERT_TRUE(second.compare.has_value());
    EXPECT_TRUE(second.gate_failed);
    EXPECT_EQ(second.exit_code(), 3);
  }
}

TEST_F(BenchServiceTest, BaselineDirectoryThatIsAlsoTheTrendStoreRecordsEachRunOnce) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.trend_dir = req.baseline_path = tmp_.path() + "/trends";
  req.save_baseline = true;
  EXPECT_EQ(service.run(req).trend_seq, 1);  // establishes the baseline
  EXPECT_EQ(service.run(req).trend_seq, 2);  // compares, then saves
  db::TrendStore store(req.trend_dir);
  EXPECT_EQ(store.runs(store.hosts()[0]).size(), 2u);
}

TEST_F(BenchServiceTest, AppendsToTrendStore) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.trend_dir = tmp_.path() + "/trends";
  EXPECT_EQ(service.run(req).trend_seq, 1);
  EXPECT_EQ(service.run(req).trend_seq, 2);
  db::TrendStore store(req.trend_dir);
  ASSERT_EQ(store.hosts().size(), 1u);
  EXPECT_EQ(store.runs(store.hosts()[0]).size(), 2u);
}

TEST_F(BenchServiceTest, FromOptionsMapsRunSuiteFlags) {
  Options opts = Options::from_pairs({{"only", "fake_lat,fake_bw"},
                                      {"jobs", "2"},
                                      {"timeout", "30"},
                                      {"json", "out.json"},
                                      {"gate", "2.5"},
                                      {"baseline", "b"},
                                      {"trend-store", "t"},
                                      {"no-cal-cache", "true"}});
  RunRequest req = RunRequest::from_options(opts);
  EXPECT_EQ(req.names, (std::vector<std::string>{"fake_lat", "fake_bw"}));
  EXPECT_EQ(req.jobs, 2);
  EXPECT_DOUBLE_EQ(req.timeout_sec, 30.0);
  EXPECT_EQ(req.json_path, "out.json");
  EXPECT_TRUE(req.gate);
  ASSERT_TRUE(req.gate_floor_pct.has_value());
  EXPECT_DOUBLE_EQ(*req.gate_floor_pct, 2.5);
  EXPECT_EQ(req.trend_dir, "t");
  EXPECT_FALSE(req.use_cal_cache);

  // Bare --gate keeps the default significance floor.
  RunRequest bare = RunRequest::from_options(Options::from_pairs({{"gate", "true"}}));
  EXPECT_TRUE(bare.gate);
  EXPECT_FALSE(bare.gate_floor_pct.has_value());
}

TEST_F(BenchServiceTest, MalformedOnlyListIsInvalidArgument) {
  EXPECT_THROW(RunRequest::from_options(Options::from_pairs({{"only", "a,,b"}})),
               std::invalid_argument);
}

TEST_F(BenchServiceTest, FromOptionsMapsClockFlag) {
  RunRequest def = RunRequest::from_options(Options::from_pairs({}));
  EXPECT_EQ(def.clock_source, ClockSource::kAuto);

  RunRequest req = RunRequest::from_options(Options::from_pairs({{"clock", "wall"}}));
  EXPECT_EQ(req.clock_source, ClockSource::kWall);

  EXPECT_THROW(RunRequest::from_options(Options::from_pairs({{"clock", "sundial"}})),
               UsageError);
}

// --jobs is range-checked before it is narrowed to int, not wrapped to 2.
TEST_F(BenchServiceTest, FromOptionsRejectsJobsBeyondInt) {
  EXPECT_EQ(RunRequest::from_options(Options::from_pairs({{"jobs", "4"}})).jobs, 4);
  EXPECT_THROW(RunRequest::from_options(Options::from_pairs({{"jobs", "4294967298"}})),
               std::invalid_argument);
}

// Two benchmarks that actually call measure(), so the run's clock selection
// reaches a Measurement.
Registry make_timed_registry() {
  Registry registry;
  for (const char* name : {"fake_timed", "fake_timed2"}) {
    registry.add(BenchmarkInfo{
        .name = name,
        .category = "latency",
        .description = "actually calls measure()",
        .run =
            [](const Options&) {
              volatile int x = 0;
              Measurement m = measure(
                  [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i) x = x + 1;
                  },
                  TimingPolicy::quick());
              RunResult r;
              r.add("ns", m.ns_per_op, "ns");
              r.measurement = m;
              return r;
            },
    });
  }
  return registry;
}

RunRequest timed_request(ClockSource clock) {
  RunRequest req;
  req.names = {"fake_timed", "fake_timed2"};
  req.use_cal_cache = false;
  req.clock_source = clock;
  return req;
}

std::map<std::string, std::string> args_of(const obs::TraceEvent& event) {
  return {event.args.begin(), event.args.end()};
}

TEST_F(BenchServiceTest, ClockSourceFlowsIntoEveryMeasurement) {
  // Both resolve to wall everywhere: a forced wall, and a tsc request
  // vetoed by LMBPP_NO_TSC.
  const std::pair<ClockSource, bool> cases[] = {{ClockSource::kWall, false},
                                                {ClockSource::kTsc, true}};
  for (auto [requested, no_tsc] : cases) {
    Registry registry = make_timed_registry();
    BenchService service(registry);
    if (no_tsc) {
      ASSERT_EQ(setenv("LMBPP_NO_TSC", "1", 1), 0);
    }
    RunRequest req = timed_request(requested);
    req.collect_trace = true;
    RunArtifacts artifacts = service.run(req);
    ASSERT_EQ(unsetenv("LMBPP_NO_TSC"), 0);
    std::map<std::string, std::string> select;
    for (const obs::TraceEvent& e : artifacts.trace_events) {
      if (e.cat == "clock" && e.name == "select") {
        select = args_of(e);
      }
    }
    ASSERT_EQ(select.count("overhead_ns"), 1u);
    ASSERT_EQ(artifacts.batch.results.size(), 2u);
    for (const RunResult& r : artifacts.batch.results) {
      ASSERT_TRUE(r.measurement.has_value()) << r.name;
      EXPECT_EQ(r.measurement->clock_source, "wall") << r.name << " no_tsc=" << no_tsc;
      // The loop subtracts exactly the read cost the run reported selecting.
      EXPECT_EQ(r.measurement->clock_overhead_ns, std::stoll(select["overhead_ns"])) << r.name;
    }
  }
}

// --clock=auto --trace: clock/select says what was asked for and what ran,
// with a measured, non-negative read overhead, and every measurement carries
// that source.
TEST_F(BenchServiceTest, TraceCarriesTheSelectedClock) {
  Registry registry = make_timed_registry();
  BenchService service(registry);
  RunRequest req = timed_request(ClockSource::kAuto);
  req.collect_trace = true;
  RunArtifacts artifacts = service.run(req);

  std::map<std::string, std::string> select;
  for (const obs::TraceEvent& e : artifacts.trace_events) {
    if (e.cat == "clock" && e.name == "select") {
      select = args_of(e);
    }
  }
  ASSERT_FALSE(select.empty()) << "no clock/select event in the trace";
  EXPECT_EQ(select["requested"], "auto");
  const std::string source = select["source"];
  ASSERT_TRUE(source == "tsc" || source == "wall") << source;
  ASSERT_EQ(select.count("overhead_ns"), 1u);
  EXPECT_GE(std::stoll(select["overhead_ns"]), 0);
  if (source == "tsc") {
    // Every tsc number traces back to how well its conversion was pinned.
    EXPECT_GT(std::stod(select["tsc_mhz"]), 0.0);
    EXPECT_GT(std::stod(select["tsc_error_ppm"]), 0.0);
  }

  for (const RunResult& r : artifacts.batch.results) {
    ASSERT_TRUE(r.measurement.has_value()) << r.name;
    EXPECT_EQ(r.measurement->clock_source, source) << r.name;
  }
}

// run_suite --jobs=2 --counters --trace=PATH --json=PATH with counters
// unavailable (LMBPP_NO_COUNTERS): the run still succeeds, the trace file is
// a Chrome trace covering the suite, calibration and timing layers, and
// every measurement carries explicit null counter fields, never zeros.
TEST_F(BenchServiceTest, TracedCounterRunWritesAChromeTraceAndNullCounters) {
  Registry registry = make_timed_registry();
  BenchService service(registry);
  RunRequest req = timed_request(ClockSource::kAuto);
  req.jobs = 2;
  req.counters = true;
  req.collect_trace = true;
  req.trace_path = tmp_.path() + "/trace.json";
  req.json_path = tmp_.path() + "/traced.json";
  ASSERT_EQ(setenv("LMBPP_NO_COUNTERS", "1", 1), 0);
  RunArtifacts artifacts = service.run(req);
  ASSERT_EQ(unsetenv("LMBPP_NO_COUNTERS"), 0);
  EXPECT_EQ(artifacts.exit_code(), 0);

  report::JsonValue trace = report::parse_json(sys::read_file(req.trace_path));
  const report::JsonObject& doc = trace.object();
  ASSERT_NE(report::find(doc, "schema"), nullptr);
  EXPECT_EQ(report::find(doc, "schema")->str(), "lmbenchpp.trace.v1");
  ASSERT_NE(report::find(doc, "traceEvents"), nullptr);
  const report::JsonArray& events = report::find(doc, "traceEvents")->array();
  ASSERT_FALSE(events.empty());
  std::set<std::string> cats;
  for (const report::JsonValue& event : events) {
    const report::JsonObject& e = event.object();
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      ASSERT_NE(report::find(e, key), nullptr) << "event without " << key;
    }
    const std::string& ph = report::find(e, "ph")->str();
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      EXPECT_NE(report::find(e, "dur"), nullptr) << report::find(e, "name")->str();
    }
    cats.insert(report::find(e, "cat")->str());
  }
  for (const char* cat : {"suite", "calibration", "timing"}) {
    EXPECT_EQ(cats.count(cat), 1u) << "no " << cat << " events";
  }

  report::JsonValue results = report::parse_json(sys::read_file(req.json_path));
  const report::JsonValue* env = report::find(results.object(), "environment");
  ASSERT_NE(env, nullptr);
  EXPECT_FALSE(env->is_null());
  const report::JsonArray& entries = report::find(results.object(), "results")->array();
  ASSERT_EQ(entries.size(), 2u);
  for (const report::JsonValue& entry : entries) {
    const report::JsonValue* m = report::find(entry.object(), "measurement");
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->is_null());
    for (const char* key : {"ipc", "cache_miss_rate", "counters"}) {
      const report::JsonValue* v = report::find(m->object(), key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->is_null()) << key;
    }
  }
}

// Two fresh services on one cal-cache path: the second can only be warm by
// reading the file the first wrote.
TEST_F(BenchServiceTest, CalibrationCachePersistsAcrossServices) {
  // One iteration outlasts the quick policy's 1 ms interval, so the cached
  // count revalidates every time: warm hits do not depend on timing luck.
  Registry registry;
  registry.add(BenchmarkInfo{
      .name = "fake_sleepy",
      .category = "latency",
      .description = "sleeps 2 ms per iteration",
      .run = [](const Options&) {
        return RunResult{}.with(measure(
            [](std::uint64_t n) { std::this_thread::sleep_for(std::chrono::milliseconds(2 * n)); },
            TimingPolicy::quick()));
      },
  });
  RunRequest req;
  req.names = {"fake_sleepy"};
  req.cal_cache_path = tmp_.path() + "/cal.db";
  RunArtifacts cold = BenchService(registry).run(req);
  EXPECT_FALSE(cold.cal_warm);
  EXPECT_EQ(cold.cal_hits, 0);
  EXPECT_TRUE(cold.cal_save_error.empty()) << cold.cal_save_error;
  CalibrationCache reread;  // loads only a calcache.v1 file for this host
  EXPECT_GT(db::load_calibration_cache(req.cal_cache_path, host_signature(), reread), 0u);
  RunArtifacts warm = BenchService(registry).run(req);
  EXPECT_TRUE(warm.cal_warm);
  EXPECT_GT(warm.cal_hits, 0);
}

TEST_F(BenchServiceTest, TscFallbackWarningIsExplicit) {
  ASSERT_EQ(setenv("LMBPP_NO_TSC", "1", 1), 0);
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.clock_source = ClockSource::kTsc;
  bool saw_warning = false;
  service.run(req, [&](const ServiceEvent& event) {
    if (event.kind != ServiceEvent::Kind::kSuiteStart) {
      return;
    }
    for (const std::string& w : event.warnings) {
      if (w.find("--clock=tsc") != std::string::npos &&
          w.find("LMBPP_NO_TSC") != std::string::npos) {
        saw_warning = true;
      }
    }
  });
  EXPECT_TRUE(saw_warning);
  ASSERT_EQ(unsetenv("LMBPP_NO_TSC"), 0);
}

}  // namespace
}  // namespace lmb::svc
