// SuiteRunner contract: timeouts, failure isolation, parallel scheduling,
// and exclusive-category serialization.
#include "src/core/suite_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>

#include "src/core/registry.h"
#include "src/core/timing.h"

namespace lmb {
namespace {

using std::chrono::milliseconds;

BenchmarkInfo make(const std::string& name, const std::string& category,
                   std::function<RunResult(const Options&)> run) {
  BenchmarkInfo info;
  info.name = name;
  info.category = category;
  info.description = "test entry";
  info.run = std::move(run);
  return info;
}

RunResult quick_ok() {
  RunResult r;
  r.add("us", 1.0, "us");
  return r;
}

TEST(SuiteRunnerTest, RunsEverySelectedBenchmarkAndStampsIdentity) {
  Registry reg;
  reg.add(make("alpha", "latency", [](const Options&) { return quick_ok(); }));
  reg.add(make("beta", "bandwidth", [](const Options&) { return quick_ok(); }));

  SuiteRunner runner(reg);
  std::vector<RunResult> results = runner.run(SuiteConfig{});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "alpha");
  EXPECT_EQ(results[0].category, "latency");
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].name, "beta");
  EXPECT_GT(results[0].wall_ms, 0.0);
}

TEST(SuiteRunnerTest, CategoryFilterAndExplicitNames) {
  Registry reg;
  reg.add(make("a", "latency", [](const Options&) { return quick_ok(); }));
  reg.add(make("b", "bandwidth", [](const Options&) { return quick_ok(); }));

  SuiteRunner runner(reg);
  SuiteConfig by_category;
  by_category.category = "bandwidth";
  auto results = runner.run(by_category);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "b");

  SuiteConfig by_name;
  by_name.names = {"a"};
  results = runner.run(by_name);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "a");

  SuiteConfig unknown;
  unknown.names = {"nope"};
  EXPECT_THROW(runner.run(unknown), std::invalid_argument);
}

TEST(SuiteRunnerTest, PlanEntriesRunWithTheirArgsAndCarryThem) {
  Registry reg;
  reg.add(make("echo", "latency", [](const Options& opts) {
    RunResult r;
    r.add("size", static_cast<double>(opts.get_size("size", 1)), "count");
    r.metadata["quick"] = opts.quick() ? "yes" : "no";
    return r;
  }));
  SuiteRunner runner(reg);
  SuiteConfig config;
  config.options = Options::from_pairs({{"quick", "true"}, {"size", "2"}});
  config.names = {"echo"};
  config.entries = {{"echo", {"--size=4k"}}, {"echo", {"--size=8", "--quick=false"}}};
  std::vector<RunResult> results = runner.run(config);
  ASSERT_EQ(results.size(), 3u);
  // A bare name runs with the suite's options and records no args, so its
  // result is what it was before entries existed.
  EXPECT_EQ(*results[0].metric("size"), 2.0);
  EXPECT_EQ(results[0].metadata.count("args"), 0u);
  EXPECT_EQ(results[0].metadata.at("quick"), "yes");
  // An entry's args override the suite's options and ride along.
  EXPECT_EQ(*results[1].metric("size"), 4096.0);
  EXPECT_EQ(results[1].metadata.at("args"), "--size=4k");
  EXPECT_EQ(results[1].metadata.at("quick"), "yes");
  EXPECT_EQ(*results[2].metric("size"), 8.0);
  EXPECT_EQ(results[2].metadata.at("args"), "--size=8 --quick=false");
  EXPECT_EQ(results[2].metadata.at("quick"), "no");

  config.entries = {{"echo", {"size=1"}}};
  EXPECT_THROW(runner.run(config), std::invalid_argument);
  config.entries = {{"nope", {}}};
  EXPECT_THROW(runner.run(config), std::invalid_argument);
}

TEST(SuiteRunnerTest, ThrowingBenchmarkDoesNotStopTheSuite) {
  Registry reg;
  reg.add(make("bad", "latency", [](const Options&) -> RunResult {
    throw std::runtime_error("deliberate failure");
  }));
  reg.add(make("good", "latency", [](const Options&) { return quick_ok(); }));

  SuiteRunner runner(reg);
  std::vector<RunResult> results = runner.run(SuiteConfig{});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, RunStatus::kError);
  EXPECT_NE(results[0].error.find("deliberate failure"), std::string::npos);
  EXPECT_TRUE(results[1].ok());
}

TEST(SuiteRunnerTest, HangingBenchmarkTimesOutAndOthersStillRun) {
  Registry reg;
  std::atomic<bool> stop{false};
  std::atomic<bool> hang_returned{false};
  reg.add(make("hang", "latency", [&](const Options&) -> RunResult {
    while (!stop.load()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    hang_returned.store(true);
    return quick_ok();
  }));
  reg.add(make("zz_fine", "latency", [](const Options&) { return quick_ok(); }));

  SuiteRunner runner(reg);
  SuiteConfig config;
  config.timeout_sec = 0.1;
  std::vector<RunResult> results = runner.run(config);
  stop.store(true);  // release the abandoned thread before the registry dies

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "hang");
  EXPECT_EQ(results[0].status, RunStatus::kTimeout);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[1].ok());
  // Wait for the detached thread to leave the benchmark body while the
  // registry and the captured atomics are still alive.
  for (int i = 0; i < 1000 && !hang_returned.load(); ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_TRUE(hang_returned.load());
  std::this_thread::sleep_for(milliseconds(20));  // let it exit info.run entirely
}

TEST(SuiteRunnerTest, ParallelJobsProduceSameNamesAsSerial) {
  Registry reg;
  for (char c = 'a'; c <= 'l'; ++c) {
    reg.add(make(std::string(1, c), "latency", [](const Options&) { return quick_ok(); }));
  }
  SuiteRunner runner(reg);

  SuiteConfig serial;
  SuiteConfig parallel;
  parallel.jobs = 4;
  std::vector<RunResult> serial_results = runner.run(serial);
  std::vector<RunResult> parallel_results = runner.run(parallel);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].name, parallel_results[i].name) << i;
    EXPECT_TRUE(parallel_results[i].ok()) << parallel_results[i].name;
  }
}

TEST(SuiteRunnerTest, ExclusiveCategoryBenchmarksNeverOverlap) {
  Registry reg;
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::atomic<int> latency_active{0};
  for (int i = 0; i < 6; ++i) {
    reg.add(make("excl_" + std::to_string(i), "bandwidth", [&](const Options&) {
      int now = ++active;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(milliseconds(10));
      --active;
      return quick_ok();
    }));
  }
  // Non-exclusive benchmarks may overlap freely with the exclusive ones.
  for (int i = 0; i < 6; ++i) {
    reg.add(make("lat_" + std::to_string(i), "latency", [&](const Options&) {
      ++latency_active;
      std::this_thread::sleep_for(milliseconds(5));
      return quick_ok();
    }));
  }

  SuiteRunner runner(reg);
  SuiteConfig config;
  config.jobs = 4;
  std::vector<RunResult> results = runner.run(config);

  EXPECT_EQ(results.size(), 12u);
  EXPECT_EQ(max_active.load(), 1) << "two exclusive-category benchmarks overlapped";
  EXPECT_EQ(latency_active.load(), 6);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.name;
  }
}

TEST(SuiteRunnerTest, ProgressEventsFireStartAndFinishForEachBenchmark) {
  Registry reg;
  reg.add(make("one", "latency", [](const Options&) { return quick_ok(); }));
  reg.add(make("two", "latency", [](const Options&) { return quick_ok(); }));

  SuiteRunner runner(reg);
  std::vector<std::string> events;
  runner.set_progress([&](const SuiteEvent& event) {
    events.push_back(std::string(event.kind == SuiteEvent::Kind::kStart ? "start:" : "finish:") +
                     event.name);
    EXPECT_EQ(event.total, 2);
    if (event.kind == SuiteEvent::Kind::kFinish) {
      ASSERT_NE(event.result, nullptr);
      EXPECT_TRUE(event.result->ok());
    }
  });
  runner.run(SuiteConfig{});
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], "start:one");
  EXPECT_EQ(events[1], "finish:one");
  EXPECT_EQ(events[2], "start:two");
  EXPECT_EQ(events[3], "finish:two");
}

TEST(SuiteRunnerTest, CalibrationCacheFeedsMetadataAndSecondRunHits) {
  // The benchmark body measures against its own scripted clock; the scope
  // set up by the runner still routes calibration through the suite cache.
  class ScriptedClock final : public Clock {
   public:
    Nanos now() const override { return now_; }
    void advance(Nanos d) { now_ += d; }

   private:
    Nanos now_ = 0;
  };

  Registry reg;
  reg.add(make("measured", "latency", [](const Options&) {
    ScriptedClock clock;
    TimingPolicy policy;
    policy.min_interval = kMillisecond;
    policy.warmup_runs = 0;
    measure([&](std::uint64_t iters) { clock.advance(static_cast<Nanos>(iters) * 1000); },
            policy, clock);
    return quick_ok();
  }));

  SuiteRunner runner(reg);
  CalibrationCache cache;
  SuiteConfig config;
  config.cal_cache = &cache;

  std::vector<RunResult> cold = runner.run(config);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].metadata.at("cal_hits"), "0");
  EXPECT_EQ(cold[0].metadata.at("cal_misses"), "1");
  ASSERT_TRUE(cache.expected_wall_ms("measured").has_value());
  EXPECT_GT(*cache.expected_wall_ms("measured"), 0.0);

  std::vector<RunResult> warm = runner.run(config);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].metadata.at("cal_hits"), "1");
  EXPECT_EQ(warm[0].metadata.at("cal_misses"), "0");
}

TEST(SuiteRunnerTest, NoCacheMeansNoCalMetadata) {
  Registry reg;
  reg.add(make("plain", "latency", [](const Options&) { return quick_ok(); }));
  SuiteRunner runner(reg);
  std::vector<RunResult> results = runner.run(SuiteConfig{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metadata.count("cal_hits"), 0u);
  EXPECT_EQ(results[0].metadata.count("cal_misses"), 0u);
}

TEST(SuiteRunnerTest, ParallelClaimsLongestExpectedFirst) {
  Registry reg;
  std::mutex mu;
  std::vector<std::string> starts;
  for (const char* name : {"a_short", "b_long", "c_medium", "d_quick"}) {
    reg.add(make(name, "latency", [&, name](const Options&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        starts.push_back(name);
      }
      std::this_thread::sleep_for(milliseconds(30));
      return quick_ok();
    }));
  }

  CalibrationCache cache;
  cache.record_wall_ms("a_short", 10.0);
  cache.record_wall_ms("b_long", 500.0);
  cache.record_wall_ms("c_medium", 300.0);
  cache.record_wall_ms("d_quick", 20.0);

  SuiteRunner runner(reg);
  SuiteConfig config;
  config.jobs = 2;
  config.cal_cache = &cache;
  std::vector<RunResult> results = runner.run(config);

  // Results stay name-sorted regardless of claim order.
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].name, "a_short");
  EXPECT_EQ(results[3].name, "d_quick");

  // Both workers grab the two longest-expected benchmarks first.
  ASSERT_EQ(starts.size(), 4u);
  std::set<std::string> first_two(starts.begin(), starts.begin() + 2);
  EXPECT_TRUE(first_two.count("b_long")) << starts[0] << "," << starts[1];
  EXPECT_TRUE(first_two.count("c_medium")) << starts[0] << "," << starts[1];
}

TEST(SuiteRunnerTest, UnknownDurationsClaimBeforeKnownOnes) {
  Registry reg;
  std::mutex mu;
  std::vector<std::string> starts;
  for (const char* name : {"known_long", "known_short", "mystery"}) {
    reg.add(make(name, "latency", [&, name](const Options&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        starts.push_back(name);
      }
      std::this_thread::sleep_for(milliseconds(30));
      return quick_ok();
    }));
  }
  CalibrationCache cache;
  cache.record_wall_ms("known_long", 10'000.0);
  cache.record_wall_ms("known_short", 10.0);

  SuiteRunner runner(reg);
  SuiteConfig config;
  config.jobs = 2;
  config.cal_cache = &cache;
  runner.run(config);

  // The benchmark with no history might be the long pole: it sorts ahead of
  // every recorded duration (infinite expected), so the two workers pick up
  // mystery and known_long first and known_short runs last.
  ASSERT_EQ(starts.size(), 3u);
  std::set<std::string> first_two(starts.begin(), starts.begin() + 2);
  EXPECT_TRUE(first_two.count("mystery")) << starts[0] << "," << starts[1];
  EXPECT_TRUE(first_two.count("known_long")) << starts[0] << "," << starts[1];
}

TEST(RunResultTest, SummaryFormatsMetricsStatusesAndDisplayOverride) {
  RunResult ok;
  ok.add("us", 12.34, "us");
  EXPECT_EQ(ok.summary(), "12.3 us");

  RunResult multi;
  multi.add("create_us", 110.0, "us").add("delete_us", 9.5, "us");
  EXPECT_EQ(multi.summary(), "create_us 110 us, delete_us 9.50 us");

  RunResult overridden;
  overridden.add("us", 1.0, "us");
  overridden.display = "custom line";
  EXPECT_EQ(overridden.summary(), "custom line");

  RunResult failed = RunResult::failure("boom");
  EXPECT_EQ(failed.summary(), "error: boom");
  EXPECT_FALSE(failed.ok());

  EXPECT_EQ(ok.metric("us").value_or(0), 12.34);
  EXPECT_FALSE(ok.metric("missing").has_value());
}

}  // namespace
}  // namespace lmb
