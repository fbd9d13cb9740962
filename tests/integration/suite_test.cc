// End-to-end: every registered benchmark runs under --quick and produces a
// typed result with real metric values — the "build it, run it, get a
// table" promise of §3.5 exercised in one place.
#include <gtest/gtest.h>
#include <sys/select.h>

#include <climits>
#include <cstdint>
#include <ostream>
#include <string>

#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/core/suite_runner.h"
#include "src/db/trend_store.h"
#include "src/obs/run_env.h"
#include "src/report/compare.h"
#include "src/report/serialize.h"
#include "src/report/summary.h"
#include "src/sys/temp.h"

namespace lmb {
namespace {

class SuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteTest, RunsQuickAndReturnsTypedResult) {
  const BenchmarkInfo* info = Registry::global().find(GetParam());
  ASSERT_NE(info, nullptr);
  Options opts = Options::from_pairs({{"quick", "true"}});
  RunResult result = info->run(opts);
  EXPECT_EQ(result.name, info->name);
  EXPECT_EQ(result.category, info->category);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.summary().empty()) << info->name;
  // Every benchmark except knee-detection sweeps must emit at least one
  // metric; lat_tlb may legitimately find no knee on a huge-TLB machine.
  if (info->name != "lat_tlb") {
    EXPECT_FALSE(result.metrics.empty()) << info->name;
    for (const Metric& m : result.metrics) {
      EXPECT_FALSE(m.key.empty()) << info->name;
      EXPECT_FALSE(m.unit.empty()) << info->name;
    }
  }
}

std::vector<std::string> all_benchmark_names() {
  std::vector<std::string> names;
  for (const BenchmarkInfo* info : Registry::global().list()) {
    names.push_back(info->name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteTest, ::testing::ValuesIn(all_benchmark_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// A count flag is range-checked as the parsed 64-bit value before it is
// narrowed to int: --n=4294967297 must not wrap to 1 and report ok, nor
// --procs=4294967298 to 2 and run a 2-process ring.  Every value tried
// throws before the benchmark starts a process.
struct CountFlag {
  const char* bench;
  const char* key;
  std::int64_t lo;
  std::int64_t hi;
};

void PrintTo(const CountFlag& flag, std::ostream* os) {
  *os << flag.bench << " --" << flag.key << " [" << flag.lo << ", " << flag.hi << "]";
}

class CountFlagTest : public ::testing::TestWithParam<CountFlag> {};

Options parse_flag(const std::string& arg) {
  const char* argv[] = {"run_suite", arg.c_str()};
  return Options::parse(2, argv);
}

TEST_P(CountFlagTest, OutOfRangeThrowsNamingKeyAndRange) {
  const CountFlag& flag = GetParam();
  const BenchmarkInfo* info = Registry::global().find(flag.bench);
  ASSERT_NE(info, nullptr);
  const std::string key = std::string("--") + flag.key;
  const std::string range = "[" + std::to_string(flag.lo) + ", " + std::to_string(flag.hi) + "]";
  // Below, above, and one that wraps to the lowest valid count.
  for (std::int64_t n : {flag.lo - 1, flag.hi + 1, (std::int64_t{1} << 32) + flag.lo}) {
    try {
      info->run(parse_flag(key + "=" + std::to_string(n)));
      ADD_FAILURE() << info->name << " accepted " << key << "=" << n;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(range), std::string::npos) << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RangeCheckedCounts, CountFlagTest,
    ::testing::Values(CountFlag{"lat_connect", "n", 1, 128},
                      CountFlag{"lat_select", "n", 1, FD_SETSIZE},
                      CountFlag{"lat_fork", "n", 1, INT_MAX},
                      CountFlag{"lat_exec", "n", 1, INT_MAX},
                      CountFlag{"lat_sh", "n", 1, INT_MAX},
                      CountFlag{"lat_ctx", "procs", 2, 64},
                      CountFlag{"bw_pipe", "reps", 1, INT_MAX},
                      CountFlag{"bw_tcp", "reps", 1, INT_MAX},
                      CountFlag{"bw_unix", "reps", 1, INT_MAX},
                      CountFlag{"lat_fs", "files", 1, INT_MAX},
                      CountFlag{"lat_tcp_n", "connections", 1, INT_MAX}),
    [](const ::testing::TestParamInfo<CountFlag>& info) { return std::string(info.param.bench); });

TEST(CountFlagCapTest, LatConnectRunsAtItsCap) {
  RunResult result = Registry::global().find("lat_connect")->run(parse_flag("--n=128"));
  EXPECT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.measurement.has_value());
  EXPECT_EQ(result.measurement->repetitions, 128);
}

TEST(SuiteInventoryTest, SummaryBenchmarksAreRegistered) {
  for (const std::string& name : report::summary_benchmarks()) {
    EXPECT_NE(Registry::global().find(name), nullptr) << name;
  }
}

TEST(SuiteInventoryTest, CoversEveryPaperSection) {
  Registry& reg = Registry::global();
  EXPECT_GE(reg.list("bandwidth").size(), 6u);  // §5
  EXPECT_GE(reg.list("latency").size(), 15u);   // §6
  EXPECT_GE(reg.list("disk").size(), 1u);       // §6.9
}

TEST(SuiteRunnerIntegrationTest, QuickLatencySubsetYieldsRealMetricValues) {
  // A cheap end-to-end pass through the real registry: the three syscall
  // benchmarks must produce positive, finite latencies.
  SuiteRunner runner;
  SuiteConfig config;
  config.names = {"lat_getpid", "lat_syscall", "lat_select"};
  config.options = Options::from_pairs({{"quick", "true"}});
  std::vector<RunResult> results = runner.run(config);
  ASSERT_EQ(results.size(), 3u);
  for (const RunResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
    ASSERT_FALSE(r.metrics.empty()) << r.name;
    EXPECT_GT(r.metrics[0].value, 0.0) << r.name;
    EXPECT_GT(r.wall_ms, 0.0) << r.name;
  }
}

// The regression-gate pipeline end to end: run a real subset, persist it
// in the trend store, rerun, and compare.  The baseline read back must
// compare exactly like the batch that was stored; the self-compare must
// pass the generous in-test gate while a synthetically degraded copy of
// the same batch must trip it — the noise calibration run_suite
// --baseline --gate relies on, minus the process boundary.
TEST(SuiteRunnerIntegrationTest, BaselineCompareGateSelfConsistent) {
  SuiteConfig config;
  config.names = {"lat_getpid", "lat_syscall"};
  config.options = Options::from_pairs({{"quick", "true"}});
  SuiteRunner runner;
  report::ResultBatch first{"test-host", runner.run(config), {}, obs::capture_run_environment()};
  report::ResultBatch second{"test-host", runner.run(config), {}, obs::capture_run_environment()};
  ASSERT_EQ(first.results.size(), 2u);
  ASSERT_EQ(second.results.size(), 2u);
  // A clock switch and a config change on one side, so the clock-mismatch
  // and environment lists have content.
  ASSERT_TRUE(second.results[0].measurement.has_value());
  second.results[0].measurement->clock_source = "sundial";
  second.environment->governor = "test-governor";

  sys::TempDir tmp("lmb_gate");
  db::TrendStore store(tmp.path() + "/trends");
  store.append(first);
  std::optional<report::ResultBatch> baseline = store.latest("test-host");
  ASSERT_TRUE(baseline.has_value());

  // The compare document carries every delta's key, values, noise_rel,
  // threshold_rel and class, the environment deltas and the clock
  // mismatches, all with round-trip-exact numbers.
  report::CompareReport direct = report::compare_batches(first, second);
  ASSERT_FALSE(direct.env_deltas.empty());
  ASSERT_FALSE(direct.clock_mismatches.empty());
  EXPECT_EQ(report::compare_to_json(report::compare_batches(*baseline, second)),
            report::compare_to_json(direct));

  // Syscall latencies on a shared test machine scatter well past the
  // default 5% floor; a gate meant for back-to-back runs needs slack.
  report::CompareThresholds loose;
  loose.floor_rel = 2.0;  // 200%: only catastrophic changes count
  loose.fallback_noise_rel = 0.5;
  report::CompareReport self = report::compare_batches(*baseline, second, loose);
  EXPECT_FALSE(self.has_regressions()) << render_compare_table(self);
  EXPECT_EQ(self.missing, 0);

  report::ResultBatch degraded = report::from_json(report::to_json(second));
  for (RunResult& r : degraded.results) {
    for (Metric& m : r.metrics) {
      m.value *= 10.0;  // an order of magnitude beyond the floor
    }
  }
  // The degradation check must be deterministic: under heavy load the
  // *measured* noise interval can legitimately dwarf even a 10x delta, so
  // gate on the fixed floor alone.
  report::CompareThresholds floor_only = loose;
  floor_only.sigmas = 0.0;
  floor_only.fallback_noise_rel = 0.0;
  report::CompareReport flagged = report::compare_batches(*baseline, degraded, floor_only);
  EXPECT_TRUE(flagged.has_regressions()) << render_compare_table(flagged);
}

}  // namespace
}  // namespace lmb
