// The bandwidth benchmarks that fork their writer once per measurement
// (bw_pipe, bw_unix) run through the one timing loop: each result carries
// the measurement of the selected clock and its timing/measure span.  No
// peer outlives its benchmark, also when two benchmarks run at once beside
// lat_ctx, whose ring still forks per timed run.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cerrno>
#include <string>
#include <utility>
#include <vector>

#include "src/core/options.h"
#include "src/core/suite_runner.h"
#include "src/core/tsc_clock.h"
#include "src/svc/bench_service.h"

namespace lmb {
namespace {

const std::vector<std::string> kStreamBenches = {"bw_pipe", "bw_unix"};

bool no_child_left() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(PeerBenchTest, ResultsCarryTheSelectedClockAndTheirMeasureSpans) {
  std::vector<std::pair<ClockSource, std::string>> clocks = {{ClockSource::kWall, "wall"}};
  if (!select_clock(ClockSource::kTsc).fell_back) {
    clocks.emplace_back(ClockSource::kTsc, "tsc");
  }
  for (const auto& [source, name] : clocks) {
    svc::RunRequest req;
    req.names = kStreamBenches;
    req.bench_options = Options::from_pairs({{"quick", "true"}});
    req.use_cal_cache = false;
    req.clock_source = source;
    req.collect_trace = true;
    svc::RunArtifacts artifacts = svc::BenchService().run(req);

    ASSERT_EQ(artifacts.batch.results.size(), kStreamBenches.size()) << name;
    for (const RunResult& r : artifacts.batch.results) {
      ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
      ASSERT_TRUE(r.measurement.has_value()) << r.name << " --clock=" << name;
      EXPECT_EQ(r.measurement->clock_source, name) << r.name;
      EXPECT_GT(r.measurement->repetitions, 0) << r.name;
      int spans = 0;
      for (const obs::TraceEvent& e : artifacts.trace_events) {
        spans += e.cat == "timing" && e.name == "measure" && e.bench == r.name;
      }
      EXPECT_EQ(spans, 1) << r.name << " --clock=" << name;
    }
    EXPECT_TRUE(no_child_left()) << name;
  }
}

TEST(PeerBenchTest, TwoJobsLeaveNoPeerRunning) {
  SuiteConfig config;
  config.names = {"bw_pipe", "bw_unix", "lat_ctx"};
  config.options = Options::from_pairs({{"quick", "true"}});
  config.jobs = 2;
  std::vector<RunResult> results = SuiteRunner().run(config);
  ASSERT_EQ(results.size(), config.names.size());
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.name << ": " << r.error;
    EXPECT_GT(r.metrics.at(0).value, 0.0) << r.name;
  }
  EXPECT_TRUE(no_child_left());
}

}  // namespace
}  // namespace lmb
