#include "src/report/summary.h"

#include <gtest/gtest.h>

#include <limits>

namespace lmb::report {
namespace {

// One latency row (lat_pipe, us) and one bandwidth row (bw_pipe, MB/s).
ResultBatch batch(const std::string& system, double lat_us, double bw_mbs) {
  ResultBatch b{system,
                {RunResult{}.add("us", lat_us, "us"), RunResult{}.add("mbs", bw_mbs, "MB/s")}, {}, {}};
  b.results[0].name = "lat_pipe";
  b.results[1].name = "bw_pipe";
  return b;
}

// The rendered line of the row whose label starts with `label`.
std::string row_line(const std::string& summary, const std::string& label) {
  size_t at = summary.find("  " + label);
  return at == std::string::npos ? "" : summary.substr(at, summary.find('\n', at) - at);
}

TEST(SummaryTest, NoBatches) { EXPECT_EQ(render_summary({}), "(no result batches)\n"); }

TEST(SummaryTest, SingleBatchShowsAllSections) {
  std::string out = render_summary({batch("sysA", 5.25, 900.0)});
  EXPECT_NE(out.find("Processor and system calls"), std::string::npos);
  EXPECT_NE(out.find("Context switching and IPC latencies"), std::string::npos);
  EXPECT_NE(out.find("Bandwidths"), std::string::npos);
  EXPECT_NE(out.find("Memory hierarchy, file and VM latencies"), std::string::npos);
  EXPECT_NE(out.find("sysA"), std::string::npos);
  EXPECT_NE(row_line(out, "Pipe RTT (us)").find("5.25"), std::string::npos);
  // Rows no batch measured render dashes; one run marks nothing.
  EXPECT_NE(row_line(out, "Null syscall (us)").find("--"), std::string::npos);
  EXPECT_EQ(out.find('*'), std::string::npos);
  EXPECT_EQ(out.find("best run per row"), std::string::npos);
}

TEST(SummaryTest, TwoBatchesMarkBestInEachUnitsDirection) {
  // "fast" wins the latency row with the lower value and "slow" the
  // bandwidth row with the higher one.
  std::string out = render_summary({batch("fast", 10.5, 100.5), batch("slow", 20.5, 200.5)});
  EXPECT_LT(out.find("fast"), out.find("slow"));  // columns in batch order
  EXPECT_NE(out.find("best run per row"), std::string::npos);
  std::string lat = row_line(out, "Pipe RTT (us)");
  EXPECT_NE(lat.find("10.5*"), std::string::npos) << lat;
  EXPECT_EQ(lat.find("20.5*"), std::string::npos) << lat;
  std::string bw = row_line(out, "Pipe (MB/s)");
  EXPECT_NE(bw.find("200.5*"), std::string::npos) << bw;
  EXPECT_EQ(bw.find("100.5*"), std::string::npos) << bw;
}

TEST(SummaryTest, NullMetricRendersDashesAndIsNeverBest) {
  ResultBatch missing = batch("missing", std::numeric_limits<double>::quiet_NaN(), 100.0);
  std::string out = render_summary({missing, batch("real", 30.0, 100.0)});
  std::string lat = row_line(out, "Pipe RTT (us)");
  EXPECT_NE(lat.find("--"), std::string::npos) << lat;
  EXPECT_EQ(lat.find("--*"), std::string::npos) << lat;
  // One value left: nothing to compare it with, so no marker either.
  EXPECT_EQ(lat.find('*'), std::string::npos) << lat;
}

TEST(SummaryTest, NonOkResultContributesNothing) {
  ResultBatch failed = batch("failed", 1.25, 100.0);
  failed.results[0].status = RunStatus::kError;
  std::string out = render_summary({failed, batch("ok", 30.5, 100.0)});
  std::string lat = row_line(out, "Pipe RTT (us)");
  EXPECT_EQ(lat.find("1.25"), std::string::npos) << lat;
  EXPECT_NE(lat.find("--"), std::string::npos) << lat;
  EXPECT_NE(lat.find("30.5"), std::string::npos) << lat;
}

}  // namespace
}  // namespace lmb::report
