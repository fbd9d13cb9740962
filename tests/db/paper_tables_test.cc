// The paper's tables rendered from a synthetic batch holding one result per
// plan entry: every table and figure prints its measured rows, and a
// missing, failed or non-finite result shows as "--", never as a number.
#include "src/db/paper_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "tests/db/paper_lines.h"

namespace lmb::db {
namespace {

// An Options view of an entry's args, to build a plausible value.
std::int64_t arg(const PlanEntry& entry, const std::string& key, std::int64_t fallback) {
  return entry.options_over(Options{}).get_size(key, fallback);
}

// One plausible result per benchmark the plan names, carrying the metrics
// the registered benchmark emits.
RunResult synthetic(const PlanEntry& entry) {
  RunResult r;
  r.name = entry.name;
  if (!entry.args.empty()) {
    r.metadata["args"] = entry.args_text();
  }
  const std::string& n = entry.name;
  if (n == "mhz") {
    r.add("mhz", 3000, "MHz").add("period_ns", 0.333, "ns");
  } else if (n == "bw_mem") {
    r.add("bcopy_libc_mbs", 10000, "MB/s").add("bcopy_unrolled_mbs", 9000, "MB/s");
    r.add("read_mbs", 20000, "MB/s").add("write_mbs", 15000, "MB/s");
  } else if (n.rfind("bw_", 0) == 0) {
    r.add("mbs", 4000, "MB/s");
  } else if (n == "lat_mem_rd") {
    std::int64_t size = arg(entry, "size", 0);
    std::int64_t stride = arg(entry, "stride", 64);
    if (entry.options_over(Options{}).get_bool("random")) {
      // A three-level hierarchy over 80 ns memory, 64 B lines: strides
      // below the line share its miss.
      double level = size <= (16 << 10)    ? 1.5
                     : size <= (256 << 10) ? 5
                     : size <= (2 << 20)   ? 20
                                           : 80;
      r.add("ns", level * std::min(1.0, static_cast<double>(stride) / 64), "ns");
    } else {
      r.add("ns", 1 + std::log2(static_cast<double>(size)) / 10, "ns");
    }
  } else if (n == "lat_ctx") {
    r.add("us", 2 + static_cast<double>(arg(entry, "procs", 2)) +
                    static_cast<double>(arg(entry, "size", 0)) / 16384,
          "us")
        .add("overhead_us", 0.5, "us");
  } else if (n == "lat_fork" || n == "lat_exec" || n == "lat_sh") {
    r.add("ms", 0.5, "ms");
  } else if (n == "lat_fs") {
    r.add("create_us", 20, "us").add("delete_us", 4, "us");
  } else if (n == "lat_fs_sim") {
    for (const char* mode : {"async", "journaled", "sync"}) {
      r.add(std::string(mode) + "_create_us", 800, "us")
          .add(std::string(mode) + "_delete_us", 700, "us");
    }
  } else if (n == "disk_overhead") {
    r.add("host_us", 0.02, "us").add("device_us", 460, "us").add("hit_pct", 99.2, "%");
  } else {
    r.add("us", 12.5, "us");  // every other entry is a one-metric latency
  }
  return r;
}

report::ResultBatch synthetic_batch(bool quick) {
  report::ResultBatch batch;
  batch.system = "test-host";
  obs::RunEnvironment env;
  env.os = "Linux";
  env.kernel = "6.1";
  env.machine = "x86_64";
  env.cpu_model = "Test CPU";
  env.cpu_count = "4";
  env.topology = "4 cpus / 4 cores / 1 socket";
  batch.environment = env;
  for (const PlanEntry& entry : paper_plan(quick)) {
    batch.results.push_back(synthetic(entry));
  }
  return batch;
}

class PaperTablesTest : public ::testing::TestWithParam<bool> {};

TEST_P(PaperTablesTest, EveryTableAndFigurePrintsItsMeasuredRows) {
  report::ResultBatch batch = synthetic_batch(GetParam());
  std::string text = render_paper(batch);
  for (int t = 1; t <= 17; ++t) {
    EXPECT_NE(text.find("Table " + std::to_string(t) + ". "), std::string::npos) << t;
  }
  EXPECT_NE(text.find("Figure 1. Memory latency (test-host)"), std::string::npos);
  EXPECT_NE(text.find("Figure 2. Context switch times (test-host)"), std::string::npos);
  // One measured row per table, plus the four modeled networks of Tables 4
  // and 14 (one already counted) and the three SimFs rows of Table 16.
  size_t marked = 0;
  for (size_t at = text.find("<--"); at != std::string::npos; at = text.find("<--", at + 1)) {
    ++marked;
  }
  EXPECT_EQ(marked, 17u + 3 + 3 + 3);
  EXPECT_TRUE(unmeasured_lines(text).empty()) << joined(unmeasured_lines(text));
  // Rendering is a function of the batch alone: a results.v1 round trip
  // renders the same text.
  EXPECT_EQ(render_paper(report::from_json(report::to_json(batch))), text);
}

TEST_P(PaperTablesTest, DeletingAnyEntryShowsAsBlankNotAsANumber) {
  report::ResultBatch batch = synthetic_batch(GetParam());
  // Every table but 4, whose modeled rows simulate an 8 MB transfer per
  // network (~10 ms a render); its three inputs print in Tables 3 and 14.
  const std::vector<std::string> tables = {"1",  "2",  "3",  "5",  "fig1", "6",  "7",
                                           "8",  "9",  "fig2", "10", "11", "12", "13",
                                           "14", "15", "16", "17"};
  for (size_t i = 0; i < batch.results.size(); ++i) {
    report::ResultBatch less = batch;
    less.results.erase(less.results.begin() + static_cast<long>(i));
    EXPECT_FALSE(unmeasured_lines(render_paper(less, tables)).empty())
        << batch.results[i].name << " " << batch.results[i].metadata["args"]
        << " is missing but nothing shows it";
  }
}

TEST_P(PaperTablesTest, FailedOrNonFiniteResultsRenderBlank) {
  report::ResultBatch batch = synthetic_batch(GetParam());
  for (RunResult& r : batch.results) {
    if (r.name == "lat_pipe") {
      r.status = RunStatus::kError;
      r.error = "boom";
    }
    if (r.name == "lat_syscall") {
      r.metrics[0].value = std::numeric_limits<double>::quiet_NaN();
    }
    if (r.name == "lat_ctx" && r.metadata["args"] == "--procs=8 --size=32k") {
      r.metrics[0].value = std::numeric_limits<double>::infinity();
    }
  }
  std::string text = render_paper(batch, {"7", "10", "11"});
  std::vector<std::string> lines = unmeasured_lines(text);
  ASSERT_EQ(lines.size(), 3u) << joined(lines);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("test-host", 0), 0u) << line;
    // Never the -1 sentinel or a stale number in place of the blank.
    EXPECT_EQ(line.find("-1"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  }
}

INSTANTIATE_TEST_SUITE_P(QuickAndFull, PaperTablesTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Quick" : "Full");
                         });

// Section 7's automatic sizing is a footnote under Table 6, computed from
// the batch's own extraction: 4x the largest detected cache, at least 8 MB.
TEST(PaperTable6Test, AutosizingFootnoteFollowsTheExtraction) {
  report::ResultBatch batch = synthetic_batch(true);
  // Stretch the synthetic 2 MB level to 4 MB.
  for (RunResult& r : batch.results) {
    if (r.name == "lat_mem_rd" && r.metadata["args"] == "--random --size=4m --stride=64") {
      r.metrics[0].value = 20;
    }
  }
  EXPECT_NE(render_paper(batch, {"6"})
                .find("automatic sizing (section 7): 16 MB buffers, 4x the largest detected "
                      "cache and at least 8 MB\n"),
            std::string::npos)
      << render_paper(batch, {"6"});

  // Without the whole curve there is no extraction, and no footnote.
  auto curve_point = std::find_if(batch.results.begin(), batch.results.end(), [](RunResult& r) {
    return r.name == "lat_mem_rd" && r.metadata["args"] == "--random --size=1k --stride=64";
  });
  ASSERT_NE(curve_point, batch.results.end());
  batch.results.erase(curve_point);
  EXPECT_EQ(render_paper(batch, {"6"}).find("automatic sizing"), std::string::npos);
}

TEST(PaperPlanTest, EachNumberIsMeasuredOnce) {
  for (bool quick : {true, false}) {
    std::vector<PlanEntry> plan = paper_plan(quick);
    std::set<std::string> seen;
    for (const PlanEntry& entry : plan) {
      EXPECT_TRUE(seen.insert(entry.name + " " + entry.args_text()).second)
          << entry.name << " " << entry.args_text();
    }
  }
  // Table 10's four points are Figure 2 points in the full plan.
  std::vector<PlanEntry> full = paper_plan(false);
  for (const PlanEntry& entry : paper_plan(false, {"10"})) {
    EXPECT_NE(std::find(full.begin(), full.end(), entry), full.end());
  }
  EXPECT_EQ(paper_plan(false, {"10"}).size(), 4u);
  EXPECT_EQ(paper_plan(true, {"fig2", "10"}).size(), 3u * 2 + 2);
}

TEST(PaperPlanTest, UnknownTableIsRejected) {
  EXPECT_THROW(paper_plan(true, {"2", "18"}), std::invalid_argument);
  EXPECT_THROW(render_paper(report::ResultBatch{}, {"fig3"}), std::invalid_argument);
}

}  // namespace
}  // namespace lmb::db
