// The paper's tables measured live: the quick plan runs through the suite
// service as one request, and every table and figure prints a measured
// value in each of its cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/db/paper_tables.h"
#include "src/lat/mem_hierarchy.h"
#include "src/svc/bench_service.h"
#include "src/sys/temp.h"
#include "tests/db/paper_lines.h"

namespace lmb {
namespace {

TEST(SuiteInventoryTest, PaperPlanEntriesAreRegistered) {
  for (bool quick : {true, false}) {
    for (const PlanEntry& entry : db::paper_plan(quick)) {
      EXPECT_NE(Registry::global().find(entry.name), nullptr) << entry.name;
      EXPECT_NO_THROW(entry.options_over(Options{})) << entry.name << " " << entry.args_text();
    }
  }
}

TEST(PaperTablesLiveTest, QuickPlanFillsEveryMeasuredCell) {
  sys::TempDir tmp("lmb_paper");
  svc::RunRequest request;
  request.entries = db::paper_plan(true);
  request.bench_options = Options::from_pairs({{"quick", "true"}});
  request.cal_cache_path = tmp.file("cal.db");
  svc::BenchService service;
  auto start = std::chrono::steady_clock::now();
  svc::RunArtifacts artifacts = service.run(request);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("quick paper plan: %zu entries in %.2f s\n", request.entries.size(), seconds);

  const report::ResultBatch& batch = artifacts.batch;
  ASSERT_EQ(batch.results.size(), request.entries.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const RunResult& r = batch.results[i];
    const PlanEntry& entry = request.entries[i];
    ASSERT_TRUE(r.ok()) << entry.name << " " << entry.args_text() << ": " << r.error;
    EXPECT_EQ(r.name, entry.name);
    auto args = r.metadata.find("args");
    EXPECT_EQ(args == r.metadata.end() ? "" : args->second, entry.args_text());
    for (const Metric& m : r.metrics) {
      EXPECT_TRUE(std::isfinite(m.value)) << r.name << " " << m.key;
      // Async SimFs operations never wait on the simulated disk, so their
      // virtual time is 0 by construction.
      if (r.name == "lat_fs_sim" && m.key.rfind("async_", 0) == 0) {
        EXPECT_GE(m.value, 0.0) << m.key;
      } else {
        EXPECT_GT(m.value, 0.0) << r.name << " " << entry.args_text() << " " << m.key;
      }
    }
  }

  // Every cell read straight from a result is filled.  Table 6's derived
  // cells may be blank only where extraction found no such level: L1/L2
  // latency and size (plus the L2-in-clocks note) without a cache level,
  // memory latency without a final plateau.
  std::vector<lat::MemLatPoint> curve;
  for (const RunResult& r : batch.results) {
    if (r.name == "lat_mem_rd" && r.metadata.at("order") == "random" &&
        r.metadata.at("stride") == "64") {
      curve.push_back({std::stoul(r.metadata.at("bytes")), 64, *r.metric("ns")});
    }
  }
  std::sort(curve.begin(), curve.end(),
            [](const auto& a, const auto& b) { return a.array_bytes < b.array_bytes; });
  lat::MemHierarchy hierarchy = lat::extract_hierarchy(curve);
  size_t allowed = (hierarchy.caches.empty() ? 5 : 0) + (hierarchy.memory_latency_ns > 0 ? 0 : 1);
  std::vector<std::string> blank = db::unmeasured_lines(db::render_paper(
      batch, {"1", "2", "3", "4", "5", "fig1", "7", "8", "9", "fig2", "10", "11", "12", "13",
              "14", "15", "16", "17"}));
  EXPECT_TRUE(blank.empty()) << db::joined(blank);
  size_t t6_blanks = 0;
  for (const std::string& line : db::unmeasured_lines(db::render_paper(batch, {"6"}))) {
    t6_blanks += db::blank_cells(line);
  }
  EXPECT_LE(t6_blanks, allowed) << db::render_paper(batch, {"6"});
}

}  // namespace
}  // namespace lmb
