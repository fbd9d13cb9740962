#include "src/report/heatmap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/obs/histogram.h"

namespace lmb {
namespace {

using obs::IntervalStats;
using report::Heatmap;
using report::build_heatmap;
using report::heatmap_from_json;
using report::heatmap_to_json;
using report::render_heatmap;

// A plausible three-window interval series: a fast mode that drifts slower
// over time plus a constant tail, 100 ms windows.
std::vector<IntervalStats> synthetic_series() {
  std::mt19937_64 rng(5);
  std::vector<IntervalStats> series;
  for (int w = 0; w < 3; ++w) {
    IntervalStats win;
    win.start = w * 100 * kMillisecond;
    win.end = (w + 1) * 100 * kMillisecond;
    std::normal_distribution<double> fast(30'000.0 + w * 10'000.0, 3'000.0);
    for (int i = 0; i < 1'000; ++i) {
      auto v = static_cast<Nanos>(std::max(1.0, fast(rng)));
      if (i % 100 == 0) {
        v = 2 * kMillisecond;  // tail
      }
      win.hist.record(v);
      ++win.requests;
    }
    win.errors = w;  // 0, 1, 2 — distinguishable on round trip
    series.push_back(std::move(win));
  }
  return series;
}

TEST(HeatmapTest, WindowCountsSumToRequests) {
  Heatmap map = build_heatmap("lat_tcp_n", "c64", synthetic_series());
  ASSERT_EQ(map.windows.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& win : map.windows) {
    const std::uint64_t row_sum =
        std::accumulate(win.counts.begin(), win.counts.end(), std::uint64_t{0});
    EXPECT_EQ(row_sum, win.requests);
    total += win.requests;
  }
  EXPECT_EQ(total, map.total_requests());
  EXPECT_EQ(map.total_requests(), 3'000u);
  EXPECT_EQ(map.total_errors(), 3u);
}

TEST(HeatmapTest, BoundsAreMonotoneAndCoverData) {
  Heatmap map = build_heatmap("lat_tcp_n", "c64", synthetic_series());
  ASSERT_GE(map.bounds_us.size(), 2u);
  for (std::size_t i = 0; i + 1 < map.bounds_us.size(); ++i) {
    EXPECT_LT(map.bounds_us[i], map.bounds_us[i + 1]) << "edge " << i;
  }
  // Column count matches edges - 1 in every window row.
  for (const auto& win : map.windows) {
    EXPECT_EQ(win.counts.size(), map.bounds_us.size() - 1);
  }
  // The fast mode (~30-50 us) and tail (2 ms) both fall inside the range.
  EXPECT_LE(map.bounds_us.front(), 30.0);
  EXPECT_GE(map.bounds_us.back(), 2'000.0);
}

TEST(HeatmapTest, DownsamplesToMaxColumns) {
  Heatmap wide = build_heatmap("b", "s", synthetic_series(), 24);
  Heatmap narrow = build_heatmap("b", "s", synthetic_series(), 8);
  EXPECT_LE(wide.bounds_us.size() - 1, 24u);
  EXPECT_LE(narrow.bounds_us.size() - 1, 8u);
  // Downsampling regroups buckets but never loses counts.
  EXPECT_EQ(wide.total_requests(), narrow.total_requests());
}

TEST(HeatmapTest, PerWindowPercentilesAndRps) {
  Heatmap map = build_heatmap("lat_tcp_n", "c64", synthetic_series());
  for (const auto& win : map.windows) {
    EXPECT_GT(win.p50_us, 0.0);
    EXPECT_GE(win.p99_us, win.p50_us);
    // 1000 requests in a 100 ms window = 10k rps.
    EXPECT_NEAR(win.rps, 10'000.0, 1.0);
    EXPECT_NEAR(win.end_ms - win.start_ms, 100.0, 1e-9);
  }
  // Window 0's p50 sits at the fast mode (~30 us), well below the tail.
  EXPECT_NEAR(map.windows[0].p50_us, 30.0, 5.0);
  EXPECT_NEAR(map.windows[2].p50_us, 50.0, 5.0);
}

TEST(HeatmapTest, EmptySeriesYieldsEmptyMap) {
  Heatmap map = build_heatmap("b", "s", {});
  EXPECT_TRUE(map.windows.empty());
  EXPECT_TRUE(map.bounds_us.empty());
  EXPECT_EQ(map.total_requests(), 0u);
  // Rendering an empty map must not crash.
  EXPECT_FALSE(render_heatmap(map).empty());
}

TEST(HeatmapTest, IdleWindowKeepsZeroRow) {
  std::vector<IntervalStats> series = synthetic_series();
  IntervalStats idle;
  idle.start = series.back().end;
  idle.end = idle.start + 100 * kMillisecond;
  series.push_back(std::move(idle));

  Heatmap map = build_heatmap("b", "s", series);
  ASSERT_EQ(map.windows.size(), 4u);
  EXPECT_EQ(map.windows[3].requests, 0u);
  EXPECT_EQ(map.windows[3].p50_us, 0.0);
  const std::uint64_t row_sum = std::accumulate(map.windows[3].counts.begin(),
                                                map.windows[3].counts.end(), std::uint64_t{0});
  EXPECT_EQ(row_sum, 0u);
  EXPECT_EQ(map.windows[3].counts.size(), map.bounds_us.size() - 1);
}

TEST(HeatmapTest, JsonRoundTrip) {
  Heatmap map = build_heatmap("lat_tcp_n", "c64", synthetic_series());
  map.p50_us = 31.5;
  map.p99_us = 2'000.0;
  map.p999_us = 2'100.0;
  map.raw_p50_us = 31.4;
  map.raw_p99_us = 1'998.0;
  map.raw_p999_us = 2'099.0;
  map.raw_sampled = true;

  Heatmap back = heatmap_from_json(heatmap_to_json(map));
  EXPECT_EQ(back.bench, map.bench);
  EXPECT_EQ(back.scenario, map.scenario);
  EXPECT_DOUBLE_EQ(back.interval_ms, map.interval_ms);
  ASSERT_EQ(back.bounds_us.size(), map.bounds_us.size());
  for (std::size_t i = 0; i < map.bounds_us.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.bounds_us[i], map.bounds_us[i]) << "edge " << i;
  }
  ASSERT_EQ(back.windows.size(), map.windows.size());
  for (std::size_t w = 0; w < map.windows.size(); ++w) {
    EXPECT_DOUBLE_EQ(back.windows[w].start_ms, map.windows[w].start_ms);
    EXPECT_DOUBLE_EQ(back.windows[w].end_ms, map.windows[w].end_ms);
    EXPECT_EQ(back.windows[w].requests, map.windows[w].requests);
    EXPECT_EQ(back.windows[w].errors, map.windows[w].errors);
    EXPECT_DOUBLE_EQ(back.windows[w].rps, map.windows[w].rps);
    EXPECT_DOUBLE_EQ(back.windows[w].p50_us, map.windows[w].p50_us);
    EXPECT_DOUBLE_EQ(back.windows[w].p99_us, map.windows[w].p99_us);
    EXPECT_EQ(back.windows[w].counts, map.windows[w].counts) << "window " << w;
  }
  EXPECT_DOUBLE_EQ(back.p50_us, map.p50_us);
  EXPECT_DOUBLE_EQ(back.p99_us, map.p99_us);
  EXPECT_DOUBLE_EQ(back.p999_us, map.p999_us);
  EXPECT_DOUBLE_EQ(back.raw_p50_us, map.raw_p50_us);
  EXPECT_DOUBLE_EQ(back.raw_p99_us, map.raw_p99_us);
  EXPECT_DOUBLE_EQ(back.raw_p999_us, map.raw_p999_us);
  EXPECT_EQ(back.raw_sampled, map.raw_sampled);
  EXPECT_EQ(back.total_requests(), map.total_requests());
}

TEST(HeatmapTest, JsonCarriesSchemaTag) {
  Heatmap map = build_heatmap("b", "s", synthetic_series());
  const std::string doc = heatmap_to_json(map);
  EXPECT_NE(doc.find("lmbenchpp.heatmap.v1"), std::string::npos);
}

TEST(HeatmapTest, FromJsonRejectsBadInput) {
  EXPECT_THROW(heatmap_from_json("not json"), std::invalid_argument);
  EXPECT_THROW(heatmap_from_json("{\"schema\":\"lmbenchpp.results.v1\"}"),
               std::invalid_argument);
  EXPECT_THROW(heatmap_from_json("{}"), std::invalid_argument);
}

// Window counts are range-checked before the cast: a negative or huge value
// in a corrupt document throws naming the field.
TEST(HeatmapTest, FromJsonRejectsOutOfRangeCounts) {
  const std::string doc = heatmap_to_json(build_heatmap("b", "s", synthetic_series()));
  EXPECT_EQ(heatmap_to_json(heatmap_from_json(doc)), doc);
  for (const std::string field : {"requests", "errors", "counts"}) {
    for (const std::string bad : {"-1", "2e19"}) {  // uint64_t fields
      std::smatch number;  // the first value of the field; `counts` is an array
      ASSERT_TRUE(std::regex_search(doc, number, std::regex("\"" + field + "\":\\[?(\\d+)")));
      std::string corrupt = doc.substr(0, static_cast<std::size_t>(number.position(1))) + bad +
                            number.suffix().str();
      try {
        heatmap_from_json(corrupt);
        ADD_FAILURE() << field << " = " << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
  }
}

TEST(HeatmapTest, RenderShowsWindowsAndTotals) {
  Heatmap map = build_heatmap("lat_tcp_n", "c64", synthetic_series());
  const std::string out = render_heatmap(map);
  EXPECT_NE(out.find("lat_tcp_n"), std::string::npos);
  EXPECT_NE(out.find("c64"), std::string::npos);
  // One row per window plus a totals footer.
  EXPECT_NE(out.find("3000"), std::string::npos);
  // Shading characters appear (the mode is dense enough for a solid block).
  EXPECT_NE(out.find("█"), std::string::npos);
}

}  // namespace
}  // namespace lmb
