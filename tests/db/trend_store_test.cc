// Trend store: sharded append-only run history with torn-tail tolerance.
#include "src/db/trend_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::db {
namespace {

namespace fs = std::filesystem;

report::ResultBatch make_batch(const std::string& system, double lat_us,
                               double bw_mbs = 0.0) {
  report::ResultBatch batch;
  batch.system = system;
  RunResult lat;
  lat.name = "lat_pipe";
  lat.category = "latency";
  lat.add("us", lat_us, "us");
  batch.results.push_back(lat);
  if (bw_mbs > 0) {
    RunResult bw;
    bw.name = "bw_mem";
    bw.category = "bandwidth";
    bw.add("mbs", bw_mbs, "MB/s");
    batch.results.push_back(bw);
  }
  return batch;
}

class TrendStoreTest : public ::testing::Test {
 protected:
  std::string dir() const { return tmp_.path() + "/trends"; }
  sys::TempDir tmp_;
};

TEST_F(TrendStoreTest, EmptyStoreHasNoHosts) {
  TrendStore store(dir());
  EXPECT_TRUE(store.hosts().empty());
  EXPECT_FALSE(fs::exists(dir()));  // constructor must not touch the disk
}

TEST_F(TrendStoreTest, AppendAssignsAscendingSequences) {
  TrendStore store(dir());
  EXPECT_EQ(store.append(make_batch("host", 10.0)), 1);
  EXPECT_EQ(store.append(make_batch("host", 11.0)), 2);
  EXPECT_EQ(TrendStore(dir()).append(make_batch("host", 12.0)), 3);  // reopen

  std::vector<std::string> hosts = store.hosts();
  ASSERT_EQ(hosts.size(), 1u);
  std::vector<TrendRun> runs = store.runs(hosts[0]);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].seq, 1);
  EXPECT_EQ(runs[2].seq, 3);
}

TEST_F(TrendStoreTest, SeriesReadBackInSequenceOrder) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0, 5000.0));
  store.append(make_batch("host", 12.0, 5100.0));
  std::string host = store.hosts()[0];

  EXPECT_EQ(store.benches(host), (std::vector<std::string>{"bw_mem", "lat_pipe"}));
  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].key, "us");
  EXPECT_EQ(series[0].unit, "us");
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[0].points[0].seq, 1);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 12.0);

  // all_series covers both benchmarks.
  EXPECT_EQ(store.all_series(host).size(), 2u);
}

TEST_F(TrendStoreTest, HostsShardIndependently) {
  TrendStore store(dir());
  store.append(make_batch("alpha", 1.0));
  store.append(make_batch("beta", 2.0));
  store.append(make_batch("alpha", 3.0));
  ASSERT_EQ(store.hosts().size(), 2u);
  // Sequences are per shard: beta's one run is seq 1, not 2.
  EXPECT_EQ(store.runs(TrendStore::shard_name("beta"))[0].seq, 1);
  EXPECT_EQ(store.runs(TrendStore::shard_name("alpha")).size(), 2u);
}

TEST_F(TrendStoreTest, ShardNameIsFilesystemSafe) {
  EXPECT_EQ(TrendStore::shard_name("Linux/x86_64 box"), "Linux-x86_64-box");
  EXPECT_EQ(TrendStore::shard_name("a.b_c-d"), "a.b_c-d");
}

TEST_F(TrendStoreTest, TornTailIsSkippedNotFatal) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  store.append(make_batch("host", 11.0));
  std::string host = store.hosts()[0];

  // A crashed writer leaves a truncated last line in both files.
  std::ofstream(dir() + "/" + host + "/lat_pipe.jsonl", std::ios::app)
      << "{\"seq\": 3, \"metr";
  std::ofstream(dir() + "/" + host + "/runs.jsonl", std::ios::app) << "{\"seq\"";

  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points.size(), 2u);  // torn point dropped
  EXPECT_EQ(store.runs(host).size(), 2u);
  // The next append must advance past the highest *valid* sequence, on a
  // line of its own rather than merged into the torn tail.
  EXPECT_EQ(store.append(make_batch("host", 12.0)), 3);
  EXPECT_EQ(store.runs(host).size(), 3u);
}

TEST_F(TrendStoreTest, NonOkResultsAreNotRecorded) {
  TrendStore store(dir());
  report::ResultBatch batch = make_batch("host", 10.0);
  RunResult bad;
  bad.name = "lat_broken";
  bad.category = "latency";
  bad.status = RunStatus::kError;
  batch.results.push_back(bad);
  store.append(batch);
  std::string host = store.hosts()[0];
  EXPECT_EQ(store.benches(host), (std::vector<std::string>{"lat_pipe"}));
}

TEST_F(TrendStoreTest, AppendRecordsProvenance) {
  TrendStore store(dir());
  report::ResultBatch batch = make_batch("host", 10.0);
  obs::RunEnvironment env;
  env.governor = "performance";
  env.kernel = "6.1.0-test";
  batch.environment = env;
  store.append(batch);
  std::vector<TrendRun> runs = store.runs(store.hosts()[0]);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].env.empty());
}

TEST_F(TrendStoreTest, CompactKeepsNewestRuns) {
  TrendStore store(dir());
  for (int i = 1; i <= 6; ++i) {
    store.append(make_batch("host", static_cast<double>(i)));
  }
  store.compact(2);
  std::string host = store.hosts()[0];
  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 5.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 6.0);
  EXPECT_EQ(store.runs(host).size(), 2u);
  // Sequence numbers survive compaction — history is renumber-free.
  EXPECT_EQ(series[0].points[1].seq, 6);
  EXPECT_EQ(store.append(make_batch("host", 7.0)), 7);
}

TEST_F(TrendStoreTest, ImportsBaselineDirectoryHistory) {
  std::string baselines = tmp_.path() + "/baselines";
  fs::create_directories(baselines);
  sys::write_file(baselines + "/baseline-000002.json", report::to_json(make_batch("host", 11.0)));
  sys::write_file(baselines + "/baseline-000001.json", report::to_json(make_batch("host", 10.0)));
  std::ofstream(baselines + "/baseline-000003.json") << "{ corrupt";  // skipped
  std::ofstream(baselines + "/notes.json") << "{}";                   // not an entry

  TrendStore store(dir());
  EXPECT_EQ(store.import_baselines(baselines), 2u);
  std::vector<TrendSeries> series = store.series(store.hosts()[0], "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);  // oldest entry first
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 11.0);
}

// The lat_pipe value `latest` reports, or NaN when there is no such run.
double latest_lat(const TrendStore& store, const std::string& system) {
  std::optional<report::ResultBatch> batch = store.latest(system);
  return batch.has_value() ? batch->results.at(0).metrics.at(0).value : std::nan("");
}

TEST_F(TrendStoreTest, LatestIsTheNewestRunOfThatHostOnly) {
  TrendStore store(dir());
  EXPECT_FALSE(store.latest("box a").has_value());
  // "box a" and "box-a" share a shard but are different hosts.
  store.append(make_batch("box a", 10.0));
  store.append(make_batch("box a", 11.0));
  store.append(make_batch("box-a", 99.0));
  ASSERT_EQ(store.hosts().size(), 1u);

  std::optional<report::ResultBatch> latest = store.latest("box a");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->system, "box a");
  ASSERT_EQ(latest->results.size(), 1u);
  EXPECT_EQ(latest->results[0].name, "lat_pipe");
  EXPECT_FALSE(latest->results[0].measurement.has_value());  // none was stored
  EXPECT_DOUBLE_EQ(latest_lat(store, "box a"), 11.0);
  EXPECT_DOUBLE_EQ(latest_lat(store, "box-a"), 99.0);
  EXPECT_FALSE(store.latest("gamma").has_value());
}

// A crashed third append: its benchmark line landed, its run-log line tore.
// The torn run is not the baseline, and the next append, which reuses its
// sequence number, wins over the stale benchmark line.
TEST_F(TrendStoreTest, LatestSkipsATornRunAndPrefersTheLaterOfTwoSequenceLines) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  store.append(make_batch("host", 11.0));
  std::string shard = dir() + "/" + store.hosts()[0];
  std::ofstream(shard + "/lat_pipe.jsonl", std::ios::app)
      << "{\"seq\":3,\"metrics\":[{\"key\":\"us\",\"value\":77,\"unit\":\"us\"}]}\n";
  std::ofstream(shard + "/runs.jsonl", std::ios::app) << "{\"seq\":3,\"sys";
  EXPECT_DOUBLE_EQ(latest_lat(store, "host"), 11.0);

  EXPECT_EQ(store.append(make_batch("host", 12.0)), 3);
  EXPECT_DOUBLE_EQ(latest_lat(store, "host"), 12.0);
}

// A line carrying an out-of-range integer throws on parse and is skipped
// like a torn one: the later, corrupt twin of run 2's benchmark line loses
// to the valid one, and a run-log line with a negative result count is no
// run at all.
TEST_F(TrendStoreTest, OutOfRangeIntegersSkipTheLineLikeATornOne) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  store.append(make_batch("host", 11.0));
  std::string shard = dir() + "/" + store.hosts()[0];
  std::ofstream(shard + "/lat_pipe.jsonl", std::ios::app)
      << "{\"seq\":2,\"metrics\":[{\"key\":\"us\",\"value\":77,\"unit\":\"us\"}],"
         "\"measurement\":{\"iterations\":-1}}\n"
      << "{\"seq\":1e30,\"metrics\":[{\"key\":\"us\",\"value\":88,\"unit\":\"us\"}]}\n";
  std::ofstream(shard + "/runs.jsonl", std::ios::app)
      << "{\"seq\":3,\"system\":\"host\",\"results\":-1}\n";
  EXPECT_EQ(store.runs(store.hosts()[0]).size(), 2u);
  EXPECT_DOUBLE_EQ(latest_lat(store, "host"), 11.0);
}

// A run recorded while the batched timing loop existed: its measurement
// carries two keys the reader no longer knows.  It is still the baseline.
TEST_F(TrendStoreTest, LatestReadsAMeasurementWithOldNanoscaleKeys) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  std::string shard = dir() + "/" + store.hosts()[0];
  std::ofstream(shard + "/lat_pipe.jsonl", std::ios::app)
      << "{\"seq\":2,\"metrics\":[{\"key\":\"us\",\"value\":12,\"unit\":\"us\"}],"
         "\"measurement\":{\"ns_per_op\":12000,\"iterations\":64,\"repetitions\":11,"
         "\"clock_source\":\"tsc\",\"nanoscale\":true,\"interval_overhead_ns\":9}}\n";
  std::ofstream(shard + "/runs.jsonl", std::ios::app)
      << "{\"seq\":2,\"system\":\"host\",\"total_wall_ms\":5,\"results\":1}\n";

  std::optional<report::ResultBatch> latest = store.latest("host");
  ASSERT_TRUE(latest.has_value());
  ASSERT_EQ(latest->results.size(), 1u);
  EXPECT_DOUBLE_EQ(latest->results[0].metrics.at(0).value, 12.0);
  ASSERT_TRUE(latest->results[0].measurement.has_value());
  const Measurement& m = *latest->results[0].measurement;
  EXPECT_DOUBLE_EQ(m.ns_per_op, 12000.0);
  EXPECT_EQ(m.iterations, 64u);
  EXPECT_EQ(m.repetitions, 11);
  EXPECT_EQ(m.clock_source, "tsc");
}

}  // namespace
}  // namespace lmb::db
