// Persistence of the calibration cache as a lmbenchpp.calcache.v1 document:
// round-trips, host-signature invalidation, and per-entry validation of
// hand-edited or corrupt files.
#include "src/db/cal_store.h"

#include <gtest/gtest.h>

#include "src/core/cal_cache.h"
#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::db {
namespace {

void fill_sample(CalibrationCache& cache) {
  cache.put("lat_syscall#0@10000000", CalEntry{1'000'000, 10 * kMillisecond});
  cache.put("bw_mem#3@10000000", CalEntry{512, 10 * kMillisecond});
  cache.record_wall_ms("lat_syscall", 250.0);
  cache.record_wall_ms("bw_mem", 1800.5);
}

TEST(CalStoreTest, SaveLoadRoundTrip) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  CalibrationCache cache;
  fill_sample(cache);
  save_calibration_cache(path, "hostA", cache);

  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 4u);
  auto entry = loaded.find("lat_syscall#0@10000000");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->iterations, 1'000'000u);
  EXPECT_EQ(entry->min_interval, 10 * kMillisecond);
  entry = loaded.find("bw_mem#3@10000000");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->iterations, 512u);
  ASSERT_TRUE(loaded.expected_wall_ms("bw_mem").has_value());
  EXPECT_DOUBLE_EQ(*loaded.expected_wall_ms("bw_mem"), 1800.5);
  EXPECT_DOUBLE_EQ(*loaded.expected_wall_ms("lat_syscall"), 250.0);
}

TEST(CalStoreTest, HostSignatureMismatchLoadsNothing) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  CalibrationCache cache;
  fill_sample(cache);
  save_calibration_cache(path, "hostA", cache);

  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostB", loaded), 0u);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_FALSE(loaded.expected_wall_ms("bw_mem").has_value());
}

TEST(CalStoreTest, MissingMalformedOrForeignFileMeansColdCache) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 0u);
  // Truncated JSON, the line-text format earlier versions wrote (cold once,
  // replaced by the next save), another schema, a document that is no
  // object.
  for (const char* text : {
           "{\"schema\": \"lmbenchpp.calcache.v1\", \"host\": \"hos",
           "[calibration:hostA]\nit:lat_syscall#0@10000000 1000000\n",
           "{\"schema\": \"lmbenchpp.results.v1\", \"host\": \"hostA\", \"wall_ms\": {\"b\": 1}}",
           "[1, 2, 3]"}) {
    sys::write_file(path, text);
    EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 0u) << text;
  }
  EXPECT_EQ(loaded.size(), 0u);
}

// Values the uint64_t / double conversions are not defined or not sensible
// for skip their own entry and nothing else.
TEST(CalStoreTest, InvalidValuesSkipOnlyTheirEntry) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  sys::write_file(path,
                  "{\"schema\": \"lmbenchpp.calcache.v1\", \"host\": \"hostA\",\n"
                  " \"iterations\": {\"good#0@10000000\": 4096,\n"
                  "                  \"negative#0@10000000\": -5,\n"
                  "                  \"null#0@10000000\": null,\n"
                  "                  \"huge#0@10000000\": 1e30,\n"
                  "                  \"string#0@10000000\": \"12\",\n"
                  "                  \"zero#0@10000000\": 0,\n"
                  "                  \"no_interval\": 7},\n"
                  " \"wall_ms\": {\"negative\": -1, \"null\": null, \"string\": \"3\"}}\n");
  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 1u);
  EXPECT_EQ(loaded.size(), 1u);
  auto entry = loaded.find("good#0@10000000");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->iterations, 4096u);
  EXPECT_EQ(entry->min_interval, 10 * kMillisecond);
  EXPECT_TRUE(loaded.wall_ms().empty());
}

TEST(CalStoreTest, ResaveReplacesTheCalibrationSet) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  CalibrationCache cache;
  fill_sample(cache);
  save_calibration_cache(path, "hostA", cache);

  CalibrationCache smaller;
  smaller.put("lat_syscall#0@10000000", CalEntry{2'000'000, 10 * kMillisecond});
  save_calibration_cache(path, "hostA", smaller);

  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 1u);
  auto entry = loaded.find("lat_syscall#0@10000000");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->iterations, 2'000'000u);
  EXPECT_FALSE(loaded.find("bw_mem#3@10000000").has_value());
}

TEST(CalStoreTest, SignatureChangeReplacesOldCalibrationSet) {
  sys::TempDir dir("lmb_cal");
  const std::string path = dir.file("cal.db");
  CalibrationCache cache;
  fill_sample(cache);
  save_calibration_cache(path, "hostA", cache);
  // Same machine, new kernel: the save under the new signature must not
  // leave the stale hostA set behind.
  save_calibration_cache(path, "hostA-new-kernel", cache);

  CalibrationCache loaded;
  EXPECT_EQ(load_calibration_cache(path, "hostA", loaded), 0u);
  EXPECT_EQ(load_calibration_cache(path, "hostA-new-kernel", loaded), 4u);
}

}  // namespace
}  // namespace lmb::db
