#include "src/lat/lat_mem_rd.h"

#include <gtest/gtest.h>

namespace lmb::lat {
namespace {

MemLatConfig tiny(size_t bytes, size_t stride) {
  MemLatConfig cfg;
  cfg.array_bytes = bytes;
  cfg.stride_bytes = stride;
  cfg.policy = TimingPolicy::quick();
  return cfg;
}

TEST(LatMemRdTest, CacheResidentLatencyIsSmallAndPositive) {
  MemLatPoint p = measure_mem_latency(tiny(16 << 10, 64));
  EXPECT_GT(p.ns_per_load, 0.1);   // at least a fraction of a cycle
  EXPECT_LT(p.ns_per_load, 100.0);  // L1 hits are a few ns
  EXPECT_EQ(p.array_bytes, 16u << 10);
  EXPECT_EQ(p.stride_bytes, 64u);
}

TEST(LatMemRdTest, RandomChaseOnLargeArrayIsSlowerThanL1) {
  MemLatConfig small = tiny(16 << 10, 64);
  MemLatConfig big = tiny(32 << 20, 64);
  big.order = ChaseOrder::kRandom;
  double l1 = measure_mem_latency(small).ns_per_load;
  double mem = measure_mem_latency(big).ns_per_load;
  // Memory (defeating the prefetcher) must be several times slower than L1.
  EXPECT_GT(mem, l1 * 3.0) << "l1=" << l1 << " mem=" << mem;
}

TEST(LatMemRdTest, ConfigValidation) {
  EXPECT_THROW(measure_mem_latency(tiny(1024, 4)), std::invalid_argument);
  EXPECT_THROW(measure_mem_latency(tiny(64, 64)), std::invalid_argument);
}

TEST(LatMemRdTest, DirtyChaseIsSameOrderAsCleanChase) {
  // §7 extension: the read-modify-write walk measures the same load chain
  // plus write-back pressure.  Whether write-backs surface as extra latency
  // is microarchitecture-dependent (store buffers hide them on this host),
  // so assert structure: both memory-bound, within 3x of each other.
  MemLatConfig cfg = tiny(32 << 20, 64);
  cfg.order = ChaseOrder::kRandom;
  double clean = measure_mem_latency(cfg).ns_per_load;
  double dirty = measure_mem_latency_dirty(cfg).ns_per_load;
  EXPECT_GT(clean, 5.0);  // decisively beyond the caches
  EXPECT_GT(dirty, clean / 3.0);
  EXPECT_LT(dirty, clean * 3.0);
}

TEST(LatMemRdTest, DirtyChaseNeedsRoomForTheStoreSlot) {
  MemLatConfig cfg = tiny(64 << 10, sizeof(void*));
  EXPECT_THROW(measure_mem_latency_dirty(cfg), std::invalid_argument);
}

TEST(ChaseDirtyTest, WalksAndMarks) {
  // 4 slots of 2 pointers each; chase_dirty must follow the chain and write
  // the second slot word.
  void* slots[8] = {};
  slots[0] = &slots[4];
  slots[4] = &slots[2];
  slots[2] = &slots[6];
  slots[6] = &slots[0];
  EXPECT_EQ(chase_dirty(&slots[0], 2), &slots[2]);
  EXPECT_EQ(slots[1], &slots[0]);  // dirtied
  EXPECT_EQ(slots[5], &slots[4]);
}

}  // namespace
}  // namespace lmb::lat
