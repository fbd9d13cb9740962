#include "src/bw/bw_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace lmb::bw {
namespace {

MemBwConfig tiny_config(size_t bytes = 1 << 20) {
  MemBwConfig cfg;
  cfg.bytes = bytes;
  cfg.policy = TimingPolicy::quick();
  return cfg;
}

TEST(BwMemTest, AllOperationsProducePositiveBandwidth) {
  for (const MemBwResult& r : measure_mem_bw_all(tiny_config())) {
    EXPECT_GT(r.mb_per_sec, 10.0) << mem_op_name(r.op);  // > 10 MB/s on anything
    EXPECT_LT(r.mb_per_sec, 1e7) << mem_op_name(r.op);   // < 10 TB/s sanity
    EXPECT_EQ(r.bytes, 1u << 20);
  }
}

TEST(BwMemTest, MeasureAllReturnsFourRows) {
  auto rows = measure_mem_bw_all(tiny_config(256 * 1024));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].op, MemOp::kCopyLibc);
  EXPECT_EQ(rows[1].op, MemOp::kCopyUnrolled);
  EXPECT_EQ(rows[2].op, MemOp::kReadSum);
  EXPECT_EQ(rows[3].op, MemOp::kWrite);
}

TEST(BwMemTest, TooSmallBufferRejected) {
  MemBwConfig cfg;
  cfg.bytes = 4;  // less than one 8-byte word
  EXPECT_THROW(measure_mem_bw({MemOp::kReadSum}, cfg), std::invalid_argument);
}

// The kernels' tail loops lifted the old multiple-of-256-bytes floor: any
// whole-word size is measurable, including sub-cache-line and odd ones.
TEST(BwMemTest, SmallAndOddSizesAreMeasurable) {
  for (size_t bytes : {size_t{64}, size_t{1000}, size_t{4104}}) {
    MemBwConfig cfg = tiny_config(bytes);
    MemBwResult r = measure_mem_bw({MemOp::kCopyUnrolled}, cfg)[0];
    EXPECT_GT(r.mb_per_sec, 0.0) << bytes;
    EXPECT_EQ(r.bytes, bytes - bytes % 8) << bytes;
  }
}

TEST(BwMemTest, KernelOverrideProducesBandwidth) {
  MemBwConfig cfg = tiny_config(256 * 1024);
  cfg.kernel = KernelVariant::kScalar;
  MemBwResult r = measure_mem_bw({MemOp::kCopyUnrolled}, cfg)[0];
  EXPECT_GT(r.mb_per_sec, 10.0);
}

TEST(BwMemTest, OpNamesAreStable) {
  EXPECT_STREQ(mem_op_name(MemOp::kCopyLibc), "bcopy_libc");
  EXPECT_STREQ(mem_op_name(MemOp::kCopyUnrolled), "bcopy_unrolled");
  EXPECT_STREQ(mem_op_name(MemOp::kReadSum), "read");
  EXPECT_STREQ(mem_op_name(MemOp::kWrite), "write");
}

// The paper's cache-vs-memory effect: a cache-resident buffer must be at
// least as fast as a much larger one (allowing generous noise).
TEST(BwMemTest, CacheResidentIsNotSlowerThanMemoryResident) {
  MemBwResult small = measure_mem_bw({MemOp::kReadSum}, tiny_config(32 * 1024))[0];
  MemBwResult large = measure_mem_bw({MemOp::kReadSum}, tiny_config(16 << 20))[0];
  EXPECT_GT(small.mb_per_sec, large.mb_per_sec * 0.7);
}

}  // namespace
}  // namespace lmb::bw

namespace lmb::bw {
namespace {

TEST(BwMemTest, ExtendedOpsProducePositiveBandwidth) {
  MemBwConfig cfg;
  cfg.bytes = 1 << 20;
  cfg.policy = TimingPolicy::quick();
  // One call measures the ops it is given, in order, on one buffer pair.
  auto rows = measure_mem_bw({MemOp::kBzero, MemOp::kReadWrite}, cfg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].op, MemOp::kBzero);
  EXPECT_EQ(rows[1].op, MemOp::kReadWrite);
  for (const MemBwResult& r : rows) {
    EXPECT_GT(r.mb_per_sec, 10.0) << mem_op_name(r.op);
  }
  EXPECT_STREQ(mem_op_name(MemOp::kBzero), "bzero");
  EXPECT_STREQ(mem_op_name(MemOp::kReadWrite), "rdwr");
}

TEST(BwMemTest, KernelComparisonInterleavesEveryAvailableVariant) {
  if (available_kernel_variants().size() < 2) {
    GTEST_SKIP() << "only the scalar kernel is available on this host";
  }
  MemBwConfig cfg;
  cfg.bytes = 256 << 10;  // cache-resident keeps the test fast
  cfg.policy = TimingPolicy::quick();
  KernelCompareResult cmp = compare_kernels_interleaved(MemOp::kCopyUnrolled, cfg,
                                                        /*rounds=*/3);
  ASSERT_EQ(cmp.entries.size(), available_kernel_variants().size());
  ASSERT_EQ(cmp.ab.variants.size(), cmp.entries.size());
  EXPECT_EQ(cmp.entries[0].variant, KernelVariant::kScalar);
  EXPECT_EQ(cmp.ab.deltas.size(), cmp.entries.size() - 1);
  EXPECT_EQ(cmp.ab.rounds, 3);
  EXPECT_EQ(cmp.ab.order.size(), 3u * cmp.entries.size());
  for (const KernelCompareEntry& e : cmp.entries) {
    EXPECT_GT(e.mb_per_sec, 10.0) << kernel_variant_name(e.variant);
  }
  // Every round's order is a permutation of all variant indices.
  const int n = static_cast<int>(cmp.entries.size());
  for (int r = 0; r < 3; ++r) {
    std::vector<int> round(cmp.ab.order.begin() + r * n,
                           cmp.ab.order.begin() + (r + 1) * n);
    std::sort(round.begin(), round.end());
    for (int k = 0; k < n; ++k) {
      EXPECT_EQ(round[static_cast<size_t>(k)], k) << "round " << r;
    }
  }
}

TEST(BwMemTest, KernelComparisonRejectsLibcOp) {
  EXPECT_THROW(compare_kernels_interleaved(MemOp::kCopyLibc), std::invalid_argument);
}

}  // namespace
}  // namespace lmb::bw
