#include "src/lat/lat_ctx.h"

#include <gtest/gtest.h>

#include "tests/core/on_one_cpu.h"

namespace lmb::lat {
namespace {

CtxConfig tiny(int procs = 2, size_t footprint = 0) {
  CtxConfig cfg = CtxConfig::quick();
  cfg.processes = procs;
  cfg.footprint_bytes = footprint;
  return cfg;
}

TEST(LatCtxTest, TwoProcessSwitchIsMeasurable) {
  CtxResult r = measure_ctx(tiny());
  EXPECT_EQ(r.processes, 2);
  EXPECT_GE(r.ctx_us, 0.0);
  EXPECT_GT(r.raw_us, 0.0);
  EXPECT_GT(r.overhead_us, 0.0);
  // Raw includes the overhead plus at least some switching cost.
  EXPECT_GT(r.raw_us, r.overhead_us);
  EXPECT_NEAR(r.ctx_us, r.raw_us - r.overhead_us, 1e-9);
  EXPECT_LT(r.ctx_us, 10000.0);  // < 10ms per switch on anything alive
}

TEST(LatCtxTest, LargerRingsStillComplete) {
  CtxResult r = measure_ctx(tiny(6));
  EXPECT_EQ(r.processes, 6);
  EXPECT_GT(r.raw_us, 0.0);
}

TEST(LatCtxTest, FootprintIncreasesRawHopCost) {
  OnOneCpu one_cpu;  // both rings at one placement
  ASSERT_TRUE(one_cpu.pinned());
  CtxResult small = measure_ctx(tiny(2, 0));
  CtxResult big = measure_ctx(tiny(2, 64 << 10));
  // Summing 64KB per hop must cost more than summing nothing.
  EXPECT_GT(big.raw_us, small.raw_us);
  EXPECT_GT(big.overhead_us, small.overhead_us);
}

TEST(LatCtxTest, ConfigValidation) {
  CtxConfig bad = tiny();
  bad.processes = 1;
  EXPECT_THROW(measure_ctx(bad), std::invalid_argument);
  bad = tiny();
  bad.processes = 100;
  EXPECT_THROW(measure_ctx(bad), std::invalid_argument);
  bad = tiny();
  bad.token_passes = 0;
  EXPECT_THROW(measure_ctx(bad), std::invalid_argument);
  bad = tiny();
  bad.repetitions = 0;
  EXPECT_THROW(measure_ctx(bad), std::invalid_argument);
}

}  // namespace
}  // namespace lmb::lat
