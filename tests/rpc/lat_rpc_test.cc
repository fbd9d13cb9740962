#include "src/rpc/lat_rpc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "tests/core/on_one_cpu.h"

namespace lmb::rpc {
namespace {

TEST(LatRpcTest, TcpRpcRoundTripIsMeasurable) {
  Measurement m = measure_rpc_tcp_latency(RpcLatConfig::quick());
  EXPECT_GT(m.us_per_op(), 1.0);
  EXPECT_LT(m.us_per_op(), 100000.0);
}

TEST(LatRpcTest, UdpRpcRoundTripIsMeasurable) {
  Measurement m = measure_rpc_udp_latency(RpcLatConfig::quick());
  EXPECT_GT(m.us_per_op(), 1.0);
}

// A fixed three alternating runs per side, minima compared (§3.4), both
// at one placement.
TEST(LatRpcTest, BiggerPayloadsCostMore) {
  OnOneCpu one_cpu;
  ASSERT_TRUE(one_cpu.pinned());
  RpcLatConfig small = RpcLatConfig::quick();
  RpcLatConfig big = RpcLatConfig::quick();
  big.message_bytes = 16384;
  double s = std::numeric_limits<double>::infinity();
  double b = s;
  for (int i = 0; i < 3; ++i) {
    s = std::min(s, measure_rpc_tcp_latency(small).us_per_op());
    b = std::min(b, measure_rpc_tcp_latency(big).us_per_op());
  }
  EXPECT_GT(b, s);
}

}  // namespace
}  // namespace lmb::rpc
