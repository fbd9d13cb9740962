#include "src/bw/bw_ipc.h"

#include <gtest/gtest.h>

#include "src/core/timing.h"

namespace lmb::bw {
namespace {

IpcBwConfig tiny() {
  IpcBwConfig cfg;
  cfg.total_bytes = 2u << 20;
  cfg.chunk_bytes = 64u << 10;
  cfg.repetitions = 2;
  return cfg;
}

TEST(BwIpcTest, PipeBandwidthIsPositiveAndPlausible) {
  IpcBwResult r = measure_pipe_bw(tiny());
  EXPECT_GT(r.mb_per_sec, 1.0);
  EXPECT_LT(r.mb_per_sec, 1e6);
  EXPECT_EQ(r.total_bytes, 2u << 20);
  EXPECT_EQ(static_cast<int>(r.per_rep.count()), 2);
  EXPECT_GE(r.mb_per_sec, r.mean_mb_per_sec);  // headline is the best rep
}

TEST(BwIpcTest, UnixBandwidthIsPositive) {
  IpcBwResult r = measure_unix_bw(tiny());
  EXPECT_GT(r.mb_per_sec, 1.0);
}

TEST(BwIpcTest, TcpBandwidthIsPositive) {
  IpcBwConfig cfg = tiny();
  cfg.chunk_bytes = 256u << 10;
  cfg.socket_buffer_bytes = 256 << 10;
  IpcBwResult r = measure_tcp_bw(cfg);
  EXPECT_GT(r.mb_per_sec, 1.0);
}

// §5.2 sizes the socket buffers before connecting.  Sized after the
// handshake, the window scale is already negotiated for the default buffer,
// and 2 MB through 16 KB buffers took 0.4-5.7 s on loopback instead of
// 1-2 ms.
TEST(BwIpcTest, SmallSocketBuffersDoNotStallATransfer) {
  IpcBwConfig cfg = tiny();
  cfg.chunk_bytes = 16u << 10;
  cfg.socket_buffer_bytes = 16 << 10;
  IpcBwResult r = measure_tcp_bw(cfg);
  // Every complete transfer took under 100 ms.
  const double floor_mbs = mb_per_sec(static_cast<double>(cfg.total_bytes), 100e6);
  EXPECT_GT(r.per_rep.min(), floor_mbs) << "slowest of " << r.per_rep.count() << " transfers";
}

TEST(BwIpcTest, ConfigValidation) {
  IpcBwConfig bad = tiny();
  bad.chunk_bytes = 0;
  EXPECT_THROW(measure_pipe_bw(bad), std::invalid_argument);
  bad = tiny();
  bad.chunk_bytes = bad.total_bytes * 2;
  EXPECT_THROW(measure_unix_bw(bad), std::invalid_argument);
  bad = tiny();
  bad.repetitions = 0;
  EXPECT_THROW(measure_tcp_bw(bad), std::invalid_argument);
}

TEST(BwIpcTest, DefaultsMatchPaperParameters) {
  IpcBwConfig pipe = IpcBwConfig::pipe_default();
  EXPECT_EQ(pipe.total_bytes, 50u << 20);  // "transfer 50MB"
  EXPECT_EQ(pipe.chunk_bytes, 64u << 10);  // "in 64K transfers"
  IpcBwConfig tcp = IpcBwConfig::tcp_default();
  EXPECT_EQ(tcp.chunk_bytes, 1u << 20);          // "1M page aligned transfers"
  EXPECT_EQ(tcp.socket_buffer_bytes, 1 << 20);   // "enlarged to 1M"
}

}  // namespace
}  // namespace lmb::bw

namespace lmb::bw {
namespace {

TEST(BwIpcTest, PerRepSamplesAreAllPositive) {
  IpcBwConfig cfg;
  cfg.total_bytes = 1u << 20;
  cfg.chunk_bytes = 64u << 10;
  cfg.repetitions = 3;
  IpcBwResult r = measure_pipe_bw(cfg);
  ASSERT_EQ(r.per_rep.count(), 3u);
  for (double v : r.per_rep.values()) {
    EXPECT_GT(v, 0.0);
  }
  EXPECT_DOUBLE_EQ(r.mb_per_sec, r.per_rep.max());
  EXPECT_DOUBLE_EQ(r.mean_mb_per_sec, r.per_rep.mean());
}

}  // namespace
}  // namespace lmb::bw
