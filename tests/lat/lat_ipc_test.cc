#include "src/lat/lat_ipc.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <limits>

#include "src/core/topology.h"

namespace lmb::lat {
namespace {

IpcLatConfig quick() { return IpcLatConfig::quick(); }

TEST(LatIpcTest, PipeRoundTripIsMicrosecondScale) {
  Measurement m = measure_pipe_latency(quick());
  EXPECT_GT(m.us_per_op(), 0.5);
  EXPECT_LT(m.us_per_op(), 10000.0);
}

TEST(LatIpcTest, UnixRoundTripWorks) {
  Measurement m = measure_unix_latency(quick());
  EXPECT_GT(m.us_per_op(), 0.5);
}

TEST(LatIpcTest, TcpRoundTripWorks) {
  Measurement m = measure_tcp_latency(quick());
  EXPECT_GT(m.us_per_op(), 1.0);
  EXPECT_LT(m.us_per_op(), 100000.0);
}

TEST(LatIpcTest, UdpRoundTripWorks) {
  Measurement m = measure_udp_latency(quick());
  EXPECT_GT(m.us_per_op(), 1.0);
}

TEST(LatIpcTest, PipeIsCheaperThanTcp) {
  // §6.7: "Because of the simplicity of pipes, they are frequently the
  // fastest portable communication mechanism."
  double pipe_us = measure_pipe_latency(quick()).us_per_op();
  double tcp_us = measure_tcp_latency(quick()).us_per_op();
  EXPECT_LT(pipe_us, tcp_us * 1.5);
}

// A fixed three alternating runs per side, minima compared (§3.4).
TEST(LatIpcTest, LargerMessagesCostMore) {
  IpcLatConfig small = quick();
  IpcLatConfig big = quick();
  big.message_bytes = 16384;
  double s = std::numeric_limits<double>::infinity();
  double b = s;
  for (int i = 0; i < 3; ++i) {
    s = std::min(s, measure_pipe_latency(small).us_per_op());
    b = std::min(b, measure_pipe_latency(big).us_per_op());
  }
  EXPECT_GT(b, s);
}

TEST(LatIpcTest, MessageSizeValidated) {
  IpcLatConfig bad = quick();
  bad.message_bytes = 0;
  EXPECT_THROW(measure_pipe_latency(bad), std::invalid_argument);
  bad.message_bytes = 1;  // UDP reserves 1-byte datagrams as terminator
  EXPECT_THROW(measure_udp_latency(bad), std::invalid_argument);
}

// A connect whose SYN was dropped waits out the kernel's 1 s initial
// retransmission timeout.  The listener's backlog holds every connect, so
// even one that lands before the acceptor child runs stays far below it.
constexpr double kNoSynRetransmitNs = 200e6;  // a fifth of 1 s

// Holds the calling thread, and so the acceptor child forked under it, on
// the CPU it runs on.  The child then cannot accept before the connect loop
// blocks, so every connect must fit in the listen backlog.  That is the
// worst case, which a multi-CPU host produces only when the child happens
// to start late.
class OnOneCpu {
 public:
  OnOneCpu() {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              pin_current_thread(current_cpu());
  }
  ~OnOneCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  OnOneCpu(const OnOneCpu&) = delete;
  OnOneCpu& operator=(const OnOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

TEST(LatIpcTest, ConnectLatencyUsesMinOfTwenty) {
  OnOneCpu one_cpu;
  ASSERT_TRUE(one_cpu.pinned());
  ConnectConfig cfg;
  cfg.connects = 20;
  Measurement m = measure_tcp_connect(cfg);
  EXPECT_EQ(m.repetitions, 20);
  EXPECT_GT(m.us_per_op(), 1.0);
  EXPECT_LE(m.ns_per_op, m.mean_ns_per_op);
  EXPECT_LT(m.max_ns_per_op, kNoSynRetransmitNs);
}

TEST(LatIpcTest, ConnectsAtTheCapNeverWaitOutASynRetransmit) {
  OnOneCpu one_cpu;
  ASSERT_TRUE(one_cpu.pinned());
  ConnectConfig cfg;
  cfg.connects = ConnectConfig::kMaxConnects;
  Measurement m = measure_tcp_connect(cfg);
  EXPECT_EQ(m.repetitions, 128);
  EXPECT_LT(m.max_ns_per_op, kNoSynRetransmitNs);
}

TEST(LatIpcTest, ConnectCountValidated) {
  ConnectConfig cfg;
  for (int n : {0, ConnectConfig::kMaxConnects + 1}) {
    cfg.connects = n;
    EXPECT_THROW(measure_tcp_connect(cfg), std::invalid_argument) << n;
  }
}

}  // namespace
}  // namespace lmb::lat
