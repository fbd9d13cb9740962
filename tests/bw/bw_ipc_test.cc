#include "src/bw/bw_ipc.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <fstream>
#include <stdexcept>

#include "src/core/clock.h"
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

// True when this process has no child left, running or unreaped.
bool no_child_left() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(BwIpcTest, PipeBandwidthIsPositiveAndPlausible) {
  StreamBwResult r = measure_pipe_bw(tiny(), TimingPolicy::quick());
  EXPECT_GT(r.mb_per_sec, 1.0);
  EXPECT_LT(r.mb_per_sec, 1e6);
  EXPECT_EQ(r.chunk_bytes, 64u << 10);
  // The headline is one chunk over measure()'s minimum.
  EXPECT_GT(r.detail.repetitions, 0);
  EXPECT_DOUBLE_EQ(r.mb_per_sec, mb_per_sec(64u << 10, r.detail.ns_per_op));
  EXPECT_TRUE(no_child_left());
}

TEST(BwIpcTest, UnixBandwidthIsPositive) {
  StreamBwResult r = measure_unix_bw(tiny(), TimingPolicy::quick());
  EXPECT_GT(r.mb_per_sec, 1.0);
  EXPECT_TRUE(no_child_left());
}

// --chunk sets the size of every write and every timed read.
TEST(BwIpcTest, ChunkSizeIsTheOpSize) {
  IpcBwConfig cfg = tiny();
  cfg.chunk_bytes = 4096;
  StreamBwResult r = measure_pipe_bw(cfg, TimingPolicy::quick());
  EXPECT_EQ(r.chunk_bytes, 4096u);
  EXPECT_DOUBLE_EQ(r.mb_per_sec, mb_per_sec(4096, r.detail.ns_per_op));
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
  EXPECT_THROW(measure_unix_bw(bad), std::invalid_argument);
  bad = tiny();
  bad.chunk_bytes = bad.total_bytes * 2;
  EXPECT_THROW(measure_tcp_bw(bad), std::invalid_argument);
  bad = tiny();
  bad.repetitions = 0;
  EXPECT_THROW(measure_tcp_bw(bad), std::invalid_argument);
  EXPECT_TRUE(no_child_left());
}

TEST(BwIpcTest, DefaultsMatchPaperParameters) {
  IpcBwConfig pipe = IpcBwConfig::pipe_default();
  EXPECT_EQ(pipe.chunk_bytes, 64u << 10);  // "in 64K transfers"
  IpcBwConfig tcp = IpcBwConfig::tcp_default();
  EXPECT_EQ(tcp.chunk_bytes, 1u << 20);          // "1M page aligned transfers"
  EXPECT_EQ(tcp.socket_buffer_bytes, 1 << 20);   // "enlarged to 1M"
}

TEST(BwIpcTest, TcpPerRepSamplesAreAllPositive) {
  IpcBwConfig cfg = IpcBwConfig::tcp_default();
  cfg.total_bytes = 2u << 20;
  cfg.repetitions = 3;
  IpcBwResult r = measure_tcp_bw(cfg);
  ASSERT_EQ(r.per_rep.count(), 3u);
  for (double v : r.per_rep.values()) {
    EXPECT_GT(v, 0.0);
  }
  EXPECT_DOUBLE_EQ(r.mb_per_sec, r.per_rep.max());
  EXPECT_DOUBLE_EQ(r.mean_mb_per_sec, r.per_rep.mean());
}

// A wall clock that, from its `after`-th read on, SIGKILLs every child of
// the calling thread: the writer dies mid-measure.
class KillingClock : public Clock {
 public:
  explicit KillingClock(int after) : after_(after) {}
  Nanos now() const override {
    if (++reads_ >= after_) {
      std::ifstream children("/proc/thread-self/children");
      for (pid_t pid = 0; children >> pid;) {
        ::kill(pid, SIGKILL);
      }
    }
    return WallClock::instance().now();
  }

 private:
  int after_;
  mutable int reads_ = 0;
};

// Killed mid-measure, the writer shows as EOF: the reader throws, and
// the benchmark still leaves no child behind.  measure()'s first clock
// read kills the writer; the warm-up then asks for 64 MB, more than any
// pipe or socket buffer holds, so the reader must reach EOF however the
// host schedules it.
TEST(BwIpcTest, WriterKilledMidMeasureThrowsAndLeavesNoChild) {
  if (!std::ifstream("/proc/thread-self/children")) {
    GTEST_SKIP() << "/proc/thread-self/children is not available";
  }
  TimingPolicy policy = TimingPolicy::quick();
  policy.warmup_runs = 1024;
  for (auto* run : {&measure_pipe_bw, &measure_unix_bw}) {
    KillingClock clock(1);
    MeasureScope scope(clock);
    EXPECT_THROW(run(tiny(), policy), std::runtime_error);
    EXPECT_TRUE(no_child_left());
  }
}

}  // namespace
}  // namespace lmb::bw
