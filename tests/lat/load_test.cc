// Tests for the c10k pieces: LoadServer (src/lat/load_server.h), the load
// generator (src/lat/load_gen.h), and the registered lat_tcp_n / lat_rpc_n /
// bw_tcp_n benchmarks (src/lat/lat_load.cc).
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/clock.h"
#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/core/run_result.h"
#include "src/lat/load_gen.h"
#include "src/lat/load_server.h"
#include "src/report/heatmap.h"
#include "src/sys/fdio.h"
#include "src/sys/socket.h"

namespace lmb::lat {
namespace {

// Direct blocking-socket round trip against the epoll server: the simplest
// possible client exercises accept, echo, and orderly close.
TEST(LoadServerTest, EchoesBytesBack) {
  LoadServer server;
  sys::TcpStream c = sys::TcpStream::connect(server.port());
  const std::string msg = "hello, c10k";
  sys::write_full(c.fd(), msg.data(), msg.size());
  std::string back(msg.size(), '\0');
  sys::read_full(c.fd(), back.data(), back.size());
  EXPECT_EQ(back, msg);

  // The kernel hands us the echo before the server thread bumps its
  // counters; poll briefly rather than racing the stats read.
  for (int i = 0; i < 200 && server.stats().bytes_out < msg.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  LoadServerStats s = server.stats();
  EXPECT_GE(s.accepted, 1u);
  EXPECT_GE(s.bytes_in, msg.size());
  EXPECT_GE(s.bytes_out, msg.size());
}

TEST(LoadServerTest, RpcFramesGetFixedSizeReplies) {
  LoadServerConfig cfg;
  cfg.protocol = ServerProtocol::kRpc;
  cfg.reply_bytes = 32;
  LoadServer server(cfg);

  sys::TcpStream c = sys::TcpStream::connect(server.port());
  // Two requests in one write: framing must split them.
  std::string wire;
  for (int r = 0; r < 2; ++r) {
    const std::string payload = "request payload";
    wire.push_back(0);
    wire.push_back(0);
    wire.push_back(0);
    wire.push_back(static_cast<char>(payload.size()));
    wire += payload;
  }
  sys::write_full(c.fd(), wire.data(), wire.size());

  for (int r = 0; r < 2; ++r) {
    unsigned char len[4];
    sys::read_full(c.fd(), len, 4);
    std::uint32_t frame = (std::uint32_t{len[0]} << 24) | (std::uint32_t{len[1]} << 16) |
                          (std::uint32_t{len[2]} << 8) | len[3];
    ASSERT_EQ(frame, 32u);
    std::string reply(frame, '\0');
    sys::read_full(c.fd(), reply.data(), reply.size());
  }
  EXPECT_GE(server.stats().requests, 2u);
}

TEST(LoadServerTest, SinkDiscardsWithoutReplying) {
  LoadServerConfig cfg;
  cfg.protocol = ServerProtocol::kSink;
  LoadServer server(cfg);

  std::vector<char> block(128 * 1024, 'b');
  {
    sys::TcpStream c = sys::TcpStream::connect(server.port());
    sys::write_full(c.fd(), block.data(), block.size());
    c.shutdown_write();
    // Wait for the orderly close from the server side (EOF back to us —
    // the sink never sends data, so any read result must be EOF).
    char buf[16];
    EXPECT_EQ(c.recv_some(buf, sizeof buf), 0u);
  }
  // The server read everything and sent nothing; wait for the counters.
  for (int i = 0; i < 200 && server.stats().bytes_in < block.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  LoadServerStats s = server.stats();
  EXPECT_GE(s.bytes_in, block.size());
  EXPECT_EQ(s.bytes_out, 0u);
}

// The acceptance criterion from the issue: an idle epoll server must block,
// not spin.  Let the server sit idle and bound its loop-thread CPU time.
TEST(LoadServerTest, IdleServerDoesNotBusySpin) {
  LoadServer server;
  // One connect/close round so the loop has demonstrably run.
  { sys::TcpStream c = sys::TcpStream::connect(server.port()); }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.stop();
  LoadServerStats s = server.stats();
  // 300 ms idle wall time; a spinning loop would burn ~300 ms of CPU.
  // 50 ms leaves room for accept/close work and a slow CI box.
  EXPECT_LT(s.loop_cpu_ns, 50 * kMillisecond)
      << "event loop consumed CPU while idle (busy-spin)";
}

// Level- and edge-triggered epoll must be observably equivalent at the
// byte level: same echoes, same framed replies, same sink consumption.
// Only the wakeup pattern may differ.
class LoadServerModeTest : public ::testing::TestWithParam<EpollMode> {};

TEST_P(LoadServerModeTest, EchoRoundTripsEveryByte) {
  LoadServerConfig cfg;
  cfg.epoll_mode = GetParam();
  LoadServer server(cfg);

  sys::TcpStream c = sys::TcpStream::connect(server.port());
  const size_t total = 256u << 10;
  std::thread writer([&] {
    std::vector<char> block(8192);
    size_t sent = 0;
    while (sent < total) {
      const size_t n = std::min(block.size(), total - sent);
      for (size_t i = 0; i < n; ++i) {
        block[i] = static_cast<char>('a' + (sent + i) % 23);
      }
      sys::write_full(c.fd(), block.data(), n);
      sent += n;
    }
  });
  std::vector<char> got(total);
  sys::read_full(c.fd(), got.data(), got.size());
  writer.join();
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[i], static_cast<char>('a' + i % 23)) << "byte " << i;
  }
}

TEST_P(LoadServerModeTest, RpcBatchGetsOneReplyPerFrame) {
  LoadServerConfig cfg;
  cfg.protocol = ServerProtocol::kRpc;
  cfg.reply_bytes = 32;
  cfg.epoll_mode = GetParam();
  LoadServer server(cfg);

  sys::TcpStream c = sys::TcpStream::connect(server.port());
  // 16 frames in one write: the writev reply path coalesces the replies.
  std::string wire;
  const std::string payload = "writev batching test";
  for (int r = 0; r < 16; ++r) {
    wire.push_back(0);
    wire.push_back(0);
    wire.push_back(0);
    wire.push_back(static_cast<char>(payload.size()));
    wire += payload;
  }
  sys::write_full(c.fd(), wire.data(), wire.size());
  for (int r = 0; r < 16; ++r) {
    unsigned char len[4];
    sys::read_full(c.fd(), len, 4);
    const std::uint32_t frame = (std::uint32_t{len[0]} << 24) | (std::uint32_t{len[1]} << 16) |
                                (std::uint32_t{len[2]} << 8) | len[3];
    ASSERT_EQ(frame, 32u) << "reply " << r;
    std::string reply(frame, '\0');
    sys::read_full(c.fd(), reply.data(), reply.size());
  }
  EXPECT_GE(server.stats().requests, 16u);
}

TEST_P(LoadServerModeTest, SinkConsumesEverything) {
  LoadServerConfig cfg;
  cfg.protocol = ServerProtocol::kSink;
  cfg.epoll_mode = GetParam();
  LoadServer server(cfg);

  std::vector<char> block(192 * 1024, 's');
  {
    sys::TcpStream c = sys::TcpStream::connect(server.port());
    sys::write_full(c.fd(), block.data(), block.size());
    c.shutdown_write();
    char buf[16];
    EXPECT_EQ(c.recv_some(buf, sizeof buf), 0u);
  }
  for (int i = 0; i < 200 && server.stats().bytes_in < block.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  LoadServerStats s = server.stats();
  EXPECT_GE(s.bytes_in, block.size());
  EXPECT_EQ(s.bytes_out, 0u);
}

INSTANTIATE_TEST_SUITE_P(LevelAndEdge, LoadServerModeTest,
                         ::testing::Values(EpollMode::kLevel, EpollMode::kEdge));

// The hard ET case: a peer that writes multiple MB without reading pushes
// the server's pending output past its 1 MB high water, which makes the
// server stop reading mid-drain.  Under EPOLLET no further EPOLLIN edge is
// coming for the bytes already queued in the kernel — the server must
// remember the deferred drain and resume it from the EPOLLOUT-driven flush,
// or this test deadlocks (and every byte must still come back in order).
TEST(LoadServerEdgeTest, EchoSurvivesOutputBackpressure) {
  LoadServerConfig cfg;
  cfg.epoll_mode = EpollMode::kEdge;
  LoadServer server(cfg);

  // Small socket buffers: the server's flush hits EAGAIN early, so the
  // 1 MB userspace high water does the backpressure, not kernel buffering.
  sys::TcpStream c = sys::TcpStream::connect(server.port(), 32 * 1024);
  const size_t total = 4u << 20;
  std::thread writer([&] {
    std::vector<char> block(64 * 1024);
    size_t sent = 0;
    while (sent < total) {
      const size_t n = std::min(block.size(), total - sent);
      for (size_t i = 0; i < n; ++i) {
        block[i] = static_cast<char>('A' + (sent + i) % 29);
      }
      sys::write_full(c.fd(), block.data(), n);
      sent += n;
    }
  });
  // Give the writer time to fill every buffer in the chain while nothing
  // reads, forcing the deferred-drain path.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<char> got(64 * 1024);
  size_t received = 0;
  while (received < total) {
    const size_t n = c.recv_some(got.data(), std::min(got.size(), total - received));
    ASSERT_GT(n, 0u) << "server closed early at byte " << received;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], static_cast<char>('A' + (received + i) % 29))
          << "byte " << received + i;
    }
    received += n;
  }
  writer.join();
  EXPECT_EQ(received, total);
}

TEST(LoadServerShardTest, ShardStatsSumExactlyToAggregate) {
  LoadServerConfig cfg;
  cfg.shards = 2;
  LoadServer server(cfg);
  ASSERT_EQ(server.shards(), 2);

  // A ramp of short-lived echo connections; SO_REUSEPORT hashes them
  // across both shards' accept queues.
  const std::string msg = "shard me";
  for (int i = 0; i < 32; ++i) {
    sys::TcpStream c = sys::TcpStream::connect(server.port());
    sys::write_full(c.fd(), msg.data(), msg.size());
    std::string back(msg.size(), '\0');
    sys::read_full(c.fd(), back.data(), back.size());
    ASSERT_EQ(back, msg);
  }
  for (int i = 0; i < 200 && server.stats().bytes_out < 32 * msg.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();

  const LoadServerStats total = server.stats();
  LoadServerStats sum;
  for (int i = 0; i < server.shards(); ++i) {
    const LoadServerStats s = server.shard_stats(i);
    sum.accepted += s.accepted;
    sum.closed += s.closed;
    sum.bytes_in += s.bytes_in;
    sum.bytes_out += s.bytes_out;
    sum.wakeups += s.wakeups;
    sum.loop_cpu_ns += s.loop_cpu_ns;
  }
  EXPECT_EQ(sum.accepted, total.accepted);
  EXPECT_EQ(sum.closed, total.closed);
  EXPECT_EQ(sum.bytes_in, total.bytes_in);
  EXPECT_EQ(sum.bytes_out, total.bytes_out);
  EXPECT_EQ(sum.wakeups, total.wakeups);
  EXPECT_EQ(sum.loop_cpu_ns, total.loop_cpu_ns);
  EXPECT_EQ(total.accepted, 32u);
  EXPECT_EQ(total.bytes_in, 32 * msg.size());
  EXPECT_EQ(total.bytes_out, 32 * msg.size());
}

// Regression for the cross-thread stats hazard: stats() must be safely
// callable from any thread while shards are mutating their counters.  The
// sanitizer CI job runs this under TSan; the assertions also catch torn
// reads (a counter appearing to go backwards).
TEST(LoadServerShardTest, StatsAreReadableWhileTrafficFlows) {
  LoadServerConfig scfg;
  scfg.shards = 2;
  LoadServer server(scfg);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_in = 0;
    std::uint64_t last_req = 0;
    while (!done.load(std::memory_order_acquire)) {
      const LoadServerStats s = server.stats();
      ASSERT_GE(s.bytes_in, last_in) << "monotonic counter went backwards";
      ASSERT_GE(s.requests, last_req);
      last_in = s.bytes_in;
      last_req = s.requests;
    }
  });

  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.duration = 200 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
}

TEST(LoadGenTest, RejectsBadConfigs) {
  LoadGenConfig cfg;  // port = 0
  EXPECT_THROW(run_load(cfg), std::invalid_argument);

  cfg.port = 1;
  cfg.connections = 0;
  EXPECT_THROW(run_load(cfg), std::invalid_argument);

  cfg.connections = 4;
  cfg.arrival = ArrivalMode::kOpenPoisson;
  cfg.rate_per_sec = 0.0;  // open loop needs a rate
  EXPECT_THROW(run_load(cfg), std::invalid_argument);

  cfg.protocol = ClientProtocol::kStream;
  cfg.arrival = ArrivalMode::kOpenUniform;
  cfg.rate_per_sec = 100.0;
  EXPECT_THROW(run_load(cfg), std::invalid_argument) << "stream mode is closed-loop only";

  cfg.protocol = ClientProtocol::kEcho;
  cfg.arrival = ArrivalMode::kClosedLoop;
  cfg.shards = 0;
  EXPECT_THROW(run_load(cfg), std::invalid_argument);
}

TEST(LoadGenTest, ShardedGeneratorMergesWorkerResults) {
  LoadServerConfig scfg;
  scfg.shards = 2;
  LoadServer server(scfg);

  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.shards = 2;  // 4 connections per worker thread
  cfg.request_bytes = 64;
  cfg.duration = 200 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);

  EXPECT_EQ(r.connections, 8) << "every worker's connections established";
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
  ASSERT_GT(r.rtt_hist.count(), 0u);
  const double p50 = r.rtt_hist.percentile(50);
  const double p99 = r.rtt_hist.percentile(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_GT(r.ops_per_sec, 0.0);
}

TEST(LoadGenTest, ShardedMaxRequestsCapHoldsAcrossWorkers) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.shards = 2;
  cfg.duration = 10 * kSecond;  // the cap must end the run, not the clock
  cfg.warmup = 0;
  cfg.max_requests = 50;
  LoadResult r = run_load(cfg);
  EXPECT_GE(r.total_requests, 50u);
  EXPECT_LT(r.total_requests, 50u + 2u * 4u) << "at most one extra in-flight round";
}

TEST(LoadGenTest, ClosedLoopEchoCollectsSamples) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.request_bytes = 64;
  cfg.duration = 200 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);

  EXPECT_EQ(r.connections, 8);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
  EXPECT_GE(r.total_requests, r.requests);
  ASSERT_GT(r.rtt_hist.count(), 0u);
  // Percentiles are finite and ordered.
  double p50 = r.rtt_hist.percentile(50);
  double p99 = r.rtt_hist.percentile(99);
  double p999 = r.rtt_hist.percentile(99.9);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(r.ops_per_sec, 0.0);
}

TEST(LoadGenTest, MaxRequestsCapsTheRun) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.duration = 10 * kSecond;  // cap must end the run long before this
  cfg.warmup = 0;
  cfg.max_requests = 50;
  LoadResult r = run_load(cfg);
  EXPECT_GE(r.total_requests, 50u);
  EXPECT_LT(r.total_requests, 50u + 2u * 4u) << "at most one extra in-flight round";
}

TEST(LoadGenTest, OpenLoopPoissonMeetsApproximateRate) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 16;
  cfg.arrival = ArrivalMode::kOpenPoisson;
  cfg.rate_per_sec = 2000.0;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
  // ~600 arrivals scheduled in the window; loopback echo at 64 B keeps up.
  // Allow a generous band — this asserts the scheduler works, not its jitter.
  EXPECT_GT(r.ops_per_sec, 2000.0 * 0.4);
  EXPECT_LT(r.ops_per_sec, 2000.0 * 2.0);
}

TEST(LoadGenTest, RpcRoundTripsAgainstRpcServer) {
  LoadServerConfig scfg;
  scfg.protocol = ServerProtocol::kRpc;
  scfg.reply_bytes = 48;
  scfg.work_iters = 100;
  LoadServer server(scfg);

  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.protocol = ClientProtocol::kRpc;
  cfg.request_bytes = 64;
  cfg.reply_bytes = 48;
  cfg.duration = 200 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
  // The generator quiesces at end-of-window and abandons in-flight
  // requests; the server still serves anything already on the wire, so
  // its count can exceed the client's by a few per connection — but a
  // framing bug would put them whole multiples apart.
  LoadServerStats s = server.stats();
  EXPECT_GE(s.requests, r.total_requests);
  EXPECT_LE(s.requests, r.total_requests + 4u * 8u);
}

TEST(LoadGenTest, StreamModePushesBytesIntoSink) {
  LoadServerConfig scfg;
  scfg.protocol = ServerProtocol::kSink;
  LoadServer server(scfg);

  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.protocol = ClientProtocol::kStream;
  cfg.request_bytes = 32 * 1024;
  cfg.duration = 200 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.bytes_sent, 0u);
  EXPECT_GT(r.mb_per_sec, 0.0);
  ASSERT_GT(r.rtt_hist.count(), 0u) << "per-block send latency sampled";
}

// Registered-benchmark smoke: the full pipeline (flags -> scenarios ->
// metrics) at quick settings, asserting the ordered-percentile contract the
// CI smoke step also checks.
class RegisteredLoadBenchTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RegisteredLoadBenchTest, QuickRunEmitsOrderedPercentiles) {
  const BenchmarkInfo* info = Registry::global().find(GetParam());
  ASSERT_NE(info, nullptr) << GetParam() << " not registered";

  const char* argv[] = {"test", "--quick", "--connections=8", "--duration=150"};
  Options opts = Options::parse(4, argv);
  RunResult r = info->run(opts);
  ASSERT_TRUE(r.ok()) << r.error;

  for (const std::string sc : {"loopback", "sim"}) {
    std::optional<double> p50 = r.metric(sc + "_p50_us");
    std::optional<double> p99 = r.metric(sc + "_p99_us");
    std::optional<double> p999 = r.metric(sc + "_p999_us");
    ASSERT_TRUE(p50.has_value()) << sc;
    ASSERT_TRUE(p99.has_value()) << sc;
    ASSERT_TRUE(p999.has_value()) << sc;
    EXPECT_TRUE(std::isfinite(*p50)) << sc;
    EXPECT_TRUE(std::isfinite(*p999)) << sc;
    EXPECT_GT(*p50, 0.0) << sc;
    EXPECT_LE(*p50, *p99) << sc;
    EXPECT_LE(*p99, *p999) << sc;
  }
  EXPECT_FALSE(r.summary().empty());
}

INSTANTIATE_TEST_SUITE_P(LoadBenches, RegisteredLoadBenchTest,
                         ::testing::Values("lat_tcp_n", "lat_rpc_n"));

TEST(RegisteredLoadBenchSmoke, BandwidthBenchEmitsThroughput) {
  const BenchmarkInfo* info = Registry::global().find("bw_tcp_n");
  ASSERT_NE(info, nullptr);
  const char* argv[] = {"test", "--quick", "--connections=4", "--duration=150"};
  Options opts = Options::parse(4, argv);
  RunResult r = info->run(opts);
  ASSERT_TRUE(r.ok()) << r.error;
  std::optional<double> loop = r.metric("loopback_mbs");
  std::optional<double> sim = r.metric("sim_mbs");
  ASSERT_TRUE(loop.has_value());
  ASSERT_TRUE(sim.has_value());
  EXPECT_GT(*loop, 0.0);
  EXPECT_GT(*sim, 0.0);
}

TEST(RegisteredLoadBenchSmoke, ShardSweepEmitsPerCountVariants) {
  const BenchmarkInfo* info = Registry::global().find("lat_tcp_n");
  ASSERT_NE(info, nullptr);
  const char* argv[] = {"test",          "--quick",       "--connections=8",
                        "--duration=150", "--net=loopback", "--shards=1,2",
                        "--epoll=et"};
  Options opts = Options::parse(7, argv);
  RunResult r = info->run(opts);
  ASSERT_TRUE(r.ok()) << r.error;

  // Standard keys come from the first shard count; each count in the sweep
  // adds its own variants.
  EXPECT_TRUE(r.metric("loopback_p50_us").has_value());
  for (const std::string n : {"1", "2"}) {
    EXPECT_TRUE(r.metric("loopback_s" + n + "_rps").has_value()) << n;
    EXPECT_TRUE(r.metric("loopback_s" + n + "_p99_us").has_value()) << n;
    EXPECT_TRUE(r.metric("loopback_s" + n + "_wakeups_per_req").has_value()) << n;
  }
  EXPECT_EQ(r.metadata["epoll"], "et");
  EXPECT_EQ(r.metadata["shards"], "1,2");
  EXPECT_EQ(r.metadata["s2_errors"], "0");

  // The per-shard accept counts must sum exactly to the aggregate — the
  // same cross-check the CI load-smoke step scripts against the JSON.
  ASSERT_TRUE(r.metadata.count("s2_shard_accepts"));
  ASSERT_TRUE(r.metadata.count("s2_accepted"));
  const std::string accepts = r.metadata["s2_shard_accepts"];
  ASSERT_NE(accepts.find(','), std::string::npos) << "expected one count per shard";
  std::uint64_t sum = 0;
  size_t pos = 0;
  while (pos != std::string::npos) {
    sum += std::strtoull(accepts.c_str() + (pos == 0 ? 0 : pos + 1), nullptr, 10);
    pos = accepts.find(',', pos + 1);
  }
  EXPECT_EQ(std::to_string(sum), r.metadata["s2_accepted"]);

  // The neutral engine metrics ride along on every loopback run.
  EXPECT_TRUE(r.metric("loopback_wakeups_per_req").has_value());
  EXPECT_TRUE(r.metric("loopback_loop_cpu_ns").has_value());
}

// --- Interval telemetry & bounded-memory RTT collection ------------------

TEST(LoadGenTest, IntervalSeriesWindowsSumToAggregate) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  cfg.interval = 50 * kMillisecond;
  LoadResult r = run_load(cfg);

  ASSERT_GE(r.intervals.size(), 3u) << "300 ms run at 50 ms windows";
  // The exact-accounting contract: every measured request lands in exactly
  // one window, so the per-window sums reproduce the aggregate.
  std::uint64_t sum = 0;
  std::uint64_t errs = 0;
  for (const auto& win : r.intervals) {
    EXPECT_EQ(win.hist.count(), win.requests) << "window histogram tracks its counter";
    sum += win.requests;
    errs += win.errors;
  }
  EXPECT_EQ(sum, r.requests);
  EXPECT_LE(errs, r.errors) << "windows only see measured-phase errors";
  // Windows tile the measured phase contiguously.
  EXPECT_EQ(r.intervals.front().start, 0);
  for (std::size_t i = 0; i + 1 < r.intervals.size(); ++i) {
    EXPECT_EQ(r.intervals[i].end, r.intervals[i + 1].start) << "window " << i;
    EXPECT_LT(r.intervals[i].start, r.intervals[i].end) << "window " << i;
  }
}

TEST(LoadGenTest, NoIntervalFlagMeansNoSeries) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  cfg.duration = 100 * kMillisecond;
  cfg.warmup = 0;
  LoadResult r = run_load(cfg);
  EXPECT_TRUE(r.intervals.empty());
  EXPECT_GT(r.rtt_hist.count(), 0u);
}

TEST(LoadGenTest, ReservoirStaysBoundedUnderLoad) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 0;
  cfg.reservoir_cap = 64;  // force subsampling
  LoadResult r = run_load(cfg);
  ASSERT_GT(r.requests, 64u) << "need enough traffic to overflow the cap";
  EXPECT_LE(r.rtt_reservoir.count(), 64u);
  EXPECT_EQ(r.rtt_seen, r.rtt_hist.count());
  EXPECT_GT(r.rtt_seen, r.rtt_reservoir.count()) << "reservoir subsampled";
}

TEST(LoadGenTest, HistogramMatchesReservoirReference) {
  LoadServer server;
  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  LoadResult r = run_load(cfg);

  // Default cap (256k) far exceeds a 300 ms loopback run, so the reservoir
  // held every RTT and is an exact reference for the histogram.
  ASSERT_EQ(r.rtt_reservoir.count(), r.rtt_hist.count()) << "reservoir should not subsample";
  for (double p : {50.0, 99.0}) {
    const double exact = r.rtt_reservoir.percentile(p);
    const double approx = r.rtt_hist.percentile(p);
    ASSERT_GT(exact, 0.0);
    EXPECT_NEAR(approx, exact, exact * 0.02) << "p" << p;
  }
}

TEST(LoadGenTest, ShardedIntervalSeriesMergesIndexWise) {
  LoadServerConfig scfg;
  scfg.shards = 2;
  LoadServer server(scfg);

  LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.connections = 8;
  cfg.shards = 2;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 20 * kMillisecond;
  cfg.interval = 50 * kMillisecond;
  LoadResult r = run_load(cfg);

  ASSERT_GE(r.intervals.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto& win : r.intervals) {
    EXPECT_EQ(win.hist.count(), win.requests);
    sum += win.requests;
  }
  EXPECT_EQ(sum, r.requests) << "merged shard windows reproduce the aggregate";
  for (std::size_t i = 0; i + 1 < r.intervals.size(); ++i) {
    EXPECT_EQ(r.intervals[i].end, r.intervals[i + 1].start) << "window " << i;
  }
}

TEST(RegisteredLoadBenchSmoke, IntervalFlagEmitsHeatmapMetadata) {
  const BenchmarkInfo* info = Registry::global().find("lat_tcp_n");
  ASSERT_NE(info, nullptr);
  const char* argv[] = {"test",           "--quick",        "--connections=8",
                        "--duration=300", "--net=loopback", "--interval-ms=50"};
  Options opts = Options::parse(6, argv);
  RunResult r = info->run(opts);
  ASSERT_TRUE(r.ok()) << r.error;

  ASSERT_TRUE(r.metadata.count("heatmap_loopback")) << "heatmap doc missing";
  report::Heatmap map = report::heatmap_from_json(r.metadata["heatmap_loopback"]);
  EXPECT_EQ(map.bench, "lat_tcp_n");
  ASSERT_GE(map.windows.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto& win : map.windows) {
    std::uint64_t row = 0;
    for (std::uint64_t c : win.counts) {
      row += c;
    }
    EXPECT_EQ(row, win.requests);
    sum += win.requests;
  }
  EXPECT_EQ(sum, map.total_requests());
  // The aggregate cross-check block is populated and self-consistent.
  EXPECT_GT(map.p50_us, 0.0);
  EXPECT_LE(map.p50_us, map.p99_us);
  EXPECT_LE(map.p99_us, map.p999_us);
  if (!map.raw_sampled && map.raw_p50_us > 0.0) {
    EXPECT_NEAR(map.p50_us, map.raw_p50_us, map.raw_p50_us * 0.02);
    EXPECT_NEAR(map.p99_us, map.raw_p99_us, map.raw_p99_us * 0.02);
  }
  EXPECT_TRUE(r.metadata.count("interval_windows"));
}

TEST(RegisteredLoadBenchSmoke, SimScenarioSurvivesLoss) {
  const BenchmarkInfo* info = Registry::global().find("lat_tcp_n");
  ASSERT_NE(info, nullptr);
  const char* argv[] = {"test",      "--quick",    "--connections=8",
                        "--duration=150", "--net=sim", "--loss=0.01"};
  Options opts = Options::parse(6, argv);
  RunResult r = info->run(opts);
  ASSERT_TRUE(r.ok()) << r.error;
  std::optional<double> p999 = r.metric("sim_p999_us");
  ASSERT_TRUE(p999.has_value());
  EXPECT_TRUE(std::isfinite(*p999));
  EXPECT_GT(*p999, 0.0);
  // Loss happened and was retransmitted, not silently dropped.
  EXPECT_TRUE(r.metadata.count("sim_retransmits"));
  // Loopback scenario was skipped: --net=sim runs the simulator only.
  EXPECT_FALSE(r.metric("loopback_p50_us").has_value());
}

}  // namespace
}  // namespace lmb::lat
