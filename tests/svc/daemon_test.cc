// lmbenchd + client round trips against an in-process daemon wired to a
// registry of synthetic benchmarks.
#include "src/svc/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/clock.h"
#include "src/obs/interval_stream.h"
#include "src/svc/client.h"
#include "src/svc/wire.h"
#include "src/sys/error.h"
#include "src/sys/socket.h"
#include "src/sys/temp.h"

namespace lmb::svc {
namespace {

using report::JsonValue;
using report::find;

// Gate for fake_gate: the benchmark parks until the test opens the gate, so
// status can be queried while a job is verifiably mid-run.
std::atomic<bool> gate_open{false};
std::atomic<bool> gate_entered{false};

// Must outlive the daemon (abandoned-thread rule in bench_service.h) and
// the daemon's threads, so both live for the whole test binary.
Registry& test_registry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->add(BenchmarkInfo{
        .name = "fake_lat",
        .category = "latency",
        .description = "synthetic latency",
        .run = [](const Options&) { return RunResult().add("us", 10.0, "us"); },
    });
    r->add(BenchmarkInfo{
        .name = "fake_bw",
        .category = "bandwidth",
        .description = "synthetic bandwidth",
        .run = [](const Options&) { return RunResult().add("mbs", 5000.0, "MB/s"); },
    });
    r->add(BenchmarkInfo{
        .name = "fake_stream",
        .category = "latency",
        .description = "publishes interval telemetry frames like a load bench",
        .run =
            [](const Options&) {
              auto& pub = obs::IntervalPublisher::global();
              for (int w = 0; w < 4; ++w) {
                obs::IntervalFrame f;
                f.source = "fake_stream/loopback";
                f.shard = 0;
                f.window = w;
                f.start = w * 10 * kMillisecond;
                f.end = (w + 1) * 10 * kMillisecond;
                f.requests = 100;
                f.total_requests = 100u * (w + 1);
                f.rps = 10'000.0;
                f.p50_ns = 20'000.0;
                f.p99_ns = 40'000.0;
                f.p999_ns = 50'000.0;
                pub.publish(f);
              }
              return RunResult().add("us", 1.0, "us");
            },
    });
    r->add(BenchmarkInfo{
        .name = "fake_gate",
        .category = "latency",
        .description = "parks until the test opens the gate",
        .run =
            [](const Options&) {
              gate_entered = true;
              while (!gate_open) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
              }
              return RunResult().add("us", 2.0, "us");
            },
    });
    return r;
  }();
  return *registry;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonConfig config() {
    DaemonConfig c;
    c.socket_path = tmp_.path() + "/d.sock";
    c.store_dir = tmp_.path() + "/trends";
    c.cal_cache_path = tmp_.path() + "/cal.db";
    c.registry = &test_registry();
    return c;
  }
  std::map<std::string, std::string> quick_args() {
    return {{"only", "fake_lat,fake_bw"}, {"no-cal-cache", "true"}};
  }
  sys::TempDir tmp_;
};

TEST_F(DaemonTest, SubmitStreamsProgressAndReturnsResults) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  std::vector<std::string> events;
  JsonValue done = client.submit(quick_args(), [&](const JsonValue& frame) {
    if (const JsonValue* event = find(frame.object(), "event")) {
      events.push_back(event->str());
    }
  });

  // The stream carries queue ack, suite start, one finish per benchmark,
  // and the terminal frame.
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front(), "queued");
  EXPECT_EQ(events.back(), "done");
  EXPECT_EQ(std::count(events.begin(), events.end(), "bench_finish"), 2);

  const report::JsonObject& obj = done.object();
  EXPECT_EQ(static_cast<int>(find(obj, "exit_code")->number()), 0);
  EXPECT_EQ(static_cast<int>(find(obj, "metrics")->number()), 2);
  // The embedded results document is a full lmbenchpp.results.v1 batch.
  const JsonValue* results = find(obj, "results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(find(results->object(), "schema")->str(), "lmbenchpp.results.v1");
  EXPECT_EQ(results->object().at("results").array().size(), 2u);

  daemon.stop();
}

TEST_F(DaemonTest, TwoSubmitsBuildATwoPointTrendSeries) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  client.submit(quick_args());
  client.submit(quick_args());

  JsonValue trend = client.trend();
  const report::JsonObject& obj = trend.object();
  ASSERT_EQ(find(obj, "error"), nullptr);
  const JsonValue* series = find(find(obj, "trend")->object(), "series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->array().empty());
  for (const JsonValue& s : series->array()) {
    EXPECT_EQ(find(s.object(), "points")->array().size(), 2u);
  }
  daemon.stop();
}

TEST_F(DaemonTest, StatusAndResultsOps) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  JsonValue before = client.status();
  EXPECT_EQ(find(before.object(), "state")->str(), "idle");
  EXPECT_EQ(static_cast<int>(find(before.object(), "completed")->number()), 0);
  EXPECT_TRUE(find(client.results().object(), "results")->is_null());

  client.submit(quick_args());
  JsonValue after = client.status();
  EXPECT_EQ(static_cast<int>(find(after.object(), "completed")->number()), 1);
  EXPECT_FALSE(find(client.results().object(), "results")->is_null());
  daemon.stop();
}

TEST_F(DaemonTest, StatusReportsSuiteProgressMidRun) {
  gate_open = false;
  gate_entered = false;
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  std::thread submitter([&] {
    Client jobs(daemon.socket_path());
    jobs.submit({{"only", "fake_lat,fake_gate"}, {"no-cal-cache", "true"}});
  });
  // Wait until the gated benchmark is verifiably executing.
  for (int i = 0; i < 1000 && !gate_entered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(gate_entered.load()) << "fake_gate never started";

  JsonValue mid = client.status();
  const report::JsonObject& obj = mid.object();
  EXPECT_EQ(find(obj, "state")->str(), "running");
  EXPECT_EQ(find(obj, "running")->str(), "fake_gate");
  // bench_index is the running bench's 0-based run-order position — i.e. how
  // many benchmarks have completed.  fake_gate is second in the submitted
  // list, so one bench (fake_lat) is done.
  EXPECT_EQ(static_cast<int>(find(obj, "bench_index")->number()), 1);
  EXPECT_EQ(static_cast<int>(find(obj, "bench_total")->number()), 2);

  gate_open = true;
  submitter.join();
  JsonValue after = client.status();
  EXPECT_EQ(find(after.object(), "state")->str(), "idle");
  EXPECT_EQ(static_cast<int>(find(after.object(), "bench_total")->number()), 0);
  daemon.stop();
}

TEST_F(DaemonTest, WatchStreamsIntervalFramesFromARunningJob) {
  Daemon daemon(config());
  daemon.start();

  std::atomic<bool> watching{false};
  std::atomic<int> got{0};
  std::vector<std::string> sources;
  std::mutex sources_mu;
  std::thread watcher([&] {
    Client wclient(daemon.socket_path());
    got = wclient.watch(
        [&](const JsonValue& frame) {
          const JsonValue* event = find(frame.object(), "event");
          if (event == nullptr) {
            return;
          }
          if (event->str() == "watching") {
            watching = true;
          } else if (event->str() == "interval_stats") {
            std::lock_guard<std::mutex> lock(sources_mu);
            sources.push_back(find(frame.object(), "source")->str());
          }
        },
        /*max_frames=*/3);
  });
  // The watcher must be registered before the job publishes frames.
  for (int i = 0; i < 1000 && !watching; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(watching.load()) << "watch ack never arrived";

  // A watcher shows up in status.
  Client client(daemon.socket_path());
  JsonValue status = client.status();
  EXPECT_GE(static_cast<int>(find(status.object(), "watchers")->number()), 1);

  client.submit({{"only", "fake_stream"}, {"no-cal-cache", "true"}});
  watcher.join();

  EXPECT_GE(got.load(), 3) << "acceptance: >= 3 interval_stats frames during the job";
  std::lock_guard<std::mutex> lock(sources_mu);
  ASSERT_GE(sources.size(), 3u);
  for (const std::string& s : sources) {
    EXPECT_EQ(s, "fake_stream/loopback");
  }
  daemon.stop();
}

TEST_F(DaemonTest, UnknownBenchmarkSubmissionFailsWithUsageExitCode) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  JsonValue done = client.submit({{"only", "lat_typo"}});
  const report::JsonObject& obj = done.object();
  EXPECT_EQ(static_cast<int>(find(obj, "exit_code")->number()), 2);
  EXPECT_NE(find(obj, "error")->str().find("no such benchmark"), std::string::npos);
  daemon.stop();
}

TEST_F(DaemonTest, RemovedFlagSubmissionsFailWithUsageExitCode) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  for (auto [flag, replacement] : {std::pair{"out", "--json=PATH"},
                                   std::pair{"trace-chrome", "--trace=PATH"},
                                   std::pair{"nanoscale", "EXPERIMENTS.md"},
                                   std::pair{"heatmap", "--interval-ms"},
                                   std::pair{"heatmap-json", "heatmap_loopback"},
                                   std::pair{"threads", "--bw-threads"},
                                   std::pair{"op", "rdwr and bzero"},
                                   std::pair{"compare-kernels", "lmbench_compare"}}) {
    JsonValue done = client.submit({{"only", "fake_lat"}, {flag, "r.out"}});
    const report::JsonObject& obj = done.object();
    EXPECT_EQ(static_cast<int>(find(obj, "exit_code")->number()), 2) << flag;
    const JsonValue* error = find(obj, "error");
    ASSERT_NE(error, nullptr) << flag;
    EXPECT_NE(error->str().find(replacement), std::string::npos) << flag;
  }
  daemon.stop();
}

TEST_F(DaemonTest, ShutdownOpStopsTheDaemon) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  EXPECT_TRUE(daemon.running());
  client.shutdown();
  daemon.wait();  // returns because the shutdown op set the flag
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST_F(DaemonTest, UnknownOpAnswersInBandError) {
  Daemon daemon(config());
  daemon.start();
  sys::UnixStream stream = sys::UnixStream::connect(daemon.socket_path(), 2000);
  write_frame(stream.fd(), "{\"op\":\"dance\"}");
  std::optional<std::string> payload = read_frame(stream.fd());
  ASSERT_TRUE(payload.has_value());
  JsonValue response = parse_message(*payload);
  EXPECT_FALSE(find(response.object(), "ok")->boolean());
  daemon.stop();
}

TEST(DaemonClientTest, ConnectFailureIsSysErrorNotHang) {
  sys::TempDir tmp;
  Client client(tmp.path() + "/nobody.sock", /*connect_timeout_ms=*/300);
  EXPECT_THROW(client.status(), sys::SysError);
}

TEST(DaemonClientTest, DaemonKilledMidFrameTimesOutInsteadOfHanging) {
  // The bug this PR fixes: a daemon that dies after writing part of a reply
  // frame — here simulated by a "daemon" that sends 2 of the 4 length-prefix
  // bytes and then goes silent with the socket open — used to hang the
  // client in read_full forever.  The bounded read turns it into a clean
  // SysError(ETIMEDOUT), which lmbench_client maps to exit code 5.
  sys::TempDir tmp;
  const std::string path = tmp.path() + "/stall.sock";
  sys::UnixListener listener(path);
  std::thread fake_daemon([&listener] {
    std::optional<sys::UnixStream> conn = listener.accept_for(5000);
    if (!conn.has_value()) {
      return;
    }
    // Consume the client's request so the failure is in our reply, then
    // write a torn frame and stall (keep the connection open).
    std::optional<std::string> req = read_frame(conn->fd());
    ASSERT_TRUE(req.has_value());
    const unsigned char torn[] = {0, 0};
    ASSERT_EQ(::write(conn->fd(), torn, sizeof(torn)), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });

  Client client(path, /*connect_timeout_ms=*/2000, /*stall_timeout_ms=*/100);
  try {
    client.status();
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
  fake_daemon.join();
}

}  // namespace
}  // namespace lmb::svc
