// lmbench_client: command-line client for the lmbenchd daemon.
//
//   ./build/examples/lmbench_client <op> [client flags] [suite flags...]
//
// Ops:
//   submit    run a suite through the daemon; every flag that run_suite
//             accepts is forwarded verbatim (e.g. `submit --quick
//             --only=lat_syscall`).  Progress streams live; the run's
//             results land in the daemon's trend store.
//   status    one-line daemon state (queue depth, running benchmark and
//             its bench_index/bench_total suite progress)
//   results   print the newest completed run's results JSON
//   trend     print the daemon's trend table (accepts --bench=, --metric=)
//   watch     tail the daemon's live telemetry: one line per interval_stats
//             frame (window latency p50/p99/p999, rps, shard counters)
//             pushed while a load benchmark with --interval-ms runs.
//             `--watch` as a flag does the same.  Runs until the daemon
//             closes the stream, or --frames=N interval frames arrived.
//   shutdown  stop the daemon (the current job finishes first)
//
// Client flags (stripped before forwarding):
//   --socket=PATH          daemon socket (default lmbenchd.sock)
//   --connect-timeout=MS   connect deadline in milliseconds (default 2000)
//   --io-timeout=MS        mid-frame read stall deadline (default 10000;
//                          -1 waits forever).  Waiting for the *next* frame
//                          is always unbounded — runs are long — but a
//                          frame that stops arriving halfway means the
//                          daemon died mid-reply.
//   --json=PATH            submit: write the returned results document here
//   --quiet                submit: suppress per-benchmark progress lines
//   --frames=N             watch: exit 0 after N interval_stats frames
//                          (exit 1 if the stream ends first); 0 = tail
//                          until the daemon goes away
//
// Exit codes: the suite's own exit code after `submit` (0 ok, 1 failures,
// 2 usage, 3 gate), 2 on usage/protocol errors, 5 when the daemon cannot
// be reached or stops responding (connection refused, missing socket,
// connect timeout, mid-frame stall).
#include <cerrno>
#include <cstdio>
#include <limits>
#include <string>

#include "src/core/options.h"
#include "src/report/json.h"
#include "src/svc/client.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace {

using lmb::report::JsonObject;
using lmb::report::JsonValue;
using lmb::report::find;

const JsonValue* expect_ok(const JsonValue& response) {
  const JsonObject& obj = response.object();
  const JsonValue* error = find(obj, "error");
  if (error != nullptr) {
    std::fprintf(stderr, "lmbench_client: daemon error: %s\n", error->str().c_str());
    return nullptr;
  }
  return &response;
}

int do_submit(lmb::svc::Client& client, const lmb::Options& opts) {
  // Forward every flag except the client's own to the daemon.
  std::map<std::string, std::string> args;
  for (const auto& [key, value] : opts.entries()) {
    if (key == "socket" || key == "connect-timeout" || key == "io-timeout" || key == "json" ||
        key == "quiet") {
      continue;
    }
    args[key] = value;
  }
  const bool quiet = opts.get_bool("quiet");

  JsonValue done = client.submit(args, [&](const JsonValue& frame) {
    const JsonObject& obj = frame.object();
    const JsonValue* event = find(obj, "event");
    if (event == nullptr) {
      return;
    }
    const std::string& kind = event->str();
    if (kind == "queued") {
      const JsonValue* position = find(obj, "position");
      if (position != nullptr && position->number() > 0) {
        std::printf("queued behind %d job(s)\n", static_cast<int>(position->number()));
        std::fflush(stdout);
      }
    } else if (kind == "suite_start") {
      const JsonValue* system = find(obj, "system");
      const JsonValue* total = find(obj, "total");
      std::printf("running %d benchmark(s) on %s\n",
                  total != nullptr ? static_cast<int>(total->number()) : 0,
                  system != nullptr ? system->str().c_str() : "?");
      std::fflush(stdout);
    } else if (kind == "bench_finish" && !quiet) {
      const JsonValue* name = find(obj, "name");
      const JsonValue* summary = find(obj, "summary");
      std::printf("%-16s %s\n", name != nullptr ? name->str().c_str() : "?",
                  summary != nullptr ? summary->str().c_str() : "");
      std::fflush(stdout);
    }
  });

  const JsonObject& obj = done.object();
  if (const JsonValue* error = find(obj, "error")) {
    std::fprintf(stderr, "lmbench_client: daemon error: %s\n", error->str().c_str());
    const JsonValue* code = find(obj, "exit_code");
    return code != nullptr ? static_cast<int>(code->number()) : 2;
  }
  const JsonValue* metrics = find(obj, "metrics");
  const JsonValue* failed = find(obj, "failed");
  const JsonValue* wall = find(obj, "wall_ms");
  std::printf("done: %d metrics, %d failures in %.1f s\n",
              metrics != nullptr ? static_cast<int>(metrics->number()) : 0,
              failed != nullptr ? static_cast<int>(failed->number()) : 0,
              (wall != nullptr ? wall->number() : 0.0) / 1e3);

  std::string json_path = opts.get_string("json", "");
  if (!json_path.empty()) {
    const JsonValue* results = find(obj, "results");
    if (results != nullptr && !results->is_null()) {
      lmb::sys::write_file(json_path, lmb::report::to_text(*results) + "\n");
      std::printf("wrote results to %s\n", json_path.c_str());
    }
  }
  const JsonValue* code = find(obj, "exit_code");
  return code != nullptr ? static_cast<int>(code->number()) : 0;
}

double num_or(const JsonObject& obj, const char* key, double fallback) {
  const JsonValue* v = find(obj, key);
  return v != nullptr ? v->number() : fallback;
}

int do_watch(lmb::svc::Client& client, const lmb::Options& opts) {
  const int frames = opts.get_int_in("frames", 0, std::numeric_limits<int>::min(),
                                     std::numeric_limits<int>::max());
  const int got = client.watch(
      [](const JsonValue& frame) {
        const JsonObject& obj = frame.object();
        const JsonValue* event = find(obj, "event");
        if (event == nullptr) {
          return;
        }
        const std::string& kind = event->str();
        if (kind == "watching") {
          std::printf("watching lmbenchd (interval frames stream while a load "
                      "benchmark with --interval-ms runs)\n");
          std::printf("%-22s %-3s %-4s %10s %10s %9s %9s %9s\n", "source", "sh", "win", "req",
                      "rps", "p50(us)", "p99(us)", "p999(us)");
        } else if (kind == "interval_stats") {
          const JsonValue* source = find(obj, "source");
          std::printf("%-22s %-3d %-4d %10.0f %10.0f %9.1f %9.1f %9.1f\n",
                      source != nullptr ? source->str().c_str() : "?",
                      static_cast<int>(num_or(obj, "shard", 0)),
                      static_cast<int>(num_or(obj, "window", 0)), num_or(obj, "requests", 0),
                      num_or(obj, "rps", 0), num_or(obj, "p50_us", 0), num_or(obj, "p99_us", 0),
                      num_or(obj, "p999_us", 0));
        } else if (kind == "bench_start") {
          // index is the 0-based run-order position; show it 1-based.
          const JsonValue* name = find(obj, "name");
          std::printf("-- bench %s (%d/%d)\n", name != nullptr ? name->str().c_str() : "?",
                      static_cast<int>(num_or(obj, "index", 0)) + 1,
                      static_cast<int>(num_or(obj, "total", 0)));
        } else if (kind == "job_done") {
          std::printf("-- job %d done\n", static_cast<int>(num_or(obj, "job", 0)));
        }
        std::fflush(stdout);
      },
      frames);
  if (frames > 0 && got < frames) {
    std::fprintf(stderr, "lmbench_client: stream ended after %d/%d interval frame(s)\n", got,
                 frames);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  lmb::Options opts = lmb::Options::parse(argc, argv);
  // `--watch` as a bare flag is an alias for the watch op.
  std::string op = opts.get_bool("watch", false) ? "watch" : "";
  if (!opts.positionals().empty()) {
    op = opts.positionals().front();
  }
  if (op.empty()) {
    std::fprintf(stderr,
                 "usage: lmbench_client <submit|status|results|trend|watch|shutdown> "
                 "[--socket=PATH] [--connect-timeout=MS] [suite flags...]\n");
    return 2;
  }
  constexpr int kIntMin = std::numeric_limits<int>::min();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  lmb::svc::Client client(opts.get_string("socket", "lmbenchd.sock"),
                          opts.get_int_in("connect-timeout", 2000, kIntMin, kIntMax),
                          opts.get_int_in("io-timeout", 10'000, kIntMin, kIntMax));

  try {
    if (op == "submit") {
      return do_submit(client, opts);
    }
    if (op == "status") {
      JsonValue response = client.status();
      if (expect_ok(response) == nullptr) {
        return 2;
      }
      const JsonObject& obj = response.object();
      std::string progress;
      const int bench_total = static_cast<int>(num_or(obj, "bench_total", 0));
      if (bench_total > 0) {
        // bench_index is 0-based (== benchmarks completed); show 1-based.
        progress = " bench=" +
                   std::to_string(static_cast<int>(num_or(obj, "bench_index", 0)) + 1) + "/" +
                   std::to_string(bench_total);
      }
      std::printf("state=%s running=%s%s queued=%d completed=%d watchers=%d socket=%s\n",
                  find(obj, "state")->str().c_str(), find(obj, "running")->str().c_str(),
                  progress.c_str(), static_cast<int>(find(obj, "queued")->number()),
                  static_cast<int>(find(obj, "completed")->number()),
                  static_cast<int>(num_or(obj, "watchers", 0)),
                  find(obj, "socket")->str().c_str());
      return 0;
    }
    if (op == "watch") {
      return do_watch(client, opts);
    }
    if (op == "results") {
      JsonValue response = client.results();
      if (expect_ok(response) == nullptr) {
        return 2;
      }
      const JsonValue* results = find(response.object(), "results");
      if (results == nullptr || results->is_null()) {
        std::fprintf(stderr, "lmbench_client: no completed runs yet\n");
        return 1;
      }
      std::printf("%s\n", lmb::report::to_text(*results).c_str());
      return 0;
    }
    if (op == "trend") {
      JsonValue response = client.trend(opts.get_string("host", ""),
                                        opts.get_string("bench", ""),
                                        opts.get_string("metric", ""));
      if (expect_ok(response) == nullptr) {
        return 2;
      }
      const JsonObject& obj = response.object();
      std::printf("%s", find(obj, "table")->str().c_str());
      std::string json_path = opts.get_string("json", "");
      if (!json_path.empty()) {
        lmb::sys::write_file(json_path, lmb::report::to_text(*find(obj, "trend")) + "\n");
        std::printf("wrote trend to %s\n", json_path.c_str());
      }
      return 0;
    }
    if (op == "shutdown") {
      JsonValue response = client.shutdown();
      if (expect_ok(response) == nullptr) {
        return 2;
      }
      std::printf("lmbenchd is shutting down\n");
      return 0;
    }
  } catch (const lmb::sys::SysError& e) {
    if (e.error_code() == ETIMEDOUT) {
      std::fprintf(stderr,
                   "lmbench_client: lost contact with lmbenchd at %s: %s "
                   "(daemon stalled or died mid-reply; see --io-timeout)\n",
                   client.socket_path().c_str(), e.what());
    } else {
      std::fprintf(stderr, "lmbench_client: cannot reach lmbenchd at %s: %s\n",
                   client.socket_path().c_str(), e.what());
    }
    return 5;
  }

  std::fprintf(stderr, "lmbench_client: unknown op '%s'\n", op.c_str());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "lmbench_client: %s\n", e.what());
  return 2;
}
