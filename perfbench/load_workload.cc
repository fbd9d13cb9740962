// The load workloads: LoadServer + run_load over loopback, one process,
// 4 connections, one server shard and one inline generator shard.
//   echo_closed  64 B echo, closed loop
//   rpc_open     64 B requests, 4 KiB replies, 1000 server work iterations,
//                open-loop Poisson arrivals at 30,000 req/s, 100 ms windows
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "perfbench/checks.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/core/topology.h"
#include "src/lat/load_gen.h"
#include "src/lat/load_server.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace {

constexpr int kPassesPerCycle = 4;  // one cold, three warm
constexpr int kConnections = 4;
constexpr double kOfferedRate = 30000.0;
constexpr double kGeneratorBoundBusy = 0.95;

struct LoadSpec {
  lmb::lat::LoadServerConfig server;
  lmb::lat::LoadGenConfig gen;
  LoadExpect expect;
  bool open = false;
};

LoadSpec spec_for(const std::string& workload) {
  LoadSpec s;
  s.server.shards = 1;
  s.server.epoll_mode = lmb::lat::EpollMode::kEdge;
  s.gen.connections = kConnections;
  s.gen.request_bytes = 64;
  s.gen.shards = 1;
  s.gen.warmup = 0;  // a pass is a fixed request count; every request is measured
  s.gen.duration = 60 * lmb::kSecond;  // safety cap, never reached
  if (workload == "echo_closed") {
    s.server.protocol = lmb::lat::ServerProtocol::kEcho;
    s.gen.protocol = lmb::lat::ClientProtocol::kEcho;
    s.gen.arrival = lmb::lat::ArrivalMode::kClosedLoop;
    s.gen.max_requests = 60000;
    s.expect.echo = true;
  } else if (workload == "rpc_open") {
    s.server.protocol = lmb::lat::ServerProtocol::kRpc;
    s.server.reply_bytes = 4096;
    s.server.work_iters = 1000;
    s.gen.protocol = lmb::lat::ClientProtocol::kRpc;
    s.gen.reply_bytes = 4096;
    s.gen.arrival = lmb::lat::ArrivalMode::kOpenPoisson;
    s.gen.rate_per_sec = kOfferedRate;
    s.gen.interval = 100 * lmb::kMillisecond;
    s.gen.max_requests = 30000;
    s.expect.intervals = true;
    s.open = true;
  } else {
    throw std::invalid_argument("no load workload named " + workload);
  }
  s.expect.connections = kConnections;
  s.expect.requests = s.gen.max_requests;
  return s;
}

struct LoadPass {
  bool cold = false;
  bool traced = false;
  double pass_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  std::uint64_t requests = 0;
  double elapsed_s = 0;  // run_load's measured window
  // Traced passes only.
  lmb::lat::LoadServerStats server;  // delta over the pass
  Usage gen;                         // the calling thread, which runs the generator
  Usage self;
  double window_rps_cv = 0;
  double max_window_p99_us = 0;
};

LoadPass run_pass(lmb::lat::LoadServer& server, const LoadSpec& spec, std::uint64_t seed,
                  bool cold, bool traced, SpanRecorder* rec, std::uint64_t server_span,
                  std::uint64_t pass_id, Outcome& out) {
  lmb::lat::LoadGenConfig gen = spec.gen;
  gen.port = server.port();
  gen.seed = seed;
  SpanRecorder* r = traced ? rec : nullptr;

  LoadPass pass;
  pass.cold = cold;
  pass.traced = traced;
  lmb::lat::LoadServerStats s0;
  Usage g0, p0;
  if (traced) {
    s0 = server.stats();
    g0 = usage_now(RUSAGE_THREAD);
    p0 = usage_now(RUSAGE_SELF);
  }
  lmb::lat::LoadResult res;
  const auto t0 = std::chrono::steady_clock::now();
  {
    ScopedSpan span(r, "lat.load_gen", cold ? "run_load.cold" : "run_load.warm", server_span,
                    pass_id);
    res = lmb::lat::run_load(gen);
  }
  pass.pass_s = seconds_since(t0);
  if (traced) {
    pass.gen = usage_now(RUSAGE_THREAD) - g0;
    pass.self = usage_now(RUSAGE_SELF) - p0;
    const lmb::lat::LoadServerStats s1 = server.stats();
    pass.server.wakeups = s1.wakeups - s0.wakeups;
    pass.server.loop_cpu_ns = s1.loop_cpu_ns - s0.loop_cpu_ns;
    pass.window_rps_cv = window_rps_cv(res.intervals);
    pass.max_window_p99_us = max_window_p99_us(res.intervals);
  }

  for (std::string& f : check_load_result(res, spec.expect)) {
    out.check_failures.push_back(std::move(f));
  }
  out.attempted += static_cast<std::uint64_t>(gen.connections);
  out.failed += res.errors;
  pass.p50_us = res.rtt_hist.percentile(50) / 1000.0;
  pass.p95_us = res.rtt_hist.percentile(95) / 1000.0;
  pass.p99_us = res.rtt_hist.percentile(99) / 1000.0;
  pass.requests = res.requests;
  pass.elapsed_s = static_cast<double>(res.elapsed) / 1e9;
  return pass;
}

// Achieved over offered rate across `passes`.
double rate_ratio(const std::vector<LoadPass>& passes) {
  double requests = 0, elapsed = 0;
  for (const LoadPass& p : passes) {
    requests += static_cast<double>(p.requests);
    elapsed += p.elapsed_s;
  }
  return requests / elapsed / kOfferedRate;
}

void add_layers(Outcome& out, const std::vector<LoadPass>& passes) {
  double reqs = 0, wall_ns = 0, server_cpu = 0, wakeups = 0, gen_cpu = 0, gen_sys = 0;
  double self_cpu = 0, self_ctx = 0, bound = 0, n = 0;
  std::vector<LoadPass> warm;
  for (const LoadPass& p : passes) {
    if (!p.traced || p.cold) {
      continue;
    }
    warm.push_back(p);
    n += 1;
    reqs += static_cast<double>(p.requests);
    wall_ns += p.pass_s * 1e9;
    server_cpu += static_cast<double>(p.server.loop_cpu_ns);
    wakeups += static_cast<double>(p.server.wakeups);
    gen_cpu += static_cast<double>(p.gen.cpu_ns());
    gen_sys += static_cast<double>(p.gen.sys_ns);
    self_cpu += static_cast<double>(p.self.cpu_ns());
    self_ctx += static_cast<double>(p.self.ctx_switches);
    if (static_cast<double>(p.gen.cpu_ns()) >= kGeneratorBoundBusy * p.pass_s * 1e9) {
      bound += 1;
    }
  }
  auto all = [](const LoadPass&) { return true; };
  out.metrics["lat.load_server.cpu_us_per_req"] = server_cpu / 1e3 / reqs;
  out.metrics["lat.load_server.wakeups_per_req"] = wakeups / reqs;
  out.metrics["lat.load_server.busy_frac"] = server_cpu / wall_ns;
  out.metrics["lat.load_gen.cpu_us_per_req"] = gen_cpu / 1e3 / reqs;
  out.metrics["lat.load_gen.sys_frac"] = gen_sys / gen_cpu;
  out.metrics["lat.load_gen.busy_frac"] = gen_cpu / wall_ns;
  out.metrics["lat.load_gen.bound_frac"] = bound / n;
  out.metrics["lat.load_gen.rate_ratio"] = rate_ratio(warm);
  out.metrics["lat.load_gen.p99_us"] = median_of(warm, all, [](const LoadPass& p) {
    return p.p99_us;
  });
  out.metrics["lat.load_gen.window_rps_cv"] =
      median_of(warm, all, [](const LoadPass& p) { return p.window_rps_cv; });
  out.metrics["lat.load_gen.max_window_p99_us"] =
      median_of(warm, all, [](const LoadPass& p) { return p.max_window_p99_us; });
  out.metrics["proc.cpu_us_per_req"] = self_cpu / 1e3 / reqs;
  out.metrics["proc.ctx_switches_per_req"] = self_ctx / reqs;
  if (bound > 0) {
    out.notes.push_back("generator-bound: " + std::to_string(static_cast<int>(bound)) + " of " +
                        std::to_string(static_cast<int>(n)) +
                        " traced warm passes had generator busy_frac >= 0.95; they measure "
                        "the generator, not the server");
  }
}

}  // namespace

void setup_load(const RunConfig& cfg) {
  std::filesystem::create_directories(cfg.work_dir);
  lmb::lat::LoadServer server(spec_for(cfg.workload).server);
  server.stop();
}

Outcome run_load_workload(const RunConfig& cfg, SpanRecorder* rec) {
  const LoadSpec spec = spec_for(cfg.workload);
  // The server pins its shard to the first CPU of the pin order; the
  // generator runs on this thread, pinned to the second, so every run places
  // the two busy threads alike.
  const lmb::CpuTopology topology = lmb::query_topology();
  const std::vector<int> pin_order = topology.pin_order();
  if (pin_order.size() > 1) {
    lmb::pin_current_thread(pin_order[1]);
  }
  Outcome out;
  std::vector<LoadPass> passes;
  std::uint64_t pass_id = 0;
  // With tracing on, the server's constructing scope carries a sink so it
  // reports its per-shard counters at stop; they are folded into the trace.
  lmb::obs::TraceSink server_sink;
  const std::int64_t sink_offset = cfg.trace ? rec->now() - server_sink.timestamp() : 0;
  const auto start = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle_fits(start, cycle, cfg.seconds); ++cycle) {
    ScopedSpan server_span(cfg.trace ? rec : nullptr, "lat.load_server", "LoadServer", 0, 0);
    std::optional<lmb::obs::ObsScope> scope;
    if (cfg.trace) {
      scope.emplace(&server_sink, false, "perfbench/" + cfg.workload);
    }
    lmb::lat::LoadServer server(spec.server);
    scope.reset();
    for (int p = 0; p < kPassesPerCycle; ++p) {
      ++pass_id;
      passes.push_back(run_pass(server, spec, cfg.seed * 1000003 + pass_id, p == 0,
                                pass_traced(cfg.trace, cycle, p), rec, server_span.id(), pass_id,
                                out));
    }
    server.stop();
  }
  lmb::unpin_current_thread(topology);
  if (cfg.trace) {
    fold_into_spans(*rec, server_sink.events(), {}, 0, 0, sink_offset);
  }

  auto is_cold = [](const LoadPass& p) { return p.cold; };
  auto is_warm = [](const LoadPass& p) { return !p.cold; };
  auto pass_s = [](const LoadPass& p) { return p.pass_s; };
  if (spec.open) {
    for (std::string& f : check_rate_ratio(rate_ratio(passes))) {
      out.check_failures.push_back(std::move(f));
    }
  }
  if (!cfg.trace) {
    out.metrics["cold_pass_s"] = median_of(passes, is_cold, pass_s);
    out.metrics["warm_pass_s"] = median_of(passes, is_warm, pass_s);
    out.metrics["p50_us"] = median_of(passes, is_warm, [](const LoadPass& p) {
      return p.p50_us;
    });
    out.metrics["p95_us"] = median_of(passes, is_warm, [](const LoadPass& p) {
      return p.p95_us;
    });
  } else {
    add_layers(out, passes);
    add_trace_overhead(out, passes);
  }

  std::vector<LoadPass> warm;
  std::string pass_list;
  for (const LoadPass& p : passes) {
    if (!p.cold) {
      warm.push_back(p);
    }
    pass_list += " " + std::to_string(p.pass_s) + "/" + std::to_string(p.p50_us);
  }
  auto all = [](const LoadPass&) { return true; };
  const double rps = median_of(
      warm, all, [](const LoadPass& p) { return static_cast<double>(p.requests) / p.elapsed_s; });
  const double p95 = median_of(warm, all, [](const LoadPass& p) { return p.p95_us; });
  const double p99 = median_of(warm, all, [](const LoadPass& p) { return p.p99_us; });
  out.notes.push_back(cfg.workload + ": passes (s/p50 us; the first of every " +
                      std::to_string(kPassesPerCycle) + " is cold):" + pass_list);
  out.notes.push_back(cfg.workload + ": " + std::to_string(passes.size()) +
                      " passes; warm median rps " + std::to_string(rps) + ", p95 " +
                      std::to_string(p95) + " us, p99 " + std::to_string(p99) + " us" +
                      (spec.open ? ", rate_ratio " + std::to_string(rate_ratio(warm)) : ""));
  return out;
}

}  // namespace perfbench
