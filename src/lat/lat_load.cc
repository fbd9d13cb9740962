// The c10k load scenarios: lat_tcp_n, lat_rpc_n, bw_tcp_n.
//
// Each benchmark runs its scenario over live loopback sockets (LoadServer +
// run_load, both in this process) and over a simulated link
// (netsim::simulate_concurrent_load / simulate_concurrent_streams), and
// reports throughput plus p50/p95/p99/p999 per scenario.  Metric keys are
// scenario-prefixed — loopback_p99_us, sim_p999_us, loopback_rps — so the
// standard results pipeline (JSON, compare, trend) carries the tails with
// zero new plumbing.
//
// Loopback runs scale across cores: --shards=1,2,4 runs the scenario once
// per shard count (server event-loop shards over SO_REUSEPORT, generator
// worker threads to match) and emits per-count variants —
// loopback_s<N>_rps / loopback_s<N>_mbs, loopback_s<N>_p99_us and
// loopback_s<N>_wakeups_per_req — alongside the standard keys, which come
// from the *first* count in the list.  --epoll=et switches every server
// shard to edge-triggered epoll so its wakeup cost can be compared with the
// level-triggered default through the same pipeline.
//
// Flags (all benchmarks):
//   --connections=N   concurrent connections / flows   (64; quick: 16)
//   --duration=MS     measured window                  (1000; quick: 300)
//   --shards=LIST     server/generator event-loop shard counts (1)
//   --epoll=MODE      server readiness discipline: lt | et  (lt)
//   --net=MODE        both | loopback | sim            (both)
//   --msg=BYTES       request payload (size suffixes ok; bw default 64k)
//   --link=NAME       sim link: eth10 | eth100 | fddi | hippi  (eth100)
//   --loss=RATE       sim packet-loss probability      (0.01)
//   --interval-ms=MS  rotate a fresh latency histogram every MS of the
//                     measured loopback window; emits a time × latency
//                     heatmap (metadata key heatmap_loopback, schema
//                     lmbenchpp.heatmap.v1) and live interval frames (0 = off)
// lat_tcp_n / lat_rpc_n only:
//   --rate=RPS        open-loop arrival rate; 0 = closed loop (0)
//   --arrival=KIND    poisson | uniform (open loop only; poisson)
//   --think=US        closed-loop think time per connection (0)
// lat_rpc_n only:
//   --work=ITERS      server-side CPU iterations per request (1000)
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/core/registry.h"
#include "src/core/stats.h"
#include "src/lat/load_gen.h"
#include "src/lat/load_server.h"
#include "src/netsim/link.h"
#include "src/netsim/multiflow.h"
#include "src/obs/histogram.h"
#include "src/report/heatmap.h"
#include "src/report/table.h"

namespace lmb::lat {

namespace {

struct LoadFlags {
  int connections = 64;
  Nanos duration = kSecond;
  Nanos think = 0;
  double rate = 0.0;
  ArrivalMode arrival = ArrivalMode::kClosedLoop;
  std::uint32_t msg = 64;
  std::uint64_t work = 1000;
  bool run_loopback = true;
  bool run_sim = true;
  netsim::LinkProfile link = netsim::LinkProfile::ethernet_100baseT();
  double loss = 0.01;
  std::uint32_t sim_reqs = 50;  // per-flow exchanges in the simulated run
  std::vector<int> shard_counts = {1};
  EpollMode epoll_mode = EpollMode::kLevel;
  Nanos interval = 0;  // interval-series window; 0 = off
};

netsim::LinkProfile link_from_name(const std::string& name) {
  if (name == "eth10") {
    return netsim::LinkProfile::ethernet_10baseT();
  }
  if (name == "eth100") {
    return netsim::LinkProfile::ethernet_100baseT();
  }
  if (name == "fddi") {
    return netsim::LinkProfile::fddi();
  }
  if (name == "hippi") {
    return netsim::LinkProfile::hippi();
  }
  throw std::invalid_argument("unknown --link '" + name + "' (eth10|eth100|fddi|hippi)");
}

LoadFlags flags_from(const Options& opts, std::uint32_t default_msg) {
  LoadFlags f;
  if (opts.quick()) {
    f.connections = 16;
    f.duration = 300 * kMillisecond;
    f.sim_reqs = 20;
  }
  f.msg = default_msg;
  f.connections =
      opts.get_int_in("connections", f.connections, 1, std::numeric_limits<int>::max());
  f.duration = opts.get_int("duration", f.duration / kMillisecond) * kMillisecond;
  f.think = opts.get_int("think", 0) * kMicrosecond;
  f.rate = opts.get_double("rate", 0.0);
  f.msg = static_cast<std::uint32_t>(opts.get_size("msg", f.msg));
  f.work = static_cast<std::uint64_t>(opts.get_int("work", static_cast<std::int64_t>(f.work)));
  if (f.rate > 0) {
    const std::string arrival = opts.get_string("arrival", "poisson");
    if (arrival == "poisson") {
      f.arrival = ArrivalMode::kOpenPoisson;
    } else if (arrival == "uniform") {
      f.arrival = ArrivalMode::kOpenUniform;
    } else {
      throw std::invalid_argument("unknown --arrival '" + arrival + "' (poisson|uniform)");
    }
  }
  const std::string net = opts.get_string("net", "both");
  if (net == "loopback") {
    f.run_sim = false;
  } else if (net == "sim") {
    f.run_loopback = false;
  } else if (net != "both") {
    throw std::invalid_argument("unknown --net '" + net + "' (both|loopback|sim)");
  }
  f.link = link_from_name(opts.get_string("link", "eth100"));
  f.loss = opts.get_double("loss", f.loss);
  f.sim_reqs = static_cast<std::uint32_t>(
      opts.get_int("sim-reqs", static_cast<std::int64_t>(f.sim_reqs)));
  const std::vector<std::string> shard_list = opts.get_list("shards", {"1"});
  if (!shard_list.empty()) {
    f.shard_counts.clear();
    for (const std::string& s : shard_list) {
      const int n = static_cast<int>(std::stol(s));
      if (n < 1) {
        throw std::invalid_argument("--shards entries must be positive, got '" + s + "'");
      }
      f.shard_counts.push_back(n);
    }
  }
  f.interval = opts.get_int("interval-ms", 0) * kMillisecond;
  if (f.interval < 0) {
    throw std::invalid_argument("--interval-ms must be non-negative");
  }
  const std::string epoll = opts.get_string("epoll", "lt");
  if (epoll == "lt") {
    f.epoll_mode = EpollMode::kLevel;
  } else if (epoll == "et") {
    f.epoll_mode = EpollMode::kEdge;
  } else {
    throw std::invalid_argument("unknown --epoll '" + epoll + "' (lt|et)");
  }
  return f;
}

// Warmup scaled to the run but bounded: long runs do not waste time, CI
// quick runs still shed the connection-ramp transient.
Nanos warmup_for(Nanos duration) {
  return std::clamp<Nanos>(duration / 5, 20 * kMillisecond, 200 * kMillisecond);
}

void add_percentiles(RunResult& r, const std::string& scenario, const Sample& s) {
  r.add(scenario + "_p50_us", s.percentile(50) / 1000.0, "us");
  r.add(scenario + "_p95_us", s.percentile(95) / 1000.0, "us");
  r.add(scenario + "_p99_us", s.percentile(99) / 1000.0, "us");
  r.add(scenario + "_p999_us", s.percentile(99.9) / 1000.0, "us");
}

// Loopback percentiles come from the fixed-memory histogram (≤0.4% bucket
// midpoint error); the sim keeps its raw Sample.
void add_percentiles(RunResult& r, const std::string& scenario,
                     const obs::LatencyHistogram& h) {
  r.add(scenario + "_p50_us", h.percentile(50) / 1000.0, "us");
  r.add(scenario + "_p95_us", h.percentile(95) / 1000.0, "us");
  r.add(scenario + "_p99_us", h.percentile(99) / 1000.0, "us");
  r.add(scenario + "_p999_us", h.percentile(99.9) / 1000.0, "us");
}

// One loopback run at a given shard count, plus the server-side counters a
// client-side LoadResult cannot see.
struct LoopbackRun {
  LoadResult load;
  LoadServerStats server;
  std::string shard_accepts;  // per-shard accept counts, comma-joined
  double wakeups_per_req = 0;
};

LoopbackRun run_loopback(const LoadFlags& f, int shards, ServerProtocol server_proto,
                         ClientProtocol client_proto, const std::string& bench) {
  LoadServerConfig server_cfg;
  server_cfg.protocol = server_proto;
  server_cfg.reply_bytes = f.msg;
  server_cfg.work_iters = server_proto == ServerProtocol::kRpc ? f.work : 0;
  server_cfg.shards = shards;
  server_cfg.epoll_mode = f.epoll_mode;
  LoadServer server(server_cfg);

  LoadGenConfig gen;
  gen.port = server.port();
  gen.connections = f.connections;
  gen.protocol = client_proto;
  gen.request_bytes = f.msg;
  gen.reply_bytes = f.msg;
  gen.arrival = f.arrival;
  gen.rate_per_sec = f.rate;
  gen.think_time = f.think;
  gen.duration = f.duration;
  gen.warmup = warmup_for(f.duration);
  gen.shards = shards;
  // Generator workers pin past the server shards so the two halves of the
  // harness do not time-slice one core against each other.
  gen.pin_shards = shards > 1;
  gen.pin_offset = server.shards();
  gen.interval = f.interval;
  gen.stream_label = bench + "/loopback";

  LoopbackRun out;
  out.load = run_load(gen);
  server.stop();
  out.server = server.stats();
  for (int i = 0; i < server.shards(); ++i) {
    if (i > 0) {
      out.shard_accepts += ",";
    }
    out.shard_accepts += std::to_string(server.shard_stats(i).accepted);
  }
  if (out.load.total_requests > 0) {
    out.wakeups_per_req = static_cast<double>(out.server.wakeups) /
                          static_cast<double>(out.load.total_requests);
  }
  return out;
}

// The per-shard-count metric variants (loopback_s<N>_*) plus the metadata
// the CI shard-sum assertion cross-checks.  No s<N>_p50_us key on purpose:
// the tail-table extractor treats any key group with a p50 as a scenario
// row, and shard variants belong in the scaling table instead.
void add_shard_metrics(RunResult& r, int shards, const LoopbackRun& run, bool bandwidth) {
  const std::string p = "loopback_s" + std::to_string(shards);
  if (bandwidth) {
    r.add(p + "_mbs", run.load.mb_per_sec, "MB/s");
  } else {
    r.add(p + "_rps", run.load.ops_per_sec, "ops/s");
  }
  r.add(p + "_p99_us", run.load.rtt_hist.percentile(99) / 1000.0, "us");
  // "count": unknown to direction_for_unit, so never gates a comparison —
  // wakeup efficiency is diagnostic, not a pass/fail axis.
  r.add(p + "_wakeups_per_req", run.wakeups_per_req, "count");
  r.metadata["s" + std::to_string(shards) + "_shard_accepts"] = run.shard_accepts;
  r.metadata["s" + std::to_string(shards) + "_accepted"] =
      std::to_string(run.server.accepted);
  r.metadata["s" + std::to_string(shards) + "_errors"] = std::to_string(run.load.errors);
}

// Scenario-level metadata shared by every loopback variant.
void add_engine_meta(RunResult& r, const LoadFlags& f) {
  r.metadata["epoll"] = f.epoll_mode == EpollMode::kEdge ? "et" : "lt";
  std::string counts;
  for (size_t i = 0; i < f.shard_counts.size(); ++i) {
    if (i > 0) {
      counts += ",";
    }
    counts += std::to_string(f.shard_counts[i]);
  }
  r.metadata["shards"] = counts;
}

// The simulated half of a latency scenario (lat_tcp_n / lat_rpc_n share it;
// RPC differs only in the server CPU cost).
void run_sim_load(RunResult& r, const LoadFlags& f, Nanos server_cost) {
  netsim::MultiflowConfig cfg;
  // The sim's flow-id tag field caps concurrency at 1024; clamp and record.
  cfg.flows = std::min(f.connections, 1024);
  cfg.request_bytes = f.msg;
  cfg.reply_bytes = f.msg;
  cfg.requests_per_flow = f.sim_reqs;
  cfg.server_cost = server_cost;
  cfg.loss_rate = f.loss;
  if (f.loss > 0) {
    // RTO must clear the *queueing* delay, which scales with the number of
    // flows sharing the server CPU — a fixed timer below that floods the
    // run with spurious retransmissions (every exchange times out while
    // merely queued, the classic too-short-RTO failure).
    cfg.retransmit_timeout =
        std::max<Nanos>(5 * kMillisecond, 4 * cfg.flows * server_cost);
  }
  netsim::MultiflowResult sim = netsim::simulate_concurrent_load(f.link, cfg);
  add_percentiles(r, "sim", sim.rtt_ns);
  r.add("sim_rps", sim.ops_per_sec, "ops/s");
  r.metadata["sim_link"] = f.link.name;
  r.metadata["sim_loss"] = std::to_string(f.loss);
  r.metadata["sim_flows"] = std::to_string(cfg.flows);
  r.metadata["sim_retransmits"] = std::to_string(sim.retransmits);
  r.metadata["sim_packets_lost"] = std::to_string(sim.packets_lost);
}

// Interval telemetry for the headline loopback run: the heatmap document
// (with the histogram-vs-raw-reservoir cross-check block filled in) rides in
// metadata so it survives the standard results pipeline unchanged.
void add_heatmap_meta(RunResult& r, const std::string& bench, const LoadResult& load) {
  report::Heatmap hm = report::build_heatmap(bench, "loopback", load.intervals);
  hm.p50_us = load.rtt_hist.percentile(50) / 1000.0;
  hm.p99_us = load.rtt_hist.percentile(99) / 1000.0;
  hm.p999_us = load.rtt_hist.percentile(99.9) / 1000.0;
  if (!load.rtt_reservoir.empty()) {
    hm.raw_p50_us = load.rtt_reservoir.percentile(50) / 1000.0;
    hm.raw_p99_us = load.rtt_reservoir.percentile(99) / 1000.0;
    hm.raw_p999_us = load.rtt_reservoir.percentile(99.9) / 1000.0;
    hm.raw_sampled = load.rtt_seen > load.rtt_reservoir.count();
  }
  r.metadata["heatmap_loopback"] = report::heatmap_to_json(hm);
  r.metadata["interval_windows"] = std::to_string(load.intervals.size());
}

void add_loopback_meta(RunResult& r, const LoadFlags& f, const LoadResult& load) {
  r.metadata["connections"] = std::to_string(load.connections);
  r.metadata["mode"] = f.rate > 0 ? (f.arrival == ArrivalMode::kOpenPoisson ? "open-poisson"
                                                                            : "open-uniform")
                                  : "closed";
  if (f.rate > 0) {
    r.metadata["rate_per_sec"] = std::to_string(f.rate);
  }
  r.metadata["errors"] = std::to_string(load.errors);
}

RunResult run_latency_scenarios(const Options& opts, bool rpc) {
  const LoadFlags f = flags_from(opts, /*default_msg=*/64);
  const std::string bench = rpc ? "lat_rpc_n" : "lat_tcp_n";
  RunResult r;
  double headline_p99 = 0;

  if (f.run_loopback) {
    for (size_t i = 0; i < f.shard_counts.size(); ++i) {
      const int shards = f.shard_counts[i];
      const LoopbackRun run =
          run_loopback(f, shards, rpc ? ServerProtocol::kRpc : ServerProtocol::kEcho,
                       rpc ? ClientProtocol::kRpc : ClientProtocol::kEcho, bench);
      if (i == 0) {
        add_percentiles(r, "loopback", run.load.rtt_hist);
        r.add("loopback_rps", run.load.ops_per_sec, "ops/s");
        r.add("loopback_wakeups_per_req", run.wakeups_per_req, "count");
        r.add("loopback_loop_cpu_ns",
              static_cast<double>(run.server.loop_cpu_ns), "cpu-ns");
        add_loopback_meta(r, f, run.load);
        if (f.interval > 0) {
          add_heatmap_meta(r, bench, run.load);
        }
        headline_p99 = run.load.rtt_hist.percentile(99) / 1000.0;
      }
      add_shard_metrics(r, shards, run, /*bandwidth=*/false);
    }
    add_engine_meta(r, f);
  }
  if (f.run_sim) {
    // Echo: protocol-stack cost per request.  RPC: stack plus application
    // work (the checksum spin at roughly 1ns/iteration).
    const Nanos server_cost =
        rpc ? 10 * kMicrosecond + static_cast<Nanos>(f.work) : 10 * kMicrosecond;
    run_sim_load(r, f, server_cost);
    if (headline_p99 == 0) {
      headline_p99 = r.metric("sim_p99_us").value_or(0);
    }
  }
  r.display = report::format_number(headline_p99, 1) + " us p99 @ " +
              std::to_string(f.connections) + " conns";
  return r;
}

RunResult run_bandwidth_scenarios(const Options& opts) {
  const LoadFlags f = flags_from(opts, /*default_msg=*/64u << 10);
  RunResult r;
  double headline_mbs = 0;

  if (f.run_loopback) {
    for (size_t i = 0; i < f.shard_counts.size(); ++i) {
      const int shards = f.shard_counts[i];
      const LoopbackRun run =
          run_loopback(f, shards, ServerProtocol::kSink, ClientProtocol::kStream, "bw_tcp_n");
      if (i == 0) {
        add_percentiles(r, "loopback", run.load.rtt_hist);
        r.add("loopback_mbs", run.load.mb_per_sec, "MB/s");
        r.add("loopback_wakeups_per_req", run.wakeups_per_req, "count");
        r.add("loopback_loop_cpu_ns",
              static_cast<double>(run.server.loop_cpu_ns), "cpu-ns");
        add_loopback_meta(r, f, run.load);
        if (f.interval > 0) {
          add_heatmap_meta(r, "bw_tcp_n", run.load);
        }
        r.metadata["block_bytes"] = std::to_string(f.msg);
        headline_mbs = run.load.mb_per_sec;
      }
      add_shard_metrics(r, shards, run, /*bandwidth=*/true);
    }
    add_engine_meta(r, f);
  }
  if (f.run_sim) {
    netsim::MultistreamConfig cfg;
    cfg.flows = std::min(f.connections, 1024);
    // Keep the simulated event count bounded: each flow moves a fixed
    // volume, scaled down when many flows share the wire.
    cfg.bytes_per_flow = std::max<std::uint64_t>(64u << 10, (8u << 20) / cfg.flows);
    cfg.window_bytes = 64u << 10;
    cfg.loss_rate = f.loss;
    if (f.loss > 0) {
      cfg.retransmit_timeout = 5 * kMillisecond;
    }
    netsim::MultistreamResult sim = netsim::simulate_concurrent_streams(f.link, cfg);
    add_percentiles(r, "sim", sim.segment_rtt_ns);
    r.add("sim_mbs", sim.mb_per_sec, "MB/s");
    r.metadata["sim_link"] = f.link.name;
    r.metadata["sim_loss"] = std::to_string(f.loss);
    r.metadata["sim_flows"] = std::to_string(cfg.flows);
    r.metadata["sim_retransmits"] = std::to_string(sim.retransmits);
    if (headline_mbs == 0) {
      headline_mbs = sim.mb_per_sec;
    }
  }
  r.display = report::format_number(headline_mbs, 1) + " MB/s aggregate @ " +
              std::to_string(f.connections) + " conns";
  return r;
}

const BenchmarkRegistrar lat_tcp_n_registrar{{
    .name = "lat_tcp_n",
    .category = "latency",
    .description = "TCP echo RTT distribution under N concurrent connections",
    .run = [](const Options& opts) { return run_latency_scenarios(opts, /*rpc=*/false); },
}};

const BenchmarkRegistrar lat_rpc_n_registrar{{
    .name = "lat_rpc_n",
    .category = "latency",
    .description = "RPC server latency under N concurrent clients (§6.7 at scale)",
    .run = [](const Options& opts) { return run_latency_scenarios(opts, /*rpc=*/true); },
}};

const BenchmarkRegistrar bw_tcp_n_registrar{{
    .name = "bw_tcp_n",
    .category = "bandwidth",
    .description = "aggregate TCP fan-in bandwidth from N concurrent senders",
    .run = [](const Options& opts) { return run_bandwidth_scenarios(opts); },
}};

}  // namespace

}  // namespace lmb::lat
