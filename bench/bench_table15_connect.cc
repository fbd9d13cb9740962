// Table 15: TCP connect latency (microseconds) — fastest of 20 connects.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/lat/lat_ipc.h"
#include "src/netsim/remote.h"

int main(int argc, char** argv) {
  using namespace lmb;
  Options opts = benchx::parse_options(argc, argv);

  lat::ConnectConfig cfg;
  cfg.connects = opts.get_int_in("n", 20, 1, lat::ConnectConfig::kMaxConnects);

  benchx::print_header("Table 15", "TCP connect latency (microseconds)");
  benchx::print_config_line("repeated connect()+close() to a loopback listener; fastest of " +
                            std::to_string(cfg.connects) + " reported (paper methodology)");

  double connect_us = lat::measure_tcp_connect(cfg).us_per_op();

  report::Table table("Table 15. TCP connect latency (microseconds)",
                      {{"System", 0}, {"TCP connection", 0}});
  for (const auto& row : db::paper_table15()) {
    table.add_row({row.system, row.connect_us});
  }
  table.add_row({benchx::this_system(), connect_us});
  table.mark_last_row("measured on this machine");
  table.sort_by(1, report::SortOrder::kAscending);
  std::printf("%s\n", table.render().c_str());

  // The paper's UDP-vs-TCP exchange comparison over 10Mbit ethernet.
  netsim::HostCosts hosts = netsim::HostCosts::from_loopback(2 * connect_us, connect_us, 0.0);
  double remote_connect =
      netsim::model_remote_connect_us(netsim::LinkProfile::ethernet_10baseT(), hosts);
  std::printf("modeled remote connect over 10baseT: %.0f us (paper: connection cost is a\n"
              "substantial fraction of a short-lived TCP exchange)\n",
              remote_connect);
  return 0;
}
