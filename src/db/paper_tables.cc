#include "src/db/paper_tables.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/db/paper_data.h"
#include "src/lat/mem_hierarchy.h"
#include "src/netsim/remote.h"
#include "src/report/plot.h"
#include "src/report/table.h"

namespace lmb::db {

namespace {

using report::Cell;

constexpr const char* kMeasured = "measured";

// ---------------------------------------------------------------------------
// Plan entries and sweeps.

// A byte count as a size argument: "512", "4k", "16m".
std::string size_arg(size_t bytes) {
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    return std::to_string(bytes >> 20) + "m";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes >> 10) + "k";
  }
  return std::to_string(bytes);
}

PlanEntry bare(const char* name) { return PlanEntry{name, {}}; }

PlanEntry ctx_entry(int procs, size_t footprint) {
  return PlanEntry{"lat_ctx",
                   {"--procs=" + std::to_string(procs), "--size=" + size_arg(footprint)}};
}

PlanEntry mem_entry(size_t bytes, size_t stride, bool random) {
  PlanEntry entry{"lat_mem_rd", {}};
  if (random) {
    entry.args.push_back("--random");
  }
  entry.args.push_back("--size=" + size_arg(bytes));
  entry.args.push_back("--stride=" + std::to_string(stride));
  return entry;
}

std::vector<size_t> powers_of_two(size_t from, size_t to) {
  std::vector<size_t> out;
  for (size_t v = from; v <= to; v *= 2) {
    out.push_back(v);
  }
  return out;
}

// The grids behind Figures 1 and 2 and Table 6.
struct Sweeps {
  std::vector<size_t> fig1_sizes;  // stride order, one curve per fig1_strides
  std::vector<size_t> fig1_strides = {16, 32, 64, 128, 256, 512};
  std::vector<int> fig2_procs;
  std::vector<size_t> fig2_footprints;
  std::vector<size_t> t6_sizes;  // random order at stride 64
  // Random order at the largest t6 size, for the line size.
  std::vector<size_t> t6_line_strides = {16, 32, 64, 128, 256};
};

Sweeps sweep_grids(bool quick) {
  Sweeps s;
  s.fig1_sizes = powers_of_two(512, quick ? (4u << 20) : (16u << 20));
  s.fig2_procs = quick ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4, 8, 12, 16, 20};
  s.fig2_footprints = quick ? std::vector<size_t>{0, 16u << 10}
                            : std::vector<size_t>{0, 4u << 10, 16u << 10, 32u << 10, 64u << 10};
  s.t6_sizes = powers_of_two(1024, quick ? (16u << 20) : (64u << 20));
  return s;
}

// ---------------------------------------------------------------------------
// Reading the batch.

// What every table renders from.  Over a batch, a value is a metric of the
// result recorded for its plan entry.  While planning, no value is known and
// every entry a table reads is recorded instead, so the plan is exactly what
// the tables show.
class Context {
 public:
  explicit Context(const report::ResultBatch& batch) : batch_(&batch) {
    for (const RunResult& r : batch.results) {
      auto args = r.metadata.find("args");
      // The first result recorded for an entry is the one shown.
      results_.emplace(std::make_pair(r.name, args == r.metadata.end() ? "" : args->second), &r);
    }
    // The grids are the quick plan's unless the batch holds an entry that
    // only the full plan measures.
    static const std::vector<PlanEntry> full_only = [] {
      std::vector<PlanEntry> quick = paper_plan(true);
      std::vector<PlanEntry> out;
      for (const PlanEntry& entry : paper_plan(false)) {
        if (std::find(quick.begin(), quick.end(), entry) == quick.end()) {
          out.push_back(entry);
        }
      }
      return out;
    }();
    bool full = std::any_of(full_only.begin(), full_only.end(),
                            [&](const PlanEntry& entry) { return results_.count(key(entry)) > 0; });
    sweeps_ = sweep_grids(!full);
  }

  // A planning context over the quick or full grids.
  explicit Context(bool quick) : sweeps_(sweep_grids(quick)) {}

  const std::vector<PlanEntry>& plan() const { return plan_; }
  const Sweeps& sweeps() const { return sweeps_; }
  obs::RunEnvironment environment() const {
    return batch_ != nullptr ? batch_->environment.value_or(obs::RunEnvironment{})
                             : obs::RunEnvironment{};
  }
  // Label of the measured rows.
  std::string system() const {
    return batch_ != nullptr && !batch_->system.empty() ? batch_->system : "this host";
  }

  // Metric `metric` of the result for `entry`; nullopt when that result is
  // missing or failed, or the value is absent or non-finite.
  std::optional<double> value(const PlanEntry& entry, const std::string& metric) {
    if (batch_ == nullptr) {
      if (results_.emplace(key(entry), nullptr).second) {
        plan_.push_back(entry);
      }
      return std::nullopt;
    }
    auto it = results_.find(key(entry));
    if (it == results_.end() || !it->second->ok()) {
      return std::nullopt;
    }
    std::optional<double> v = it->second->metric(metric);
    return v.has_value() && std::isfinite(*v) ? v : std::nullopt;
  }
  std::optional<double> value(const char* name, const std::string& metric) {
    return value(bare(name), metric);
  }
  Cell cell(const PlanEntry& entry, const std::string& metric) {
    std::optional<double> v = value(entry, metric);
    return v.has_value() ? Cell{*v} : Cell{};
  }
  Cell cell(const char* name, const std::string& metric) { return cell(bare(name), metric); }

 private:
  static std::pair<std::string, std::string> key(const PlanEntry& entry) {
    return {entry.name, entry.args_text()};
  }

  const report::ResultBatch* batch_ = nullptr;  // null while planning
  std::map<std::pair<std::string, std::string>, const RunResult*> results_;
  Sweeps sweeps_;
  std::vector<PlanEntry> plan_;
};

// A paper cell: kMissing is the paper's blank.
Cell paper(double v) { return v == kMissing ? Cell{} : Cell{v}; }

Cell text(const std::string& s) { return Cell{s}; }

Cell cell(std::optional<double> v) { return v.has_value() ? Cell{*v} : Cell{}; }

// A value for a note line; "--" when missing.
std::string num(std::optional<double> v, int precision) {
  return v.has_value() ? report::format_number(*v, precision) : "--";
}

// Cache sizes as the paper prints them: "32K", "8M".
Cell size_cell(double bytes) {
  if (bytes <= 0) {
    return Cell{};
  }
  long b = static_cast<long>(bytes);
  return text(bytes >= (1 << 20) ? std::to_string(b >> 20) + "M" : std::to_string(b >> 10) + "K");
}

// A table holding the paper's rows, one per embedded database row.
template <typename Row, typename Cells>
report::Table paper_rows(std::string title, std::vector<report::Column> columns,
                         const std::vector<Row>& rows, Cells cells) {
  report::Table table(std::move(title), std::move(columns));
  for (const Row& row : rows) {
    table.add_row(cells(row));
  }
  return table;
}

// Adds the row measured on this host and renders, sorted on the paper's
// sort column.
std::string with_measured(report::Table table, std::vector<Cell> row, size_t sort_column,
                          report::SortOrder order) {
  table.add_row(std::move(row));
  table.mark_last_row(kMeasured);
  table.sort_by(sort_column, order);
  return table.render();
}

// A figure: one series per data column of `grid` (column 0 labels the
// row) over the x value of each row, then the grid itself as data.  A
// cell holding text is not a point.
std::string figure(report::Plot plot, const std::vector<std::string>& labels,
                   const std::vector<double>& xs, report::Table data,
                   const std::vector<std::vector<Cell>>& grid) {
  for (size_t col = 0; col < labels.size(); ++col) {
    report::Series series;
    series.label = labels[col];
    for (size_t row = 0; row < xs.size(); ++row) {
      if (const double* v = std::get_if<double>(&grid[row][col + 1])) {
        series.points.push_back({xs[row], *v});
      }
    }
    plot.add_series(std::move(series));
  }
  for (const auto& row : grid) {
    data.add_row(row);
  }
  return plot.render() + "\n" + data.render();
}

// ---------------------------------------------------------------------------
// The tables.

std::string render_t1(Context& c) {
  report::Table table = paper_rows(
      "Table 1. System descriptions",
      {{"Name", 0}, {"Vendor & model", 0}, {"Multi/Uni", 0}, {"OS", 0}, {"CPU", 0}, {"Mhz", 0},
       {"Year", 0}, {"SPECInt92", 0}, {"List price", 0}},
      paper_table1(), [](const SystemRow& row) -> std::vector<Cell> {
        return {row.name, row.vendor, text(row.multiprocessor ? "MP" : "Uni"), row.os, row.cpu,
                static_cast<double>(row.mhz), static_cast<double>(row.year), row.specint92,
                row.list_price};
      });
  // The host's description is the batch's environment snapshot; lmbench
  // measures none of year, SPECInt92 or price.
  const obs::RunEnvironment env = c.environment();
  auto known = [](const std::string& s) { return s.empty() || s == "unknown" ? Cell{} : text(s); };
  Cell cpus = known(env.cpu_count);
  Cell mp = std::holds_alternative<std::monostate>(cpus)
                ? Cell{}
                : text(env.cpu_count == "1" ? "Uni" : "MP");
  Cell os = known(env.os.empty() ? "" : env.os + " " + env.kernel);
  table.add_row({c.system(), known(env.cpu_model), mp, os, known(env.machine), c.cell("mhz", "mhz"),
                 text("n/a"), text("n/a"), text("n/a")});
  table.mark_last_row(kMeasured);
  return table.render() + "\nhost: " + table.format_cell(cpus, 0) + " cpu(s); topology " +
         table.format_cell(known(env.topology), 0) + "\n";
}

std::string render_t2(Context& c) {
  return with_measured(
      paper_rows("Table 2. Memory bandwidth (MB/s)",
                 {{"System", 0}, {"Libc bcopy", 0}, {"Unrolled bcopy", 0}, {"Memory read", 0},
                  {"Memory write", 0}},
                 paper_table2(),
                 [](const MemBwRow& row) -> std::vector<Cell> {
                   return {row.system, paper(row.bcopy_libc), paper(row.bcopy_unrolled),
                           paper(row.mem_read), paper(row.mem_write)};
                 }),
      {c.system(), c.cell("bw_mem", "bcopy_libc_mbs"), c.cell("bw_mem", "bcopy_unrolled_mbs"),
       c.cell("bw_mem", "read_mbs"), c.cell("bw_mem", "write_mbs")},
      2, report::SortOrder::kDescending);  // the paper sorts on unrolled bcopy
}

std::string render_t3(Context& c) {
  return with_measured(paper_rows("Table 3. Pipe and local TCP bandwidth (MB/s)",
                                  {{"System", 0}, {"Libc bcopy", 0}, {"pipe", 0}, {"TCP", 0}},
                                  paper_table3(),
                                  [](const IpcBwRow& row) -> std::vector<Cell> {
                                    return {row.system, paper(row.bcopy_libc), paper(row.pipe),
                                            paper(row.tcp)};
                                  }),
                       {c.system(), c.cell("bw_mem", "bcopy_libc_mbs"), c.cell("bw_pipe", "mbs"),
                        c.cell("bw_tcp", "mbs")},
                       2, report::SortOrder::kDescending) +
         "\nAF_UNIX stream bandwidth (bw_unix): " + num(c.value("bw_unix", "mbs"), 0) + " MB/s\n";
}

std::string render_t4(Context& c) {
  report::Table table =
      paper_rows("Table 4. Remote TCP bandwidth (MB/s)",
                 {{"System", 0}, {"Network", 0}, {"TCP bandwidth", 1}}, paper_table4(),
                 [](const NetBwRow& row) -> std::vector<Cell> {
                   return {row.system, row.network, paper(row.tcp_bw)};
                 });
  // Substitution: the wire is the netsim link model; the host software
  // costs come from this batch's loopback results (§6.7).
  std::optional<double> tcp = c.value("lat_tcp", "us");
  std::optional<double> udp = c.value("lat_udp", "us");
  std::optional<double> bw = c.value("bw_tcp", "mbs");
  for (const auto& link : netsim::paper_networks()) {
    Cell modeled;
    if (tcp && udp && bw) {
      modeled = netsim::model_remote_bandwidth(
                    link, netsim::HostCosts::from_loopback(*tcp, *udp, *bw), 8u << 20, 1u << 20)
                    .tcp_mb_per_sec;
    }
    table.add_row({c.system(), link.name + " (sim)", modeled});
    table.mark_last_row("measured host + modeled wire");
  }
  table.sort_by(2, report::SortOrder::kDescending);
  return table.render() + "\nloopback inputs: TCP rtt " + num(tcp, 0) + " us, UDP rtt " +
         num(udp, 0) + " us, TCP bw " + num(bw, 0) + " MB/s; 8MB transfer, 1MB window\n";
}

std::string render_t5(Context& c) {
  return with_measured(
      paper_rows("Table 5. File vs. memory bandwidth (MB/s)",
                 {{"System", 0}, {"Libc bcopy", 0}, {"File read", 0}, {"File mmap", 0},
                  {"Memory read", 0}},
                 paper_table5(),
                 [](const FileBwRow& row) -> std::vector<Cell> {
                   return {row.system, paper(row.bcopy_libc), paper(row.file_read),
                           paper(row.file_mmap), paper(row.mem_read)};
                 }),
      {c.system(), c.cell("bw_mem", "bcopy_libc_mbs"), c.cell("bw_file_rd", "mbs"),
       c.cell("bw_mmap_rd", "mbs"), c.cell("bw_mem", "read_mbs")},
      2, report::SortOrder::kDescending);
}

std::string render_fig1(Context& c) {
  const Sweeps& s = c.sweeps();
  report::Plot plot("Figure 1. Memory latency (" + c.system() + ")", "array size (bytes)",
                    "latency (ns per load)");
  plot.set_x_scale(report::XScale::kLog2);
  plot.set_size(64, 20);
  std::vector<report::Column> columns = {{"size", 0}};
  std::vector<std::string> labels;
  for (size_t stride : s.fig1_strides) {
    columns.push_back({"s=" + std::to_string(stride), 1});
    labels.push_back("stride=" + std::to_string(stride));
  }
  std::vector<double> xs;
  std::vector<std::vector<Cell>> grid;
  for (size_t size : s.fig1_sizes) {
    xs.push_back(static_cast<double>(size));
    grid.push_back({text(size_arg(size))});
    for (size_t stride : s.fig1_strides) {
      // A chain needs at least two slots; a larger stride has no cell.
      grid.back().push_back(size / stride >= 2 ? c.cell(mem_entry(size, stride, false), "ns")
                                               : text(""));
    }
  }
  return figure(std::move(plot), labels, xs,
                report::Table("Figure 1 data: back-to-back load latency (ns), stride order",
                              columns),
                grid) +
         "\nPaper reference (DEC Alpha@300, Figure 1): L1 plateau ~< 10ns to 8KB,\n"
         "L2 plateau to 512KB external cache, main memory plateau ~400-500ns.\n";
}

// Random-order points; nullopt unless every one was measured (an
// extraction over a partial sweep would be a different experiment).
std::optional<std::vector<lat::MemLatPoint>> random_points(Context& c,
                                                           const std::vector<size_t>& sizes,
                                                           const std::vector<size_t>& strides) {
  std::vector<lat::MemLatPoint> points;
  for (size_t size : sizes) {
    for (size_t stride : strides) {
      if (std::optional<double> ns = c.value(mem_entry(size, stride, true), "ns")) {
        points.push_back({size, stride, *ns});
      }
    }
  }
  if (points.size() != sizes.size() * strides.size()) {
    return std::nullopt;
  }
  return points;
}

std::string render_t6(Context& c) {
  const Sweeps& s = c.sweeps();
  // Random order defeats the hardware prefetcher, so the memory plateau
  // shows true back-to-back load latency (the paper's machines had no
  // prefetchers to defeat; §7 lists this as planned work).
  std::optional<lat::MemHierarchy> hierarchy;
  if (auto curve = random_points(c, s.t6_sizes, {64})) {
    hierarchy = lat::extract_hierarchy(*curve);
  }
  std::optional<double> line;
  if (auto points = random_points(c, {s.t6_sizes.back()}, s.t6_line_strides)) {
    line = static_cast<double>(lat::estimate_line_size(*points));
  }
  std::optional<double> period = c.value("mhz", "period_ns");
  const lat::MemoryLevel* l1 = nullptr;
  const lat::MemoryLevel* l2 = nullptr;
  Cell memory;
  std::optional<double> levels;
  if (hierarchy.has_value()) {
    l1 = hierarchy->caches.empty() ? nullptr : &hierarchy->caches.front();
    l2 = hierarchy->caches.size() > 1 ? &hierarchy->caches.back() : l1;
    memory = hierarchy->memory_latency_ns > 0 ? Cell{hierarchy->memory_latency_ns} : Cell{};
    levels = static_cast<double>(hierarchy->caches.size());
  }
  auto latency = [](const lat::MemoryLevel* level) {
    return level != nullptr ? Cell{level->latency_ns} : Cell{};
  };
  auto size = [](const lat::MemoryLevel* level) {
    return level != nullptr ? size_cell(static_cast<double>(level->size_bytes)) : Cell{};
  };
  std::optional<double> l2_clocks;
  if (l2 != nullptr && period.has_value() && *period > 0) {
    l2_clocks = l2->latency_ns / *period;
  }
  // Section 7's automatic sizing, from this extraction; no line without a
  // detected level.
  std::string autosize;
  if (l1 != nullptr) {
    autosize = "automatic sizing (section 7): " +
               std::to_string(lat::autosize_beyond_cache(*hierarchy) >> 20) +
               " MB buffers, 4x the largest detected cache and at least 8 MB\n";
  }
  return with_measured(
             paper_rows("Table 6. Cache and memory latency (ns)",
                        {{"System", 0}, {"Clk", 1}, {"L1 lat", 1}, {"L1 size", 0},
                         {"L2 lat", 1}, {"L2 size", 0}, {"Memory", 0}},
                        paper_table6(),
                        [](const MemLatRow& row) -> std::vector<Cell> {
                          return {row.system, paper(row.clock_ns), paper(row.l1_latency_ns),
                                  size_cell(row.l1_size), paper(row.l2_latency_ns),
                                  size_cell(row.l2_size), paper(row.memory_latency_ns)};
                        }),
             {c.system(), cell(period), latency(l1), size(l1), latency(l2), size(l2), memory}, 4,
             report::SortOrder::kAscending) +  // the paper sorts on L2 latency
         "\ncpu clock: " + num(c.value("mhz", "mhz"), 0) + " MHz (" + num(period, 2) +
         " ns/cycle); detected cache levels: " + num(levels, 0) +
         "; estimated line size: " + num(line, 0) + " bytes\nL2 latency in clocks: " +
         num(l2_clocks, 1) + " (paper: 5-6 clocks on Pentium Pro, 1 on HP/IBM)\n" + autosize;
}

std::string render_t7(Context& c) {
  return with_measured(paper_rows("Table 7. Simple system call time (microseconds)",
                                  {{"System", 0}, {"system call", 2}}, paper_table7(),
                                  [](const SyscallRow& row) -> std::vector<Cell> {
                                    return {row.system, paper(row.syscall_us)};
                                  }),
                       {c.system(), c.cell("lat_syscall", "us")}, 1,
                       report::SortOrder::kAscending) +
         "\nextension: getpid " + num(c.value("lat_getpid", "us"), 2) + " us\n";
}

std::string render_t8(Context& c) {
  return with_measured(
      paper_rows("Table 8. Signal times (microseconds)",
                 {{"System", 0}, {"sigaction", 2}, {"sig handler", 2}}, paper_table8(),
                 [](const SignalRow& row) -> std::vector<Cell> {
                   return {row.system, paper(row.sigaction_us), paper(row.handler_us)};
                 }),
      {c.system(), c.cell("lat_sig_install", "us"), c.cell("lat_sig_catch", "us")}, 2,
      report::SortOrder::kAscending);
}

std::string render_t9(Context& c) {
  return with_measured(
      paper_rows("Table 9. Process creation time (milliseconds)",
                 {{"System", 0}, {"fork & exit", 1}, {"fork, exec & exit", 1},
                  {"fork, exec sh -c & exit", 1}},
                 paper_table9(),
                 [](const ProcRow& row) -> std::vector<Cell> {
                   return {row.system, paper(row.fork_ms), paper(row.fork_exec_ms),
                           paper(row.fork_sh_ms)};
                 }),
      {c.system(), c.cell("lat_fork", "ms"), c.cell("lat_exec", "ms"), c.cell("lat_sh", "ms")},
      2, report::SortOrder::kAscending);
}

std::string render_fig2(Context& c) {
  const Sweeps& s = c.sweeps();
  report::Plot plot("Figure 2. Context switch times (" + c.system() + ")", "processes",
                    "context switch time (us)");
  plot.set_size(60, 18);
  std::vector<report::Column> columns = {{"procs", 0}};
  std::vector<double> xs(s.fig2_procs.begin(), s.fig2_procs.end());
  std::vector<std::vector<Cell>> grid;
  for (int procs : s.fig2_procs) {
    grid.push_back({static_cast<double>(procs)});
  }
  std::vector<std::string> labels;
  for (size_t footprint : s.fig2_footprints) {
    columns.push_back({std::to_string(footprint >> 10) + "KB", 1});
    // The per-hop overhead subtracted from this series (paper §6.6).
    std::optional<double> overhead;
    for (size_t i = 0; i < s.fig2_procs.size(); ++i) {
      PlanEntry entry = ctx_entry(s.fig2_procs[i], footprint);
      grid[i].push_back(c.cell(entry, "us"));
      if (std::optional<double> o = c.value(entry, "overhead_us")) {
        overhead = o;
      }
    }
    labels.push_back("size=" + columns.back().header + " overhead=" + num(overhead, 0));
  }
  return figure(std::move(plot), labels, xs,
                report::Table("Figure 2 data: context switch time (us), overhead subtracted",
                              columns),
                grid) +
         "\nPaper reference (Linux/i686 Pentium Pro, Figure 2): times cluster low until\n"
         "the total working set exceeds the 256K L2 cache (~.25M), then rise sharply.\n";
}

std::string render_t10(Context& c) {
  return with_measured(paper_rows("Table 10. Context switch time (microseconds)",
                                  {{"System", 0}, {"2proc/0KB", 1}, {"2proc/32KB", 1},
                                   {"8proc/0KB", 1}, {"8proc/32KB", 1}},
                                  paper_table10(),
                                  [](const CtxRow& row) -> std::vector<Cell> {
                                    return {row.system, paper(row.p2_0k), paper(row.p2_32k),
                                            paper(row.p8_0k), paper(row.p8_32k)};
                                  }),
                       {c.system(), c.cell(ctx_entry(2, 0), "us"),
                        c.cell(ctx_entry(2, 32u << 10), "us"), c.cell(ctx_entry(8, 0), "us"),
                        c.cell(ctx_entry(8, 32u << 10), "us")},
                       1, report::SortOrder::kAscending);
}

std::string render_t11(Context& c) {
  return with_measured(paper_rows("Table 11. Pipe latency (microseconds)",
                                  {{"System", 0}, {"Pipe latency", 1}}, paper_table11(),
                                  [](const PipeLatRow& row) -> std::vector<Cell> {
                                    return {row.system, paper(row.pipe_us)};
                                  }),
                       {c.system(), c.cell("lat_pipe", "us")}, 1,
                       report::SortOrder::kAscending) +
         "\nAF_UNIX round trip (lat_unix): " + num(c.value("lat_unix", "us"), 1) + " us\n";
}

// Tables 12 and 13: the raw protocol, and the RPC layer over it.
template <typename Row>
std::string render_rpc(Context& c, const std::string& title, const std::string& proto,
                       const std::vector<Row>& rows, const char* raw_bench, const char* rpc_bench) {
  std::optional<double> raw = c.value(raw_bench, "us");
  std::optional<double> rpc = c.value(rpc_bench, "us");
  std::optional<double> overhead;
  if (raw.has_value() && rpc.has_value()) {
    overhead = *rpc - *raw;
  }
  return with_measured(paper_rows(title, {{"System", 0}, {proto, 0}, {"RPC/" + proto, 0}}, rows,
                                  [](const Row& row) -> std::vector<Cell> {
                                    auto [system, raw_us, rpc_us] = row;
                                    return {system, paper(raw_us), paper(rpc_us)};
                                  }),
                       {c.system(), cell(raw), cell(rpc)}, 2, report::SortOrder::kAscending) +
         "\nRPC layer overhead: " + num(overhead, 1) + " us per round trip\n";
}

std::string render_t12(Context& c) {
  return render_rpc(c, "Table 12. TCP latency (microseconds)", "TCP", paper_table12(), "lat_tcp",
                    "lat_rpc_tcp");
}

std::string render_t13(Context& c) {
  return render_rpc(c, "Table 13. UDP latency (microseconds)", "UDP", paper_table13(), "lat_udp",
                    "lat_rpc_udp");
}

std::string render_t14(Context& c) {
  report::Table table =
      paper_rows("Table 14. Remote latencies (microseconds)",
                 {{"System", 0}, {"Network", 0}, {"TCP latency", 0}, {"UDP latency", 0}},
                 paper_table14(), [](const NetLatRow& row) -> std::vector<Cell> {
                   return {row.system, row.network, paper(row.tcp_us), paper(row.udp_us)};
                 });
  // Remote round trip = loopback software cost + modeled time on the wire,
  // the decomposition §6.7 states for this table.
  std::optional<double> tcp = c.value("lat_tcp", "us");
  std::optional<double> udp = c.value("lat_udp", "us");
  for (const auto& link : netsim::paper_networks()) {
    std::vector<Cell> row = {c.system(), link.name + " (sim)", Cell{}, Cell{}};
    if (tcp && udp) {
      netsim::RemoteLatency modeled =
          netsim::model_remote_latency(link, netsim::HostCosts::from_loopback(*tcp, *udp, 0.0));
      row[2] = modeled.tcp_rtt_us;
      row[3] = modeled.udp_rtt_us;
    }
    table.add_row(std::move(row));
    table.mark_last_row("measured host + modeled wire");
  }
  table.sort_by(2, report::SortOrder::kAscending);
  return table.render() + "\nloopback inputs: TCP rtt " + num(tcp, 0) + " us, UDP rtt " +
         num(udp, 0) + " us\n";
}

std::string render_t15(Context& c) {
  std::optional<double> connect = c.value("lat_connect", "us");
  // The paper's UDP-vs-TCP exchange comparison over 10Mbit ethernet.
  std::optional<double> remote;
  if (connect.has_value()) {
    remote = netsim::model_remote_connect_us(
        netsim::LinkProfile::ethernet_10baseT(),
        netsim::HostCosts::from_loopback(2 * *connect, *connect, 0.0));
  }
  return with_measured(paper_rows("Table 15. TCP connect latency (microseconds)",
                                  {{"System", 0}, {"TCP connection", 0}}, paper_table15(),
                                  [](const ConnectRow& row) -> std::vector<Cell> {
                                    return {row.system, paper(row.connect_us)};
                                  }),
                       {c.system(), cell(connect)}, 1, report::SortOrder::kAscending) +
         "\nmodeled remote connect over 10baseT: " + num(remote, 0) +
         " us (paper: connection cost is a\nsubstantial fraction of a short-lived TCP exchange)\n";
}

std::string render_t16(Context& c) {
  report::Table table =
      paper_rows("Table 16. File system latency (microseconds)",
                 {{"System", 0}, {"FS", 0}, {"Create", 0}, {"Delete", 0}}, paper_table16(),
                 [](const FsLatRow& row) -> std::vector<Cell> {
                   return {row.system, row.filesystem, paper(row.create_us), paper(row.delete_us)};
                 });
  // SimFs rows: the same workload over the simulated 1996-class disk in each
  // durability discipline, which regenerates Table 16's spread even on a
  // host whose real filesystem is all-async.
  for (std::string mode : {"async", "journaled", "sync"}) {
    table.add_row({text("SimFs (simulated disk)"), mode, c.cell("lat_fs_sim", mode + "_create_us"),
                   c.cell("lat_fs_sim", mode + "_delete_us")});
    table.mark_last_row("simulated 1996-class disk");
  }
  return with_measured(std::move(table),
                       {c.system(), text("host FS"), c.cell("lat_fs", "create_us"),
                        c.cell("lat_fs", "delete_us")},
                       3, report::SortOrder::kAscending) +
         "\nnote: like 1996 Linux/EXT2FS, an in-memory or async filesystem does the\n"
         "directory ops in memory; ~10ms rows are synchronous-write filesystems.\n"
         "The SimFs rows regenerate that spread on the simulated disk: async ops\n"
         "are memory-speed, the journaled log rides the drive cache, and\n"
         "synchronous directory writes pay a rotation per operation.\n";
}

std::string render_t17(Context& c) {
  report::Table table = paper_rows("Table 17. SCSI I/O overhead (microseconds)",
                                   {{"System", 0}, {"Disk latency", 2}}, paper_table17(),
                                   [](const DiskRow& row) -> std::vector<Cell> {
                                     return {row.system, paper(row.overhead_us)};
                                   });
  // The paper's number is the host's per-request software overhead; ours is
  // a user-space call into the disk model, so the magnitude is far smaller —
  // the structure (buffer hits, CPU-bound ceiling) is what reproduces.
  std::optional<double> host = c.value("disk_overhead", "host_us");
  table.add_row({c.system(), cell(host)});
  table.mark_last_row("host overhead per request (user-space path)");
  table.sort_by(1, report::SortOrder::kAscending);
  std::optional<double> ceiling;
  if (host.has_value() && *host > 0) {
    ceiling = 1e6 / *host;
  }
  return table.render() +
         "\ntrack-buffer hit rate: " + num(c.value("disk_overhead", "hit_pct"), 1) +
         "% (paper premise: sequential 512B reads are\n"
         "served from the drive's 32-128KB read-ahead buffer)\n"
         "modeled device service time: " + num(c.value("disk_overhead", "device_us"), 1) +
         " us/op; CPU-bound ceiling: " + num(ceiling, 0) +
         " ops/s\n(paper: \"possible to generate loads of more than 1,000 SCSI ops/second\")\n";
}

// ---------------------------------------------------------------------------
// The tables and figures, in the paper's order.

struct PaperTable {
  const char* id;
  std::string (*render)(Context&);
};

constexpr PaperTable kTables[] = {
    {"1", render_t1},   {"2", render_t2},   {"3", render_t3},       {"4", render_t4},
    {"5", render_t5},   {"fig1", render_fig1}, {"6", render_t6},    {"7", render_t7},
    {"8", render_t8},   {"9", render_t9},   {"fig2", render_fig2},  {"10", render_t10},
    {"11", render_t11}, {"12", render_t12}, {"13", render_t13},     {"14", render_t14},
    {"15", render_t15}, {"16", render_t16}, {"17", render_t17},
};

// The tables named by `ids`, in that order; every table when empty.
std::vector<const PaperTable*> select(const std::vector<std::string>& ids) {
  std::vector<const PaperTable*> out;
  if (ids.empty()) {
    for (const PaperTable& table : kTables) {
      out.push_back(&table);
    }
  }
  for (const std::string& id : ids) {
    auto it = std::find_if(std::begin(kTables), std::end(kTables),
                           [&](const PaperTable& t) { return t.id == id; });
    if (it == std::end(kTables)) {
      throw std::invalid_argument("unknown table '" + id + "' (tables are 1..17, fig1, fig2)");
    }
    out.push_back(it);
  }
  return out;
}

}  // namespace

std::vector<PlanEntry> paper_plan(bool quick, const std::vector<std::string>& tables) {
  Context planner(quick);
  for (const PaperTable* table : select(tables)) {
    table->render(planner);
  }
  return planner.plan();
}

std::string render_paper(const report::ResultBatch& batch, const std::vector<std::string>& tables) {
  std::vector<const PaperTable*> selected = select(tables);
  Context context(batch);
  std::string out;
  for (const PaperTable* table : selected) {
    out += table->render(context) + "\n";
  }
  return out;
}

}  // namespace lmb::db
