#include "src/report/summary.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "src/report/compare.h"
#include "src/report/table.h"

namespace lmb::report {

namespace {

// One summary row: the metric a registered benchmark emits, and how it
// shows.  A row without a bench starts a section titled by its label.
struct Row {
  const char* bench;  // RunResult::name
  const char* key;    // Metric::key
  const char* label;
  const char* unit;
};

// Presentation order.
constexpr Row kRows[] = {
    {nullptr, nullptr, "Processor and system calls", nullptr},
    {"lat_syscall", "us", "Null syscall", "us"},
    {"lat_sig_install", "us", "Signal install", "us"},
    {"lat_sig_catch", "us", "Signal catch", "us"},
    {"lat_prot_fault", "us", "Protection fault", "us"},
    {"lat_fork", "ms", "fork+exit", "ms"},
    {"lat_exec", "ms", "fork+exec", "ms"},
    {"lat_sh", "ms", "fork+sh -c", "ms"},

    {nullptr, nullptr, "Context switching and IPC latencies", nullptr},
    {"lat_ctx", "us", "Ctx switch 2p/0K", "us"},
    {"lat_pipe", "us", "Pipe RTT", "us"},
    {"lat_unix", "us", "AF_UNIX RTT", "us"},
    {"lat_tcp", "us", "TCP RTT", "us"},
    {"lat_udp", "us", "UDP RTT", "us"},
    {"lat_rpc_tcp", "us", "RPC/TCP RTT", "us"},
    {"lat_rpc_udp", "us", "RPC/UDP RTT", "us"},
    {"lat_connect", "us", "TCP connect", "us"},

    {nullptr, nullptr, "Bandwidths", nullptr},
    {"bw_mem", "bcopy_libc_mbs", "bcopy (libc)", "MB/s"},
    {"bw_mem", "read_mbs", "Memory read", "MB/s"},
    {"bw_mem", "write_mbs", "Memory write", "MB/s"},
    {"bw_stream", "triad_mbs", "STREAM triad", "MB/s"},
    {"bw_pipe", "mbs", "Pipe", "MB/s"},
    {"bw_tcp", "mbs", "TCP (loopback)", "MB/s"},
    {"bw_file_rd", "mbs", "File reread", "MB/s"},
    {"bw_mmap_rd", "mbs", "Mmap reread", "MB/s"},

    {nullptr, nullptr, "Memory hierarchy, file and VM latencies", nullptr},
    {"lat_mem_rd", "ns", "Memory load", "ns"},
    {"lat_pagefault", "us", "Page fault", "us"},
    {"lat_mmap", "us", "mmap+munmap 1MB", "us"},
    {"lat_fs", "create_us", "File create", "us"},
    {"lat_fs", "delete_us", "File delete", "us"},
};

// The row's value in one batch; nullopt when absent, null, or from a
// non-ok result.
std::optional<double> value_of(const ResultBatch& batch, const Row& row) {
  for (const RunResult& r : batch.results) {
    if (r.name != row.bench || !r.ok()) {
      continue;
    }
    for (const Metric& m : r.metrics) {
      if (m.key == row.key && std::isfinite(m.value)) {
        return m.value;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::string> summary_benchmarks() {
  std::vector<std::string> names;
  for (const Row& row : kRows) {
    if (row.bench != nullptr && std::find(names.begin(), names.end(), row.bench) == names.end()) {
      names.push_back(row.bench);
    }
  }
  return names;
}

std::string render_summary(const std::vector<ResultBatch>& batches) {
  if (batches.empty()) {
    return "(no result batches)\n";
  }

  std::ostringstream out;
  out << "lmbench++ suite summary — " << batches.size() << " run(s)\n";

  for (const Row& row : kRows) {
    if (row.bench == nullptr) {
      out << "\n" << row.label << "\n" << std::string(24, ' ');
      for (const ResultBatch& batch : batches) {
        std::string name = batch.system.substr(0, 14);
        out << " " << std::string(15 - name.size(), ' ') << name;
      }
      out << "\n";
      continue;
    }

    std::vector<std::optional<double>> values;
    std::vector<double> present;
    for (const ResultBatch& batch : batches) {
      values.push_back(value_of(batch, row));
      if (values.back().has_value()) {
        present.push_back(*values.back());
      }
    }
    // Best value across runs, for the '*' marker.
    MetricDirection direction = direction_for_unit(row.unit);
    bool mark = present.size() > 1 && direction != MetricDirection::kNeutral;
    double best = 0.0;
    if (mark) {
      best = direction == MetricDirection::kLowerIsBetter
                 ? *std::min_element(present.begin(), present.end())
                 : *std::max_element(present.begin(), present.end());
    }

    std::string label = (std::string(row.label) + " (" + row.unit + ")").substr(0, 22);
    out << "  " << label << std::string(22 - label.size(), ' ');
    for (const std::optional<double>& v : values) {
      std::string cell = "--";
      if (v.has_value()) {
        int precision = *v < 10 ? 2 : (*v < 1000 ? 1 : 0);
        cell = format_number(*v, precision) + (mark && *v == best ? "*" : "");
      }
      out << " " << std::string(cell.size() < 15 ? 15 - cell.size() : 0, ' ') << cell;
    }
    out << "\n";
  }
  if (batches.size() > 1) {
    out << "\n('*' marks the best run per row)\n";
  }
  return out.str();
}

}  // namespace lmb::report
