#include "src/lat/lat_ctx.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/clock.h"
#include "src/core/do_not_optimize.h"
#include "src/core/registry.h"
#include "src/core/stats.h"
#include "src/report/table.h"
#include "src/sys/fdio.h"
#include "src/sys/mapped_file.h"
#include "src/sys/pipe.h"
#include "src/sys/process.h"

namespace lmb::lat {

namespace {

void validate(const CtxConfig& config) {
  if (config.processes < CtxConfig::kMinProcesses ||
      config.processes > CtxConfig::kMaxProcesses) {
    throw std::invalid_argument("CtxConfig: processes must be in [2, 64]");
  }
  if (config.token_passes < 1 || config.repetitions < 1) {
    throw std::invalid_argument("CtxConfig: passes and repetitions must be >= 1");
  }
}

// Sums the footprint array "as a series of integers" after each token
// receipt (§6.6).  No-op for zero-size footprints.
void sum_footprint(const std::uint64_t* data, size_t words) {
  if (words == 0) {
    return;
  }
  std::uint64_t sum = 0;
  for (size_t i = 0; i < words; ++i) {
    sum += data[i];
  }
  do_not_optimize(sum);
}

// One timed run of the ring; returns ns per hop (including token overhead).
double run_ring_once(const CtxConfig& config) {
  int n = config.processes;
  int rounds = std::max(1, config.token_passes / n);

  // pipe[i] carries the token from process i to process (i+1) % n.
  std::vector<sys::Pipe> pipes;
  pipes.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pipes.emplace_back();
  }

  // Allocated before fork so "all arrays are at the same virtual address in
  // all processes" (paper footnote 4); COW gives each child a private copy.
  size_t words = config.footprint_bytes / sizeof(std::uint64_t);
  sys::AnonMapping footprint(std::max<size_t>(config.footprint_bytes, 8));
  auto* data = reinterpret_cast<std::uint64_t*>(footprint.data());
  for (size_t w = 0; w < words; ++w) {
    data[w] = w;
  }

  std::vector<sys::Child> children;
  children.reserve(static_cast<size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    children.push_back(sys::fork_child([&, i]() {
      // Process i: read from pipe[i-1], sum footprint, write to pipe[i].
      char token = 0;
      for (int r = 0; r < rounds; ++r) {
        sys::read_full(pipes[static_cast<size_t>(i - 1)].read_fd(), &token, 1);
        sum_footprint(data, words);
        sys::write_full(pipes[static_cast<size_t>(i)].write_fd(), &token, 1);
      }
      return 0;
    }));
  }

  // Parent is process 0: writes to pipe[0], reads from pipe[n-1].
  char token = 'T';
  StopWatch sw;
  for (int r = 0; r < rounds; ++r) {
    sys::write_full(pipes[0].write_fd(), &token, 1);
    sys::read_full(pipes[static_cast<size_t>(n - 1)].read_fd(), &token, 1);
    sum_footprint(data, words);
  }
  double elapsed = static_cast<double>(sw.elapsed());

  for (auto& child : children) {
    if (child.wait() != 0) {
      throw std::runtime_error("context-switch ring child failed");
    }
  }
  return elapsed / (static_cast<double>(rounds) * n);
}

// The same token traffic with no second process: write + read + sum through
// each pipe in turn.  "This overhead time ... is not included in the
// reported context switch time" (§6.6).
double run_overhead_once(const CtxConfig& config) {
  int n = config.processes;
  int rounds = std::max(1, config.token_passes / n);

  std::vector<sys::Pipe> pipes;
  pipes.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pipes.emplace_back();
  }
  size_t words = config.footprint_bytes / sizeof(std::uint64_t);
  sys::AnonMapping footprint(std::max<size_t>(config.footprint_bytes, 8));
  auto* data = reinterpret_cast<std::uint64_t*>(footprint.data());
  for (size_t w = 0; w < words; ++w) {
    data[w] = w;
  }

  char token = 'T';
  StopWatch sw;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < n; ++i) {
      sys::write_full(pipes[static_cast<size_t>(i)].write_fd(), &token, 1);
      sys::read_full(pipes[static_cast<size_t>(i)].read_fd(), &token, 1);
      sum_footprint(data, words);
    }
  }
  double elapsed = static_cast<double>(sw.elapsed());
  return elapsed / (static_cast<double>(rounds) * n);
}

}  // namespace

CtxResult measure_ctx(const CtxConfig& config) {
  validate(config);

  Sample raw_ns;
  Sample overhead_ns;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    overhead_ns.add(run_overhead_once(config));
    raw_ns.add(run_ring_once(config));
  }

  CtxResult result;
  result.processes = config.processes;
  result.footprint_bytes = config.footprint_bytes;
  result.raw_us = raw_ns.min() / 1e3;
  result.overhead_us = overhead_ns.min() / 1e3;
  result.ctx_us = std::max(0.0, result.raw_us - result.overhead_us);
  return result;
}

namespace {

const BenchmarkRegistrar registrar{{
    .name = "lat_ctx",
    .category = "latency",
    .description = "process context switch via pipe ring (Figure 2, Table 10)",
    .run =
        [](const Options& opts) {
          CtxConfig cfg = opts.quick() ? CtxConfig::quick() : CtxConfig{};
          cfg.processes = opts.get_int_in("procs", cfg.processes, CtxConfig::kMinProcesses,
                                          CtxConfig::kMaxProcesses);
          cfg.footprint_bytes =
              static_cast<size_t>(opts.get_size("size", static_cast<std::int64_t>(cfg.footprint_bytes)));
          CtxResult r = measure_ctx(cfg);
          RunResult out;
          out.add("us", r.ctx_us, "us").add("overhead_us", r.overhead_us, "us");
          out.metadata["procs"] = std::to_string(cfg.processes);
          out.metadata["footprint"] = std::to_string(cfg.footprint_bytes);
          out.display = report::format_number(r.ctx_us, 1) + " us (overhead " +
                        report::format_number(r.overhead_us, 1) + " us)";
          return out;
        },
}};

}  // namespace

}  // namespace lmb::lat
