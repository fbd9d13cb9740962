#include "src/lat/lat_proc.h"

#include <unistd.h>

#include <limits>
#include <stdexcept>

#include "src/core/registry.h"
#include "src/report/table.h"
#include "src/sys/process.h"

namespace lmb::lat {

namespace {

std::string resolve_exec_path(const ProcConfig& config) {
  if (!config.exec_path.empty()) {
    return config.exec_path;
  }
  return default_hello_path();
}

void validate(const ProcConfig& config) {
  if (config.iterations < 1) {
    throw std::invalid_argument("ProcConfig: iterations must be >= 1");
  }
}

}  // namespace

std::string default_hello_path() {
#ifdef LMB_HELLO_PATH
  if (::access(LMB_HELLO_PATH, X_OK) == 0) {
    return LMB_HELLO_PATH;
  }
#endif
  return "/bin/true";
}

Measurement measure_fork_exit(const ProcConfig& config) {
  validate(config);
  return measure_once_each(
      []() {
        sys::Child child = sys::fork_child([]() { return 0; });
        child.wait();
      },
      config.iterations);
}

Measurement measure_fork_exec(const ProcConfig& config) {
  validate(config);
  std::string path = resolve_exec_path(config);
  Measurement m = measure_once_each(
      [&]() {
        sys::Child child = sys::spawn({path}, /*quiet=*/true);
        if (child.wait() == 127) {
          throw std::runtime_error("fork_exec: cannot execute " + path);
        }
      },
      config.iterations);
  return m;
}

Measurement measure_fork_sh(const ProcConfig& config) {
  validate(config);
  std::string path = resolve_exec_path(config);
  return measure_once_each(
      [&]() {
        sys::Child child = sys::spawn_shell(path, /*quiet=*/true);
        if (child.wait() == 127) {
          throw std::runtime_error("fork_sh: shell cannot run " + path);
        }
      },
      config.iterations);
}

ProcResult measure_proc_suite(const ProcConfig& config) {
  ProcResult result;
  result.fork_exit_ms = measure_fork_exit(config).ms_per_op();
  result.fork_exec_ms = measure_fork_exec(config).ms_per_op();
  result.fork_sh_ms = measure_fork_sh(config).ms_per_op();
  return result;
}

namespace {

ProcConfig config_from(const Options& opts) {
  ProcConfig cfg = opts.quick() ? ProcConfig::quick() : ProcConfig{};
  cfg.exec_path = opts.get_string("exec", cfg.exec_path);
  cfg.iterations = opts.get_int_in("n", cfg.iterations, 1, std::numeric_limits<int>::max());
  return cfg;
}

const BenchmarkRegistrar fork_registrar{{
    .name = "lat_fork",
    .category = "latency",
    .description = "fork + exit + wait (Table 9)",
    .run =
        [](const Options& opts) {
          Measurement m = measure_fork_exit(config_from(opts));
          return RunResult{}.with(m).add("ms", m.ms_per_op(), "ms");
        },
}};

const BenchmarkRegistrar exec_registrar{{
    .name = "lat_exec",
    .category = "latency",
    .description = "fork + exec + exit (Table 9)",
    .run =
        [](const Options& opts) {
          Measurement m = measure_fork_exec(config_from(opts));
          return RunResult{}.with(m).add("ms", m.ms_per_op(), "ms");
        },
}};

const BenchmarkRegistrar sh_registrar{{
    .name = "lat_sh",
    .category = "latency",
    .description = "fork + /bin/sh -c + exit (Table 9)",
    .run =
        [](const Options& opts) {
          Measurement m = measure_fork_sh(config_from(opts));
          return RunResult{}.with(m).add("ms", m.ms_per_op(), "ms");
        },
}};

}  // namespace

}  // namespace lmb::lat
