// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench --setup-only --workload W --work-dir DIR   (one timed set-up)
//   perfbench --list-metrics                              (the catalog)
//   perfbench --self-test BENCHMARK.json                  (checks trip; names agree)
//
// A run first times eleven set-ups, each in a fresh process, then runs the
// workload's passes for S seconds, checks every pass's output, and prints
// notes, a context line (seed, nproc, clock source) and, last, the result
// object.  Exit 0 when every check passed, 1 when one failed, 2 on a usage
// error.  With --trace 1 it also writes DIR/trace-<W>-seed<N>.json (Chrome
// trace_event format) and reports per-layer metrics instead of end-to-end
// ones.  perfbench/run.py builds the binary and passes DIR.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/metrics.h"
#include "perfbench/workloads.h"
#include "src/core/tsc_clock.h"
#include "src/report/json.h"
#include "src/sys/fdio.h"

namespace perfbench {

int run_self_test(const std::string& benchmark_json_path);  // selftest.cc

namespace {

constexpr int kSetups = 11;

struct Args {
  RunConfig run;
  bool setup_only = false;
  bool list_metrics = false;
  std::string self_test;  // BENCHMARK.json path
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload suite|echo_closed|rpc_open --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(flag + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.run.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") {
          usage("--trace takes 0 or 1");
        }
        a.run.trace = t == "1";
      } else if (flag == "--work-dir") {
        a.run.work_dir = value();
      } else if (flag == "--setup-only") {
        a.setup_only = true;
      } else if (flag == "--list-metrics") {
        a.list_metrics = true;
      } else if (flag == "--self-test") {
        a.self_test = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.list_metrics || !a.self_test.empty()) {
    return a;
  }
  bool known = false;
  for (const char* w : kWorkloads) {
    known = known || a.run.workload == w;
  }
  if (!have_workload || !known) {
    usage("--workload must be one of suite, echo_closed, rpc_open");
  }
  if (a.run.work_dir.empty()) {
    usage("--work-dir is required");
  }
  if (!(a.run.seconds > 0)) {
    usage("--seconds must be positive");
  }
  return a;
}

void setup(const RunConfig& cfg) {
  if (cfg.workload == "suite") {
    setup_suite(cfg);
  } else {
    setup_load(cfg);
  }
}

// Median wall time of kSetups runs of `perfbench --setup-only`, each in a
// fresh process: exec, static initialization (benchmark registration) and
// the workload's set-up.  Throws when one fails.
double time_setups(const RunConfig& cfg) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    std::vector<std::string> args = {self, "--setup-only", "--workload", cfg.workload,
                                     "--work-dir", cfg.work_dir};
    std::vector<char*> argv;
    for (std::string& s : args) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("setup: fork failed");
    }
    if (pid == 0) {
      execv(argv[0], argv.data());
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        throw std::runtime_error("setup: waitpid failed");
      }
    }
    times.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("setup: child exited with status " + std::to_string(status));
    }
  }
  return median(times);
}

void list_metrics() {
  using lmb::report::json_quote;
  for (bool trace : {false, true}) {
    for (const MetricSpec& m : trace ? per_layer_metrics() : end_to_end_metrics()) {
      std::string workloads;
      for (const std::string& w : m.workloads) {
        workloads += (workloads.empty() ? "" : ",") + w;
      }
      std::printf("{\"kind\": %s, \"name\": %s, \"unit\": %s, \"better\": %s, "
                  "\"workloads\": %s, \"moves\": %s}\n",
                  trace ? "\"per_layer\"" : "\"end_to_end\"", json_quote(m.name).c_str(),
                  json_quote(m.unit).c_str(), json_quote(m.better).c_str(),
                  json_quote(workloads).c_str(), json_quote(m.moves).c_str());
    }
  }
}

int run(const RunConfig& cfg) {
  std::filesystem::create_directories(cfg.work_dir);
  const std::string clock_source = lmb::select_clock(lmb::ClockSource::kAuto).source;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  SpanRecorder recorder;
  SpanRecorder* rec = cfg.trace ? &recorder : nullptr;

  Outcome out;
  try {
    const double setup_s = time_setups(cfg);
    out = cfg.workload == "suite" ? run_suite_workload(cfg, rec) : run_load_workload(cfg, rec);
    out.metrics["setup_s"] = setup_s;
  } catch (const std::exception& e) {
    out.check_failures.push_back(std::string("run aborted: ") + e.what());
  }
  if (out.attempted == 0) {
    out.check_failures.push_back("nothing was attempted");
    out.attempted = 1;
    out.failed = 1;
  }
  finalize(out, cfg.workload, cfg.trace);

  using lmb::report::json_quote;
  const std::string context =
      "{\"workload\": " + json_quote(cfg.workload) + ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"seconds\": " + lmb::report::json_double(cfg.seconds) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") + ", \"nproc\": " + std::to_string(nproc) +
      ", \"clock_source\": " + json_quote(clock_source) + "}";
  const std::string result = result_json(out, cfg.trace);
  const std::string stem = cfg.work_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           "-trace" + (cfg.trace ? "1" : "0");
  lmb::sys::write_file(stem + ".json",
                       "{\"context\": " + context + ", \"result\": " + result + "}\n");
  if (cfg.trace) {
    const std::string trace_path =
        cfg.work_dir + "/trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".json";
    lmb::sys::write_file(trace_path,
                         recorder.to_chrome_json({{"workload", cfg.workload},
                                                  {"seed", std::to_string(cfg.seed)},
                                                  {"nproc", std::to_string(nproc)},
                                                  {"clock_source", clock_source}}));
    out.notes.push_back("trace: " + std::to_string(recorder.spans().size()) + " spans in " +
                        trace_path);
  }

  for (const std::string& n : out.notes) {
    std::printf("perfbench: %s\n", n.c_str());
  }
  for (const std::string& f : out.check_failures) {
    std::printf("perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("perfbench: context %s\n", context.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (args.list_metrics) {
    list_metrics();
    return 0;
  }
  if (!args.self_test.empty()) {
    return run_self_test(args.self_test);
  }
  if (args.setup_only) {
    try {
      setup(args.run);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  return run(args.run);
}
