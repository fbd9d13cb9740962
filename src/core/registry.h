// Named-benchmark registry.
//
// Every benchmark in the suite registers itself by name and category so the
// full-suite driver (examples/run_suite) and tests can enumerate and run them
// uniformly, mirroring lmbench's `lmbench-run` script.
#ifndef LMBENCHPP_SRC_CORE_REGISTRY_H_
#define LMBENCHPP_SRC_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/core/run_result.h"

namespace lmb {

// One suite entry.  `run` executes the benchmark with the given options and
// returns a typed RunResult (metrics, timing detail, metadata); callers
// wanting the old human-readable line use RunResult::summary().  Registered
// run functions may leave RunResult::name/category empty — Registry::add
// wraps them so the returned result is stamped with this entry's identity.
struct BenchmarkInfo {
  std::string name;         // e.g. "lat_pipe"
  std::string category;     // "bandwidth" | "latency" | "disk" | ...
  std::string description;  // one line
  std::function<RunResult(const Options&)> run;
};

// One invocation in a run plan: a registered benchmark and the flags it
// runs with on top of the suite's own options, e.g. {"lat_ctx",
// {"--procs=8", "--size=32k"}}.  A result whose entry had args carries them
// as metadata["args"] (args_text()), so every number traces to its entry.
struct PlanEntry {
  std::string name;
  std::vector<std::string> args;  // "--key=value" or "--flag"

  // `base` with this entry's args set over it.  Throws
  // std::invalid_argument on an arg that is not a --flag.
  Options options_over(const Options& base) const;

  // The args joined by single spaces ("" when there are none).
  std::string args_text() const;

  bool operator==(const PlanEntry&) const = default;
};

class Registry {
 public:
  // The process-wide registry used by REGISTER_LMB_BENCHMARK.
  static Registry& global();

  // Adds an entry.  Throws std::invalid_argument on duplicate name or
  // missing run function.
  void add(BenchmarkInfo info);

  // nullptr when not found.
  const BenchmarkInfo* find(const std::string& name) const;

  // All entries, optionally filtered by category, sorted by name.
  std::vector<const BenchmarkInfo*> list(const std::string& category = "") const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, BenchmarkInfo> entries_;
};

// Registers at static-initialization time into Registry::global().
struct BenchmarkRegistrar {
  explicit BenchmarkRegistrar(BenchmarkInfo info);
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_REGISTRY_H_
