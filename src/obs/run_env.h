// Run provenance: a snapshot of the environment a benchmark batch ran
// under, embedded in every serialized batch and diffed by lmbench_compare.
//
// Continuous-benchmarking practice (ROOT's performance CI) shows regression
// gates are only trustworthy when each run records its environment: a
// "regression" between a governor=performance baseline and a
// governor=powersave candidate is a configuration change, not a code
// change.  Every field is a string — captured verbatim from sysfs/procfs —
// so serialization and diffing stay uniform and lossless.
//
// capture_run_environment takes overridable sysfs/proc roots so tests can
// point it at a stub tree; production callers use the defaults.
#ifndef LMBENCHPP_SRC_OBS_RUN_ENV_H_
#define LMBENCHPP_SRC_OBS_RUN_ENV_H_

#include <string>
#include <vector>

namespace lmb::obs {

struct RunEnvironment {
  std::string hostname;
  std::string os;         // uname sysname
  std::string kernel;     // uname release
  std::string machine;    // uname machine
  std::string cpu_model;
  std::string cpu_count;  // online CPUs, as text
  std::string topology;   // "8 cpus / 4 cores / 1 socket" (PR 4 topology)
  std::string governor;   // "performance", "powersave", "mixed(...)", "unknown"
  std::string turbo;      // "on" / "off" / "unknown"
  std::string smt;        // "on" / "off" / "unknown"
  std::string aslr;       // /proc/sys/kernel/randomize_va_space: "0".."2" / "unknown"
  // Core-isolation kernel parameters from /proc/cmdline, the knobs a host
  // timing nanosecond-scale operations should have set (a dedicated CPU
  // list keeps the tick, RCU callbacks, and other tasks off the measured
  // cores).  Each is the parameter's cpu-list value verbatim, or "none"
  // when the parameter is absent ("unknown" when /proc/cmdline was
  // unreadable).
  std::string isolcpus;
  std::string nohz_full;
  std::string rcu_nocbs;
  std::string loadavg1;   // 1-minute load average at capture time
  std::string compiler;   // compiler that built this binary
  std::string build;      // build type + flags baked in at configure time

  // Noise warnings computed at capture time (see environment_warnings); kept
  // in the snapshot so a saved batch still says what was wrong that day.
  std::vector<std::string> warnings;

  bool empty() const;  // true when nothing was captured
};

// One named field of the snapshot.  `significant` marks fields whose
// mismatch between two batches makes a comparison suspect (loadavg and
// hostname are informational; governor/turbo/kernel/... are significant).
struct EnvField {
  std::string name;
  std::string value;
  bool significant = false;
};

// The snapshot's scalar fields in stable order (serialization + diffing).
std::vector<EnvField> environment_fields(const RunEnvironment& env);

// Inverse of environment_fields for one field; unknown names are ignored
// (forward compatibility with newer producers).
void set_environment_field(RunEnvironment& env, const std::string& name,
                           const std::string& value);

// Gathers the snapshot.  Never throws; unreadable facts become "unknown" or
// stay empty.  `sysfs_root`/`proc_root` default to the real trees and are
// overridable for tests.
RunEnvironment capture_run_environment(const std::string& sysfs_root = "/sys",
                                       const std::string& proc_root = "/proc");

// Noisy-environment warnings for a snapshot: governor not "performance",
// turbo boost enabled, load average high relative to the CPU count.  Empty
// when the environment looks benchmark-quiet.
std::vector<std::string> environment_warnings(const RunEnvironment& env);

// One differing field between two snapshots.
struct EnvDelta {
  std::string field;
  std::string baseline;
  std::string current;
  bool significant = false;
};

// Field-by-field diff (fields missing on both sides are skipped).
std::vector<EnvDelta> diff_environments(const RunEnvironment& baseline,
                                        const RunEnvironment& current);

}  // namespace lmb::obs

#endif  // LMBENCHPP_SRC_OBS_RUN_ENV_H_
