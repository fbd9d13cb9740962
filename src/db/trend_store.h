// Time-series result store: the run history of every host, and the one
// store both the trend report and the regression gate read (ROOT-style
// continuous benchmarking, Shadura et al.).
//
// Layout: one shard directory per host under the store root, holding one
// append-only JSONL file per benchmark plus a run log:
//
//   <dir>/<host-shard>/runs.jsonl     one line per appended batch: sequence
//                                     number, system label, wall clock, and
//                                     the provenance block
//   <dir>/<host-shard>/<bench>.jsonl  one line per run: {seq, wall_ms,
//                                     metrics:[{key, value, unit}],
//                                     measurement} (the results.v1 object)
//
// Appends are O(1) per benchmark (no rewrite of history), reads of one
// benchmark's trend touch exactly one shard file, and hosts never contend —
// the sharding a fleet of reporting machines needs.  Torn tails are
// expected (a crashed writer leaves a truncated last line): every reader
// skips lines that fail to parse, so history degrades by one point instead
// of becoming unreadable.  `compact` bounds file growth by dropping the
// oldest points.
#ifndef LMBENCHPP_SRC_DB_TREND_STORE_H_
#define LMBENCHPP_SRC_DB_TREND_STORE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/report/serialize.h"

namespace lmb::db {

// One stored observation of one metric.
struct TrendPoint {
  long seq = 0;        // store-wide run sequence number within the shard
  double value = 0.0;
};

// One metric's history within one benchmark, sequence-ascending.
struct TrendSeries {
  std::string host;   // shard name
  std::string bench;  // RunResult::name
  std::string key;    // Metric::key ("us", "copy_p2_mbs", ...)
  std::string unit;   // display unit of the newest point
  std::vector<TrendPoint> points;
};

// One appended batch, as recorded in the shard's run log.
struct TrendRun {
  long seq = 0;
  std::string system;
  double total_wall_ms = 0.0;
  int results = 0;  // benchmarks recorded from this batch
  // Provenance fields (obs::environment_fields name/value pairs) captured
  // with the batch; empty when the batch carried no snapshot.
  std::map<std::string, std::string> env;
};

class TrendStore {
 public:
  // Does not touch the filesystem; shards are created on first append.
  explicit TrendStore(std::string dir);

  // Appends every ok-status result of `batch` under the shard for its
  // system label, assigning the next sequence number.  Returns that
  // sequence number.  Throws std::runtime_error when the shard cannot be
  // created or written.
  long append(const report::ResultBatch& batch);

  // Shard names, sorted.  Empty when the store directory is missing.
  std::vector<std::string> hosts() const;

  // Benchmarks recorded under one shard, sorted.
  std::vector<std::string> benches(const std::string& host) const;

  // Run log for one shard, sequence-ascending.  Unparseable lines (torn
  // tail) are skipped.
  std::vector<TrendRun> runs(const std::string& host) const;

  // Every metric's history for one benchmark, key-sorted; each series'
  // points are sequence-ascending.  Unparseable lines are skipped.
  std::vector<TrendSeries> series(const std::string& host, const std::string& bench) const;

  // Every series in the whole shard (one call for the trend report).
  std::vector<TrendSeries> all_series(const std::string& host) const;

  // The newest complete run (its run-log line is on disk) recorded under
  // exactly this system label, as a batch: provenance as `environment`,
  // each benchmark's metrics and measurement.  The baseline run_suite
  // --baseline=DIR and lmbench_compare --baseline-dir gate against; nullopt
  // when the shard holds no run of that system.
  std::optional<report::ResultBatch> latest(const std::string& system) const;

  // Rewrites every shard file keeping only the newest `keep` runs per
  // benchmark (and the newest `keep` run-log lines).  Unparseable lines
  // are dropped in the process.
  void compact(size_t keep);

  // One-shot migration: imports a retired baseline directory's
  // `baseline-NNNNNN.json` files, oldest first, as successive appends,
  // skipping entries that fail to parse.  Returns the number imported.
  size_t import_baselines(const std::string& baseline_dir);

  const std::string& dir() const { return dir_; }

  // Filesystem-safe shard name for a system label ("Linux/x86_64 host" ->
  // "Linux-x86_64-host"); every byte outside [A-Za-z0-9._-] becomes '-'.
  static std::string shard_name(const std::string& system);

 private:
  std::string dir_;
};

}  // namespace lmb::db

#endif  // LMBENCHPP_SRC_DB_TREND_STORE_H_
