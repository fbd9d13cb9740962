// Calibration memoization: remember the iteration counts the geometric
// calibration ramp discovered, so later runs (same process or, persisted
// as a lmbenchpp.calcache.v1 file by src/db/cal_store, a later process on
// the same host) skip straight to a single validation probe.
//
// Key structure: each measure() call inside a benchmark gets a key of the
// form `<bench>#<seq>@<min_interval_ns>` — the benchmark name comes from the
// enclosing CalibrationScope (set by the SuiteRunner), the sequence number
// is the ordinal of the measure() call within one benchmark invocation
// (stable for deterministic benchmark bodies; a changed body simply misses),
// and the policy's min_interval is embedded so a policy change can never
// reuse a count calibrated for a different interval; persistence loads an
// entry only when that min_interval is positive.  Host identity is NOT part
// of the key — persistence (src/db/cal_store) stores the host signature
// alongside the whole set and discards the set wholesale on mismatch.
//
// A cached count is never trusted blindly: measure() re-times one interval
// at the cached count and recalibrates, starting from the rate that probe
// shows, when it no longer spans min_interval (thermal drift, migration,
// contention) or spans more than 2 x min_interval (the same key used for a
// larger workload, e.g. lat_mem_rd at another --size; a 1-iteration count,
// which cannot shrink, is exempt).  A long probe is kept as repetition 1.
#ifndef LMBENCHPP_SRC_CORE_CAL_CACHE_H_
#define LMBENCHPP_SRC_CORE_CAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/core/clock.h"

namespace lmb {

// One remembered calibration: the iteration count and the interval it was
// calibrated against.
struct CalEntry {
  std::uint64_t iterations = 0;
  Nanos min_interval = 0;
};

// Thread-safe store of calibration results plus per-benchmark wall-clock
// expectations (used by the SuiteRunner for longest-expected-first
// scheduling).  Shared by concurrent suite workers.
class CalibrationCache {
 public:
  std::optional<CalEntry> find(const std::string& key) const;
  void put(const std::string& key, CalEntry entry);

  // Expected wall-clock of one whole benchmark, from a previous run.
  std::optional<double> expected_wall_ms(const std::string& bench) const;
  void record_wall_ms(const std::string& bench, double ms);

  // Snapshots for persistence.
  std::map<std::string, CalEntry> entries() const;
  std::map<std::string, double> wall_ms() const;

  size_t size() const;

  // Process-lifetime counters, aggregated across every scope that used this
  // cache.  A "hit" is a cached count that validated; a miss is absent,
  // mismatched, or drifted.
  int hits() const { return hits_.load(); }
  int misses() const { return misses_.load(); }
  void count_hit() { hits_.fetch_add(1); }
  void count_miss() { misses_.fetch_add(1); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, CalEntry> entries_;
  std::map<std::string, double> wall_ms_;
  std::atomic<int> hits_{0};
  std::atomic<int> misses_{0};
};

// RAII thread-local context naming the benchmark currently measuring, and
// the cache its calibrations go to.  measure() consults the innermost scope
// on its thread; no scope (or a null cache) means calibration memoization is
// off, which is the behavior of every direct measure() call outside the
// suite.  Scopes nest (a benchmark invoking another benchmark re-keys under
// its own name) and are strictly per-thread.
class CalibrationScope {
 public:
  CalibrationScope(CalibrationCache* cache, std::string bench_name);
  ~CalibrationScope();

  CalibrationScope(const CalibrationScope&) = delete;
  CalibrationScope& operator=(const CalibrationScope&) = delete;

  // Innermost scope on the calling thread; nullptr outside any scope.
  static CalibrationScope* current();

  CalibrationCache* cache() const { return cache_; }

  // Key for the next measure() call in this scope (advances the ordinal).
  std::string next_key(Nanos min_interval);

  void note_hit();
  void note_miss();

  // This scope's own counts (the cache accumulates across scopes).
  int hits() const { return hits_; }
  int misses() const { return misses_; }

 private:
  CalibrationCache* cache_;
  std::string bench_;
  int seq_ = 0;
  int hits_ = 0;
  int misses_ = 0;
  CalibrationScope* prev_;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_CAL_CACHE_H_
