// Persistence for the calibration cache: one small JSON document.
//
//   {"schema": "lmbenchpp.calcache.v1",
//    "host": "<host-signature>",          // src/core/env.h
//    "iterations": {"<cache-key>": n, ...},
//    "wall_ms": {"<bench>": ms, ...}}
//
// `iterations` maps each CalibrationCache key to its calibrated iteration
// count.  Keys follow the `<name>#<seq>@<min_interval_ns>` structure of
// src/core/cal_cache.h; the min_interval after the final '@' must be
// positive for an entry to load.  `wall_ms` holds whole-benchmark wall
// clock in ms, for the runner's longest-expected-first scheduling.
//
// Host binding is wholesale: a file written on a different host (or after a
// kernel upgrade / CPU change) fails the signature check and loads nothing,
// forcing clean recalibration rather than importing another machine's
// iteration counts.
#ifndef LMBENCHPP_SRC_DB_CAL_STORE_H_
#define LMBENCHPP_SRC_DB_CAL_STORE_H_

#include <string>

#include "src/core/cal_cache.h"

namespace lmb::db {

// Schema identifier of the calibration-cache document.
inline constexpr const char* kCalCacheSchema = "lmbenchpp.calcache.v1";

// Loads persisted calibration state from `path` into `cache`.  Returns the
// number of entries loaded (iteration counts + wall-clock records); 0 when
// the file is missing, unreadable, malformed, of another schema, or was
// written under a different host signature (all of which mean "cold
// cache", never an error).  An entry whose value is unusable (an iteration
// count outside [1, 2^64), a negative wall clock, null, a string) is
// skipped on its own.
size_t load_calibration_cache(const std::string& path, const std::string& host_sig,
                              CalibrationCache& cache);

// Writes `cache` to `path` as the whole file, replacing whatever was there.
// Throws std::runtime_error when the file cannot be written.
void save_calibration_cache(const std::string& path, const std::string& host_sig,
                            const CalibrationCache& cache);

}  // namespace lmb::db

#endif  // LMBENCHPP_SRC_DB_CAL_STORE_H_
