// Machine-readable emitters for RunResult batches.
//
// `lmbenchpp.results.v1` JSON is the one results format: every tool reads
// and writes it, and the trend store (src/db/trend_store.h) keeps its
// per-benchmark parts as history.  CSV is the spreadsheet view.  Both are lossless about *absence* — a failed
// benchmark's missing metrics serialize as JSON null / empty CSV cells,
// never as 0 (a 0 is a measurement; a blank is the lack of one).
#ifndef LMBENCHPP_SRC_REPORT_SERIALIZE_H_
#define LMBENCHPP_SRC_REPORT_SERIALIZE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/run_result.h"
#include "src/obs/run_env.h"

namespace lmb::report {

// Whole-suite timing summary: total wall clock plus how the adaptive
// engine behaved (worker count, calibration-cache hit/miss totals).
struct SuiteTiming {
  double total_wall_ms = 0.0;
  int jobs = 1;
  bool cal_cache = false;  // was a calibration cache in use at all
  int cal_hits = 0;
  int cal_misses = 0;
};

// One suite invocation's output: where it ran plus what it produced.
struct ResultBatch {
  std::string system;  // host label, e.g. from SystemInfo::label()
  std::vector<RunResult> results;
  // Suite-level timing block; absent for batches not produced by a full
  // suite run (serializes as JSON null).
  std::optional<SuiteTiming> timing;
  // Run-provenance snapshot (src/obs/run_env.h) captured when the batch
  // ran; absent for batches from producers that never captured one
  // (serializes as JSON null).  lmbench_compare diffs this block between
  // baseline and current so a config change is never mistaken for a code
  // change.
  std::optional<obs::RunEnvironment> environment;
};

// Schema identifier embedded in every JSON document.
inline constexpr const char* kResultSchema = "lmbenchpp.results.v1";

// Pretty-printed JSON document (2-space indent, trailing newline).
// Field names are stable: schema, system, environment ({fields...,
// warnings[]} — null when absent), timing (total_wall_ms, jobs, cal_cache,
// cal_hits, cal_misses — null when absent), results[], and per result name,
// category, status, error, wall_ms, display, metrics[] (key, value, unit),
// measurement (ns_per_op, mean_ns_per_op, median_ns_per_op, max_ns_per_op,
// stddev_ns_per_op, samples[], iterations, repetitions, clock_overhead_ns,
// clock_source, converged, calibration_cached, ipc, cache_miss_rate,
// counters), metadata{}.
// clock_source names the time source that produced the intervals ("wall",
// "tsc", ...; null in legacy documents).  The reader ignores keys it does
// not know, so older documents carrying since-removed fields still parse.
// Every measurement carries ipc and cache_miss_rate keys; they are null —
// never 0 — when hardware counters were off or unavailable, and the counters
// object (intervals, cycles, instructions, cache_refs, cache_misses,
// ctx_switches, multiplexed) is null as a whole in that case.
//
// Numbers are emitted with std::to_chars (shortest round-trippable form,
// locale-independent).  JSON has no NaN/Inf: non-finite doubles serialize
// as null and parse back as NaN — explicitly missing, never 0.
std::string to_json(const ResultBatch& batch);

// Parses a document produced by to_json (any JSON with that shape works).
// Throws std::invalid_argument on malformed input or schema mismatch.
ResultBatch from_json(const std::string& text);

// The results.v1 `measurement` object on its own, shared by to_json and the
// trend store's per-benchmark records.  `indent` is the indentation of the
// line the object starts on: non-empty pretty-prints one field per line
// below it, empty writes the whole object on one line.
void append_measurement_json(std::string& out, const Measurement& m,
                             const std::string& indent);

struct JsonValue;  // src/report/json.h

// Parses one results[] entry, or any object with some of its fields (the
// trend store's records).  Throws std::invalid_argument on wrong types.
RunResult result_from_json(const JsonValue& entry);

// CSV with header `name,category,status,wall_ms,metric,value,unit,error`:
// one row per metric, one row (blank metric/value/unit) for results
// without metrics.  RFC-4180 quoting.  When `timing` is non-null a final
// `__suite__` row carries the total wall clock (metric total_wall_ms).
std::string to_csv(const std::vector<RunResult>& results,
                   const SuiteTiming* timing = nullptr);

// The low-level JSON helpers (json_quote, json_double, the parser) live in
// src/report/json.h, shared by every reader/writer in this module.

}  // namespace lmb::report

#endif  // LMBENCHPP_SRC_REPORT_SERIALIZE_H_
