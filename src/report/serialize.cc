#include "src/report/serialize.h"

#include <cmath>
#include <cstdio>

#include "src/report/json.h"

namespace lmb::report {

namespace {

std::string json_string(const std::string& s) { return json_quote(s); }

std::string json_number(double v) { return json_double(v); }

// Appends {"name": value, ...}: one field per line below `indent`, or all on
// one line when `indent` is empty.
void append_object(std::string& out,
                   const std::vector<std::pair<const char*, std::string>>& fields,
                   const std::string& indent) {
  for (size_t i = 0; i < fields.size(); ++i) {
    out += i == 0 ? "{" : ",";
    out += indent.empty() ? "" : "\n" + indent + "  ";
    out += json_string(fields[i].first) + (indent.empty() ? ":" : ": ") + fields[i].second;
  }
  out += indent.empty() ? "}" : "\n" + indent + "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// The measurement object

void append_measurement_json(std::string& out, const Measurement& m,
                             const std::string& indent) {
  std::string samples = "[";
  for (double s : m.sample.values()) {
    samples += (samples.size() > 1 ? ", " : "") + json_number(s);
  }
  // Counter-derived ratios are ALWAYS present per measurement: null — never
  // 0 — when sampling was off or perf_event_open unavailable.
  const obs::CounterTotals* ct = m.counters.has_value() ? &*m.counters : nullptr;
  std::string counters;
  if (ct != nullptr) {
    append_object(counters,
                  {{"intervals", std::to_string(ct->intervals)},
                   {"cycles", json_number(ct->cycles)},
                   {"instructions", json_number(ct->instructions)},
                   {"cache_refs", ct->has_cache ? json_number(ct->cache_refs) : "null"},
                   {"cache_misses", ct->has_cache ? json_number(ct->cache_misses) : "null"},
                   {"ctx_switches", ct->has_ctx ? json_number(ct->ctx_switches) : "null"},
                   {"multiplexed", ct->multiplexed ? "true" : "false"}},
                  indent.empty() ? "" : indent + "  ");
  }
  append_object(
      out,
      {{"ns_per_op", json_number(m.ns_per_op)},
       {"mean_ns_per_op", json_number(m.mean_ns_per_op)},
       {"median_ns_per_op", json_number(m.median_ns_per_op)},
       {"max_ns_per_op", json_number(m.max_ns_per_op)},
       // Variability detail for noise-aware comparison (lmbench_compare):
       // the per-repetition sample and its spread.
       {"stddev_ns_per_op", m.sample.count() >= 2 ? json_number(m.sample.stddev()) : "null"},
       {"samples", samples + "]"},
       {"iterations", std::to_string(m.iterations)},
       {"repetitions", std::to_string(m.repetitions)},
       {"clock_overhead_ns", std::to_string(m.clock_overhead_ns)},
       // Time-source provenance: which clock produced the intervals.
       {"clock_source", m.clock_source.empty() ? "null" : json_string(m.clock_source)},
       {"converged", m.converged ? "true" : "false"},
       {"calibration_cached", m.calibration_cached ? "true" : "false"},
       {"ipc", ct != nullptr ? json_number(ct->ipc()) : "null"},
       {"cache_miss_rate", ct != nullptr ? json_number(ct->cache_miss_rate()) : "null"},
       {"counters", counters.empty() ? "null" : counters}},
      indent);
}

namespace {

Measurement measurement_from_json(const JsonValue& value) {
  const JsonObject& mo = value.object();
  Measurement m;
  if (const JsonValue* f = find(mo, "ns_per_op")) m.ns_per_op = number_or_nan(*f);
  if (const JsonValue* f = find(mo, "mean_ns_per_op")) m.mean_ns_per_op = number_or_nan(*f);
  if (const JsonValue* f = find(mo, "median_ns_per_op")) {
    m.median_ns_per_op = number_or_nan(*f);
  }
  if (const JsonValue* f = find(mo, "max_ns_per_op")) m.max_ns_per_op = number_or_nan(*f);
  if (const JsonValue* f = find(mo, "samples"); f != nullptr && !f->is_null()) {
    for (const JsonValue& sv : f->array()) {
      m.sample.add(number_or_nan(sv));
    }
  }
  if (const JsonValue* f = find(mo, "iterations")) {
    m.iterations = checked_integer<std::uint64_t>(*f, "iterations");
  }
  if (const JsonValue* f = find(mo, "repetitions")) {
    m.repetitions = checked_integer<int>(*f, "repetitions");
  }
  if (const JsonValue* f = find(mo, "clock_overhead_ns")) {
    m.clock_overhead_ns = checked_integer<Nanos>(*f, "clock_overhead_ns");
  }
  if (const JsonValue* f = find(mo, "clock_source"); f != nullptr && !f->is_null()) {
    m.clock_source = f->str();
  }
  if (const JsonValue* f = find(mo, "converged")) m.converged = f->boolean();
  if (const JsonValue* f = find(mo, "calibration_cached")) {
    m.calibration_cached = f->boolean();
  }
  if (const JsonValue* f = find(mo, "counters"); f != nullptr && !f->is_null()) {
    const JsonObject& co = f->object();
    obs::CounterTotals ct;
    if (const JsonValue* g = find(co, "intervals")) {
      ct.intervals = checked_integer<int>(*g, "intervals");
    }
    if (const JsonValue* g = find(co, "cycles")) ct.cycles = number_or_nan(*g);
    if (const JsonValue* g = find(co, "instructions")) {
      ct.instructions = number_or_nan(*g);
    }
    // Null cache/ctx cells mean those counters never opened; the flags
    // record that so re-serialization emits nulls again, not zeros.
    if (const JsonValue* g = find(co, "cache_refs"); g != nullptr && !g->is_null()) {
      ct.cache_refs = g->number();
      ct.has_cache = true;
    }
    if (const JsonValue* g = find(co, "cache_misses"); g != nullptr && !g->is_null()) {
      ct.cache_misses = g->number();
    }
    if (const JsonValue* g = find(co, "ctx_switches"); g != nullptr && !g->is_null()) {
      ct.ctx_switches = g->number();
      ct.has_ctx = true;
    }
    if (const JsonValue* g = find(co, "multiplexed")) ct.multiplexed = g->boolean();
    m.counters = ct;
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// JSON emission

std::string to_json(const ResultBatch& batch) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": " + json_string(kResultSchema) + ",\n";
  out += "  \"system\": " + json_string(batch.system) + ",\n";
  if (batch.environment.has_value() && !batch.environment->empty()) {
    out += "  \"environment\": {\n";
    for (const obs::EnvField& f : obs::environment_fields(*batch.environment)) {
      out += "    " + json_string(f.name) + ": " + json_string(f.value) + ",\n";
    }
    out += "    \"warnings\": [";
    bool first_warning = true;
    for (const std::string& w : batch.environment->warnings) {
      out += first_warning ? "" : ", ";
      first_warning = false;
      out += json_string(w);
    }
    out += "]\n";
    out += "  },\n";
  } else {
    out += "  \"environment\": null,\n";
  }
  if (batch.timing.has_value()) {
    const SuiteTiming& t = *batch.timing;
    out += "  \"timing\": {\n";
    out += "    \"total_wall_ms\": " + json_number(t.total_wall_ms) + ",\n";
    out += "    \"jobs\": " + std::to_string(t.jobs) + ",\n";
    out += std::string("    \"cal_cache\": ") + (t.cal_cache ? "true" : "false") + ",\n";
    out += "    \"cal_hits\": " + std::to_string(t.cal_hits) + ",\n";
    out += "    \"cal_misses\": " + std::to_string(t.cal_misses) + "\n";
    out += "  },\n";
  } else {
    out += "  \"timing\": null,\n";
  }
  out += "  \"results\": [";
  bool first_result = true;
  for (const RunResult& r : batch.results) {
    out += first_result ? "\n" : ",\n";
    first_result = false;
    std::string metrics = "[";
    for (const Metric& m : r.metrics) {
      metrics += (metrics.size() > 1 ? ",\n" : "\n") + std::string(8, ' ') + "{\"key\": " +
                 json_string(m.key) + ", \"value\": " + json_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::string measurement;
    if (r.measurement.has_value()) {
      append_measurement_json(measurement, *r.measurement, "      ");
    }
    std::string metadata;
    for (const auto& [key, value] : r.metadata) {
      metadata += (metadata.empty() ? "" : ", ") + json_string(key) + ": " + json_string(value);
    }
    out += "    ";
    append_object(out,
                  {{"name", json_string(r.name)},
                   {"category", json_string(r.category)},
                   {"status", json_string(run_status_name(r.status))},
                   {"error", r.error.empty() ? "null" : json_string(r.error)},
                   {"wall_ms", r.wall_ms > 0 ? json_number(r.wall_ms) : "null"},
                   {"display", r.display.empty() ? "null" : json_string(r.display)},
                   {"metrics", metrics + (r.metrics.empty() ? "]" : "\n      ]")},
                   {"measurement", measurement.empty() ? "null" : measurement},
                   {"metadata", "{" + metadata + "}"}},
                  "    ");
  }
  out += batch.results.empty() ? "],\n" : "\n  ],\n";
  out += "  \"count\": " + std::to_string(batch.results.size()) + "\n";
  out += "}\n";
  return out;
}

RunResult result_from_json(const JsonValue& entry) {
  const JsonObject& obj = entry.object();
  RunResult r;
  if (const JsonValue* v = find(obj, "name")) r.name = v->str();
  if (const JsonValue* v = find(obj, "category")) r.category = v->str();
  if (const JsonValue* v = find(obj, "status")) r.status = run_status_from_name(v->str());
  if (const JsonValue* v = find(obj, "error"); v != nullptr && !v->is_null()) {
    r.error = v->str();
  }
  if (const JsonValue* v = find(obj, "wall_ms"); v != nullptr && !v->is_null()) {
    r.wall_ms = v->number();
  }
  if (const JsonValue* v = find(obj, "display"); v != nullptr && !v->is_null()) {
    r.display = v->str();
  }
  if (const JsonValue* v = find(obj, "metrics")) {
    for (const JsonValue& mv : v->array()) {
      const JsonObject& mo = mv.object();
      Metric m;
      if (const JsonValue* f = find(mo, "key")) m.key = f->str();
      if (const JsonValue* f = find(mo, "value")) m.value = number_or_nan(*f);
      if (const JsonValue* f = find(mo, "unit")) m.unit = f->str();
      r.metrics.push_back(std::move(m));
    }
  }
  if (const JsonValue* v = find(obj, "measurement"); v != nullptr && !v->is_null()) {
    r.measurement = measurement_from_json(*v);
  }
  if (const JsonValue* v = find(obj, "metadata"); v != nullptr && !v->is_null()) {
    for (const auto& [key, value] : v->object()) {
      r.metadata[key] = value.str();
    }
  }
  return r;
}

ResultBatch from_json(const std::string& text) {
  JsonValue root = parse_json(text);
  const JsonObject& doc = root.object();

  const JsonValue* schema = find(doc, "schema");
  if (schema == nullptr || schema->str() != kResultSchema) {
    throw std::invalid_argument("json: missing or unknown schema (want " +
                                std::string(kResultSchema) + ")");
  }

  ResultBatch batch;
  if (const JsonValue* system = find(doc, "system"); system != nullptr && !system->is_null()) {
    batch.system = system->str();
  }
  if (const JsonValue* env = find(doc, "environment"); env != nullptr && !env->is_null()) {
    obs::RunEnvironment e;
    for (const auto& [key, value] : env->object()) {
      if (key == "warnings") {
        for (const JsonValue& w : value.array()) {
          e.warnings.push_back(w.str());
        }
      } else if (!value.is_null()) {
        obs::set_environment_field(e, key, value.str());
      }
    }
    batch.environment = std::move(e);
  }
  if (const JsonValue* timing = find(doc, "timing"); timing != nullptr && !timing->is_null()) {
    const JsonObject& to = timing->object();
    SuiteTiming t;
    if (const JsonValue* f = find(to, "total_wall_ms")) t.total_wall_ms = f->number();
    if (const JsonValue* f = find(to, "jobs")) t.jobs = checked_integer<int>(*f, "jobs");
    if (const JsonValue* f = find(to, "cal_cache")) t.cal_cache = f->boolean();
    if (const JsonValue* f = find(to, "cal_hits")) {
      t.cal_hits = checked_integer<int>(*f, "cal_hits");
    }
    if (const JsonValue* f = find(to, "cal_misses")) {
      t.cal_misses = checked_integer<int>(*f, "cal_misses");
    }
    batch.timing = t;
  }
  const JsonValue* results = find(doc, "results");
  if (results == nullptr) {
    throw std::invalid_argument("json: missing results array");
  }
  for (const JsonValue& entry : results->array()) {
    batch.results.push_back(result_from_json(entry));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// CSV emission

namespace {

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += "\"";
  return out;
}

// A CSV numeric cell: like JSON, a non-finite double is "explicitly
// missing" — a blank cell, not the literal text "nan"/"null".
std::string csv_number(double v) { return std::isfinite(v) ? json_number(v) : std::string(); }

}  // namespace

std::string to_csv(const std::vector<RunResult>& results, const SuiteTiming* timing) {
  std::string out = "name,category,status,wall_ms,metric,value,unit,error\n";
  for (const RunResult& r : results) {
    std::string prefix = csv_field(r.name) + "," + csv_field(r.category) + "," +
                         run_status_name(r.status) + "," +
                         (r.wall_ms > 0 ? csv_number(r.wall_ms) : "") + ",";
    std::string error = csv_field(r.error);
    if (r.metrics.empty()) {
      // Explicitly blank metric/value/unit cells — absence, not zero.
      out += prefix + ",,," + error + "\n";
      continue;
    }
    for (const Metric& m : r.metrics) {
      out += prefix + csv_field(m.key) + "," + csv_number(m.value) + "," + csv_field(m.unit) +
             "," + error + "\n";
    }
  }
  if (timing != nullptr) {
    out += "__suite__,suite,ok," + json_number(timing->total_wall_ms) + ",total_wall_ms," +
           json_number(timing->total_wall_ms) + ",ms,\n";
  }
  return out;
}

}  // namespace lmb::report
