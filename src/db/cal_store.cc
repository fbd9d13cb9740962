#include "src/db/cal_store.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "src/report/json.h"
#include "src/sys/fdio.h"

namespace lmb::db {

namespace {

// The cache key embeds the min_interval after the final '@'
// (see CalibrationScope::next_key); recover it for the CalEntry.
Nanos min_interval_of(const std::string& cache_key) {
  size_t at = cache_key.rfind('@');
  if (at == std::string::npos || at + 1 >= cache_key.size()) {
    return 0;
  }
  try {
    return static_cast<Nanos>(std::stoll(cache_key.substr(at + 1)));
  } catch (const std::exception&) {
    return 0;
  }
}

// Member `key` of `obj` as a T; nullptr when absent or of another type.
template <typename T>
const T* member(const report::JsonObject& obj, const char* key) {
  const report::JsonValue* v = report::find(obj, key);
  return v != nullptr ? std::get_if<T>(&v->v) : nullptr;
}

}  // namespace

size_t load_calibration_cache(const std::string& path, const std::string& host_sig,
                              CalibrationCache& cache) {
  report::JsonValue doc;
  const report::JsonObject* root = nullptr;
  try {
    doc = report::parse_json(sys::read_file(path));
    root = &doc.object();
  } catch (const std::exception&) {
    return 0;  // missing or malformed file == cold cache
  }
  const std::string* schema = member<std::string>(*root, "schema");
  const std::string* host = member<std::string>(*root, "host");
  if (schema == nullptr || *schema != kCalCacheSchema || host == nullptr || *host != host_sig) {
    return 0;  // another format, or written under a different host signature
  }
  size_t loaded = 0;
  if (const auto* iterations = member<report::JsonObject>(*root, "iterations")) {
    for (const auto& [key, value] : *iterations) {
      Nanos min_interval = min_interval_of(key);
      const double* n = std::get_if<double>(&value.v);
      // The cast to uint64_t is defined only for a finite n in [1, 2^64);
      // NaN fails both comparisons.
      if (min_interval > 0 && n != nullptr && *n >= 1.0 && *n < 18446744073709551616.0) {
        cache.put(key, CalEntry{static_cast<std::uint64_t>(*n), min_interval});
        ++loaded;
      }
    }
  }
  if (const auto* wall = member<report::JsonObject>(*root, "wall_ms")) {
    for (const auto& [bench, value] : *wall) {
      const double* ms = std::get_if<double>(&value.v);
      if (!bench.empty() && ms != nullptr && std::isfinite(*ms) && *ms >= 0) {
        cache.record_wall_ms(bench, *ms);
        ++loaded;
      }
    }
  }
  return loaded;
}

void save_calibration_cache(const std::string& path, const std::string& host_sig,
                            const CalibrationCache& cache) {
  std::string out = "{\"schema\":" + report::json_quote(kCalCacheSchema) +
                    ",\"host\":" + report::json_quote(host_sig) + ",\"iterations\":{";
  bool first = true;
  for (const auto& [cache_key, entry] : cache.entries()) {
    out += first ? "" : ",";
    first = false;
    out += report::json_quote(cache_key) + ":" + std::to_string(entry.iterations);
  }
  out += "},\"wall_ms\":{";
  first = true;
  for (const auto& [bench, ms] : cache.wall_ms()) {
    out += first ? "" : ",";
    first = false;
    out += report::json_quote(bench) + ":" + report::json_double(ms);
  }
  out += "}}\n";
  sys::write_file(path, out);
}

}  // namespace lmb::db
