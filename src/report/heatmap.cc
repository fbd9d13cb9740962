#include "src/report/heatmap.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/report/json.h"

namespace lmb::report {

namespace {

double ns_to_us(double ns) { return ns / 1000.0; }

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

}  // namespace

std::uint64_t Heatmap::total_requests() const {
  std::uint64_t total = 0;
  for (const HeatmapWindow& w : windows) total += w.requests;
  return total;
}

std::uint64_t Heatmap::total_errors() const {
  std::uint64_t total = 0;
  for (const HeatmapWindow& w : windows) total += w.errors;
  return total;
}

Heatmap build_heatmap(const std::string& bench, const std::string& scenario,
                      const std::vector<obs::IntervalStats>& intervals, int max_columns) {
  if (max_columns < 1) {
    throw std::invalid_argument("build_heatmap: max_columns must be positive");
  }
  Heatmap map;
  map.bench = bench;
  map.scenario = scenario;
  if (intervals.empty()) {
    return map;
  }
  map.interval_ms =
      static_cast<double>(intervals.front().end - intervals.front().start) / 1e6;

  // Latency axis: the union of non-empty bucket ranges across all windows
  // (every window histogram shares one config, so indices are comparable).
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool any = false;
  for (const obs::IntervalStats& w : intervals) {
    if (w.hist.count() == 0) continue;
    auto [first, last] = w.hist.nonzero_range();
    if (!any) {
      lo = first;
      hi = last;
      any = true;
    } else {
      lo = std::min(lo, first);
      hi = std::max(hi, last);
    }
  }

  std::size_t cols = 0;
  std::vector<std::size_t> col_start;  // first bucket index of each column
  if (any) {
    const std::size_t span = hi - lo + 1;
    cols = std::min<std::size_t>(static_cast<std::size_t>(max_columns), span);
    const obs::LatencyHistogram& geom = intervals.front().hist;
    for (std::size_t g = 0; g < cols; ++g) {
      col_start.push_back(lo + g * span / cols);
      map.bounds_us.push_back(ns_to_us(static_cast<double>(geom.bucket_lower(col_start[g]))));
    }
    map.bounds_us.push_back(ns_to_us(static_cast<double>(geom.bucket_upper(hi))));
  }

  for (const obs::IntervalStats& w : intervals) {
    HeatmapWindow row;
    row.start_ms = static_cast<double>(w.start) / 1e6;
    row.end_ms = static_cast<double>(w.end) / 1e6;
    row.requests = w.requests;
    row.errors = w.errors;
    const double secs = static_cast<double>(w.end - w.start) / 1e9;
    row.rps = secs > 0 ? static_cast<double>(w.requests) / secs : 0.0;
    if (w.hist.count() > 0) {
      row.p50_us = ns_to_us(w.hist.percentile(50));
      row.p99_us = ns_to_us(w.hist.percentile(99));
    }
    row.counts.assign(cols, 0);
    for (std::size_t g = 0; g < cols; ++g) {
      const std::size_t first = col_start[g];
      const std::size_t last = g + 1 < cols ? col_start[g + 1] : hi + 1;
      for (std::size_t i = first; i < last; ++i) {
        row.counts[g] += w.hist.count_at(i);
      }
    }
    map.windows.push_back(std::move(row));
  }
  return map;
}

std::string render_heatmap(const Heatmap& map) {
  std::string out;
  out += "time x latency heatmap -- " + map.bench + "/" + map.scenario;
  out += " (" + fmt("%.0f", map.interval_ms) + " ms windows, " +
         std::to_string(map.windows.size()) + " windows";
  if (map.bounds_us.size() >= 2) {
    out += ", " + std::to_string(map.bounds_us.size() - 1) + " latency columns " +
           fmt("%.0f", map.bounds_us.front()) + "-" + fmt("%.0f", map.bounds_us.back()) + " us";
  }
  out += ")\n";
  if (map.windows.empty()) {
    out += "  (no interval windows recorded)\n";
    return out;
  }

  std::uint64_t max_cell = 0;
  for (const HeatmapWindow& w : map.windows) {
    for (std::uint64_t c : w.counts) max_cell = std::max(max_cell, c);
  }

  const std::size_t cols = map.bounds_us.empty() ? 0 : map.bounds_us.size() - 1;
  char head[128];
  std::snprintf(head, sizeof(head), "  %13s  %-*s %9s %10s %9s %9s\n", "window(ms)",
                static_cast<int>(cols) + 2, "latency ->", "req", "rps", "p50(us)", "p99(us)");
  out += head;

  // Shade on a log scale: a p999 outlier bucket holds orders of magnitude
  // fewer samples than the mode, and a linear ramp would render the entire
  // tail as blank.
  static const char* kShade[] = {" ", "░", "▒", "▓", "█"};
  for (const HeatmapWindow& w : map.windows) {
    char left[64];
    std::snprintf(left, sizeof(left), "  %6.0f-%-6.0f  ", w.start_ms, w.end_ms);
    out += left;
    out += "|";
    for (std::uint64_t c : w.counts) {
      if (c == 0 || max_cell == 0) {
        out += kShade[0];
        continue;
      }
      int level = 1 + static_cast<int>(3.0 * std::log1p(static_cast<double>(c)) /
                                       std::log1p(static_cast<double>(max_cell)));
      out += kShade[std::clamp(level, 1, 4)];
    }
    out += "|";
    char right[128];
    std::snprintf(right, sizeof(right), " %9llu %10.0f %9.1f %9.1f\n",
                  static_cast<unsigned long long>(w.requests), w.rps, w.p50_us, w.p99_us);
    out += right;
  }

  char total[160];
  std::snprintf(total, sizeof(total), "  total %llu requests, %llu errors\n",
                static_cast<unsigned long long>(map.total_requests()),
                static_cast<unsigned long long>(map.total_errors()));
  out += total;
  if (map.p50_us > 0) {
    out += "  aggregate hist p50/p99/p999 = " + fmt("%.1f", map.p50_us) + "/" +
           fmt("%.1f", map.p99_us) + "/" + fmt("%.1f", map.p999_us) + " us";
    if (map.raw_p50_us > 0) {
      out += "  (raw ref " + fmt("%.1f", map.raw_p50_us) + "/" + fmt("%.1f", map.raw_p99_us) +
             "/" + fmt("%.1f", map.raw_p999_us) + (map.raw_sampled ? " us, sampled)" : " us)");
    }
    out += "\n";
  }
  return out;
}

std::string heatmap_to_json(const Heatmap& map) {
  std::string out = "{\"schema\":\"lmbenchpp.heatmap.v1\"";
  out += ",\"bench\":" + json_quote(map.bench);
  out += ",\"scenario\":" + json_quote(map.scenario);
  out += ",\"interval_ms\":" + json_double(map.interval_ms);
  out += ",\"unit\":\"us\"";
  out += ",\"total_requests\":" + std::to_string(map.total_requests());
  out += ",\"bounds_us\":[";
  for (std::size_t i = 0; i < map.bounds_us.size(); ++i) {
    if (i > 0) out += ",";
    out += json_double(map.bounds_us[i]);
  }
  out += "]";
  out += ",\"check\":{\"p50_us\":" + json_double(map.p50_us);
  out += ",\"p99_us\":" + json_double(map.p99_us);
  out += ",\"p999_us\":" + json_double(map.p999_us);
  out += ",\"raw_p50_us\":" + json_double(map.raw_p50_us);
  out += ",\"raw_p99_us\":" + json_double(map.raw_p99_us);
  out += ",\"raw_p999_us\":" + json_double(map.raw_p999_us);
  out += ",\"raw_sampled\":";
  out += map.raw_sampled ? "true" : "false";
  out += "}";
  out += ",\"windows\":[";
  for (std::size_t i = 0; i < map.windows.size(); ++i) {
    const HeatmapWindow& w = map.windows[i];
    if (i > 0) out += ",";
    out += "{\"start_ms\":" + json_double(w.start_ms);
    out += ",\"end_ms\":" + json_double(w.end_ms);
    out += ",\"requests\":" + std::to_string(w.requests);
    out += ",\"errors\":" + std::to_string(w.errors);
    out += ",\"rps\":" + json_double(w.rps);
    out += ",\"p50_us\":" + json_double(w.p50_us);
    out += ",\"p99_us\":" + json_double(w.p99_us);
    out += ",\"counts\":[";
    for (std::size_t j = 0; j < w.counts.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(w.counts[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Heatmap heatmap_from_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonObject& obj = doc.object();
  const JsonValue* schema = find(obj, "schema");
  if (schema == nullptr || schema->str() != "lmbenchpp.heatmap.v1") {
    throw std::invalid_argument("heatmap_from_json: not a lmbenchpp.heatmap.v1 document");
  }
  Heatmap map;
  if (const JsonValue* v = find(obj, "bench")) map.bench = v->str();
  if (const JsonValue* v = find(obj, "scenario")) map.scenario = v->str();
  if (const JsonValue* v = find(obj, "interval_ms")) map.interval_ms = v->number();
  if (const JsonValue* v = find(obj, "bounds_us")) {
    for (const JsonValue& b : v->array()) map.bounds_us.push_back(b.number());
  }
  if (const JsonValue* v = find(obj, "check")) {
    const JsonObject& c = v->object();
    if (const JsonValue* x = find(c, "p50_us")) map.p50_us = x->number();
    if (const JsonValue* x = find(c, "p99_us")) map.p99_us = x->number();
    if (const JsonValue* x = find(c, "p999_us")) map.p999_us = x->number();
    if (const JsonValue* x = find(c, "raw_p50_us")) map.raw_p50_us = x->number();
    if (const JsonValue* x = find(c, "raw_p99_us")) map.raw_p99_us = x->number();
    if (const JsonValue* x = find(c, "raw_p999_us")) map.raw_p999_us = x->number();
    if (const JsonValue* x = find(c, "raw_sampled")) map.raw_sampled = x->boolean();
  }
  if (const JsonValue* v = find(obj, "windows")) {
    for (const JsonValue& wv : v->array()) {
      const JsonObject& wo = wv.object();
      HeatmapWindow w;
      if (const JsonValue* x = find(wo, "start_ms")) w.start_ms = x->number();
      if (const JsonValue* x = find(wo, "end_ms")) w.end_ms = x->number();
      if (const JsonValue* x = find(wo, "requests")) {
        w.requests = checked_integer<std::uint64_t>(*x, "requests");
      }
      if (const JsonValue* x = find(wo, "errors")) {
        w.errors = checked_integer<std::uint64_t>(*x, "errors");
      }
      if (const JsonValue* x = find(wo, "rps")) w.rps = x->number();
      if (const JsonValue* x = find(wo, "p50_us")) w.p50_us = x->number();
      if (const JsonValue* x = find(wo, "p99_us")) w.p99_us = x->number();
      if (const JsonValue* x = find(wo, "counts")) {
        for (const JsonValue& c : x->array()) {
          w.counts.push_back(checked_integer<std::uint64_t>(c, "counts"));
        }
      }
      map.windows.push_back(std::move(w));
    }
  }
  return map;
}

}  // namespace lmb::report
