#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

namespace perfbench {

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

TimingLayers fold_timing_events(const std::vector<lmb::obs::TraceEvent>& events) {
  TimingLayers t;
  std::int64_t calib = 0, warmup = 0, rep = 0, measure = 0, bench = 0, suite_run = 0;
  int reps = 0, measures = 0, early_stops = 0;
  for (const lmb::obs::TraceEvent& e : events) {
    if (e.dur < 0) {
      if (e.cat == "timing" && e.name == "early_stop") {
        ++early_stops;
      }
      continue;
    }
    if (e.cat == "calibration" && (e.name == "probe" || e.name == "cache_probe")) {
      calib += e.dur;
    } else if (e.cat == "timing" && e.name == "warmup") {
      warmup += e.dur;
    } else if (e.cat == "timing" && e.name == "rep") {
      rep += e.dur;
      ++reps;
    } else if (e.cat == "timing" && e.name == "measure") {
      measure += e.dur;
      ++measures;
    } else if (e.cat == "suite" && e.name == "run") {
      suite_run += e.dur;
    } else if (e.cat == "suite") {
      bench += e.dur;
    }
  }
  t.calib_ms = ms(calib);
  t.warmup_ms = ms(warmup);
  t.rep_ms = ms(rep);
  t.bench_ms = ms(bench);
  t.bench_self_ms = ms(bench - measure);
  t.suite_run_ms = ms(suite_run);
  if (measures > 0) {
    t.reps_per_measure = static_cast<double>(reps) / measures;
    t.early_stop_ratio = static_cast<double>(early_stops) / measures;
  }
  if (measure > 0) {
    t.useful_ratio = static_cast<double>(rep) / static_cast<double>(measure);
  }
  return t;
}

std::int64_t anchor_offset(const SpanRecorder& rec, const std::vector<lmb::obs::TraceEvent>& events,
                           const std::vector<std::pair<std::string, std::uint64_t>>& bench_spans) {
  if (bench_spans.empty()) {
    return 0;
  }
  const auto& [anchor, anchor_span] = bench_spans.front();
  for (const lmb::obs::TraceEvent& e : events) {
    if (e.cat == "suite" && e.name == anchor && e.dur >= 0) {
      return rec.get(anchor_span).start_ns - e.ts;
    }
  }
  return 0;
}

void fold_into_spans(SpanRecorder& rec, const std::vector<lmb::obs::TraceEvent>& events,
                     const std::vector<std::pair<std::string, std::uint64_t>>& bench_spans,
                     std::uint64_t parent, std::uint64_t pass, std::int64_t offset) {
  const std::map<std::string, std::uint64_t> parent_of(bench_spans.begin(), bench_spans.end());
  for (const lmb::obs::TraceEvent& e : events) {
    Span s;
    // The runner's per-benchmark span has no owning benchmark, only its name.
    auto it = parent_of.find(e.bench.empty() && e.cat == "suite" ? e.name : e.bench);
    s.parent = it != parent_of.end() ? it->second : parent;
    s.pass = pass;
    s.cat = "program." + e.cat;
    s.name = e.name;
    s.start_ns = e.ts + offset;
    s.end_ns = s.start_ns + std::max<std::int64_t>(e.dur, 0);
    s.args = e.args;
    rec.add(std::move(s));
  }
}

double window_rps_cv(const std::vector<lmb::obs::IntervalStats>& windows) {
  std::vector<double> rates;
  for (size_t i = 0; i + 1 < windows.size(); ++i) {
    const lmb::obs::IntervalStats& w = windows[i];
    if (w.end > w.start) {
      rates.push_back(static_cast<double>(w.requests) * 1e9 / static_cast<double>(w.end - w.start));
    }
  }
  if (rates.size() < 2) {
    return 0;
  }
  double mean = 0;
  for (double r : rates) {
    mean += r;
  }
  mean /= static_cast<double>(rates.size());
  double var = 0;
  for (double r : rates) {
    var += (r - mean) * (r - mean);
  }
  var /= static_cast<double>(rates.size() - 1);
  return mean > 0 ? std::sqrt(var) / mean : 0;
}

double max_window_p99_us(const std::vector<lmb::obs::IntervalStats>& windows) {
  double worst = 0;
  for (const lmb::obs::IntervalStats& w : windows) {
    if (w.hist.count() > 0) {
      worst = std::max(worst, w.hist.percentile(99) / 1000.0);
    }
  }
  return worst;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
