#include "perfbench/checks.h"

#include <cmath>
#include <map>

namespace perfbench {

using lmb::RunResult;
using lmb::report::ResultBatch;

Failures check_suite_batch(const ResultBatch& batch,
                           const std::vector<std::string>& expected_names) {
  Failures f;
  std::map<std::string, int> seen;
  for (const RunResult& r : batch.results) {
    ++seen[r.name];
    if (!r.ok()) {
      f.push_back(r.name + ": status " + lmb::run_status_name(r.status) + " (" + r.error + ")");
      continue;
    }
    if (r.metrics.empty()) {
      f.push_back(r.name + ": no metrics");
    }
    for (const lmb::Metric& m : r.metrics) {
      if (!std::isfinite(m.value) || m.value <= 0) {
        f.push_back(r.name + ": metric " + m.key + " = " + std::to_string(m.value) +
                    " is not finite and > 0");
      }
    }
  }
  for (const std::string& name : expected_names) {
    if (seen[name] != 1) {
      f.push_back(name + ": ran " + std::to_string(seen[name]) + " times, expected once");
    }
  }
  if (batch.results.size() != expected_names.size()) {
    f.push_back("batch has " + std::to_string(batch.results.size()) + " results, expected " +
                std::to_string(expected_names.size()));
  }
  return f;
}

Failures check_round_trip(const ResultBatch& original, const ResultBatch& parsed) {
  Failures f;
  if (parsed.system != original.system) {
    f.push_back("round trip: system label changed");
  }
  if (parsed.timing.has_value() != original.timing.has_value() ||
      (original.timing.has_value() &&
       (parsed.timing->total_wall_ms != original.timing->total_wall_ms ||
        parsed.timing->cal_hits != original.timing->cal_hits ||
        parsed.timing->cal_misses != original.timing->cal_misses))) {
    f.push_back("round trip: timing block changed");
  }
  if (parsed.results.size() != original.results.size()) {
    f.push_back("round trip: " + std::to_string(original.results.size()) + " results became " +
                std::to_string(parsed.results.size()));
    return f;
  }
  for (size_t i = 0; i < original.results.size(); ++i) {
    const RunResult& a = original.results[i];
    const RunResult& b = parsed.results[i];
    const std::string where = "round trip: result " + std::to_string(i) + " (" + a.name + ")";
    if (a.name != b.name || a.category != b.category || a.status != b.status ||
        a.error != b.error) {
      f.push_back(where + ": identity or status changed");
    }
    if (a.wall_ms != b.wall_ms) {
      f.push_back(where + ": wall_ms changed");
    }
    if (a.metadata != b.metadata) {
      f.push_back(where + ": metadata changed");
    }
    if (a.metrics.size() != b.metrics.size()) {
      f.push_back(where + ": metric count changed");
      continue;
    }
    for (size_t m = 0; m < a.metrics.size(); ++m) {
      if (a.metrics[m].key != b.metrics[m].key || a.metrics[m].unit != b.metrics[m].unit ||
          a.metrics[m].value != b.metrics[m].value) {
        f.push_back(where + ": metric " + a.metrics[m].key + " changed");
      }
    }
  }
  return f;
}

Failures check_load_result(const lmb::lat::LoadResult& r, const LoadExpect& expect) {
  Failures f;
  if (r.errors != 0) {
    f.push_back("load: " + std::to_string(r.errors) + " connections lost");
  }
  if (r.connections != expect.connections) {
    f.push_back("load: " + std::to_string(r.connections) + " of " +
                std::to_string(expect.connections) + " connections established");
  }
  if (r.requests < expect.requests || r.requests != r.total_requests) {
    f.push_back("load: " + std::to_string(r.requests) + " requests in the window, " +
                std::to_string(r.total_requests) + " in total, expected " +
                std::to_string(expect.requests) + " all measured");
  }
  if (expect.echo && r.bytes_received != r.bytes_sent) {
    f.push_back("load: echo received " + std::to_string(r.bytes_received) + " bytes but sent " +
                std::to_string(r.bytes_sent));
  }
  if (r.rtt_hist.count() != r.requests) {
    f.push_back("load: histogram counted " + std::to_string(r.rtt_hist.count()) + " of " +
                std::to_string(r.requests) + " requests");
  }
  if (expect.intervals) {
    if (r.intervals.empty()) {
      f.push_back("load: no interval windows");
    } else {
      std::uint64_t sum = 0;
      for (const lmb::obs::IntervalStats& w : r.intervals) {
        sum += w.requests;
      }
      if (sum != r.requests) {
        f.push_back("load: interval requests sum to " + std::to_string(sum) + ", not " +
                    std::to_string(r.requests));
      }
      if (r.intervals.front().start != 0) {
        f.push_back("load: first window starts at " + std::to_string(r.intervals.front().start));
      }
      for (size_t i = 0; i < r.intervals.size(); ++i) {
        const lmb::obs::IntervalStats& w = r.intervals[i];
        if (w.end < w.start || (i + 1 < r.intervals.size() && w.end != r.intervals[i + 1].start)) {
          f.push_back("load: window " + std::to_string(i) + " does not tile");
        }
      }
    }
  }
  if (r.rtt_seen != r.rtt_reservoir.count()) {
    f.push_back("load: reservoir sampled " + std::to_string(r.rtt_reservoir.count()) + " of " +
                std::to_string(r.rtt_seen) + " values; the p50 cross-check needs all of them");
  } else if (r.rtt_reservoir.count() > 0) {
    const double raw = r.rtt_reservoir.percentile(50);
    const double hist = r.rtt_hist.percentile(50);
    const double err = std::abs(hist - raw) / raw;
    if (!(err <= r.rtt_hist.max_relative_error())) {
      f.push_back("load: histogram p50 " + std::to_string(hist) + " ns is " +
                  std::to_string(err) + " from the raw p50 " + std::to_string(raw) +
                  " ns, more than max_relative_error " +
                  std::to_string(r.rtt_hist.max_relative_error()));
    }
  }
  return f;
}

Failures check_rate_ratio(double ratio) {
  if (std::abs(ratio - 1.0) <= 0.02) {
    return {};
  }
  return {"load: achieved/offered rate " + std::to_string(ratio) + " is not within 2% of 1"};
}

}  // namespace perfbench
