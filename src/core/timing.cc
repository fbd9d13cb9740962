#include "src/core/timing.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/core/cal_cache.h"
#include "src/obs/trace.h"

namespace lmb {

namespace {

thread_local MeasureScope* g_measure_scope = nullptr;

}  // namespace

MeasureScope::MeasureScope(const Clock& clock) : clock_(&clock), prev_(g_measure_scope) {
  g_measure_scope = this;
}

MeasureScope::~MeasureScope() { g_measure_scope = prev_; }

const Clock& selected_clock() {
  return g_measure_scope != nullptr ? g_measure_scope->clock() : WallClock::instance();
}

namespace {

// Per-measurement observability context, resolved once from the thread's
// ObsScope.  Everything is null/empty when no scope is installed, making
// every hook below a cheap branch.
struct Observer {
  obs::TraceSink* sink = nullptr;
  std::unique_ptr<obs::PerfCounters> counters;
  obs::CounterTotals totals;

  static Observer resolve() {
    Observer ob;
    if (obs::ObsScope* scope = obs::ObsScope::current(); scope != nullptr) {
      ob.sink = scope->sink();
      if (scope->counters()) {
        ob.counters = std::make_unique<obs::PerfCounters>();
        if (!ob.counters->available()) {
          ob.counters.reset();  // fallback: no fds, no sampling, nulls downstream
        }
      }
    }
    return ob;
  }
};

std::string u64_str(std::uint64_t v) { return std::to_string(v); }
std::string ns_str(Nanos v) { return std::to_string(v); }

// Times one interval of `iters` iterations, subtracting the clock's own
// read overhead (one now() call is inside the measured span).  Clamped at
// zero: a correction can never make an interval negative.  When `ob` has
// perf counters, they cover the same span (enable/disable ioctls sit
// outside the clock-read window, so the timed interval is unperturbed).
Nanos time_interval(const BenchFn& fn, std::uint64_t iters, const Clock& clock,
                    Observer* ob = nullptr) {
  obs::PerfCounters* pc = ob != nullptr ? ob->counters.get() : nullptr;
  if (pc != nullptr) {
    pc->start();
  }
  Nanos start = clock.now();
  fn(iters);
  Nanos raw = clock.now() - start;
  if (pc != nullptr) {
    ob->totals.add(pc->stop());
  }
  return std::max<Nanos>(raw - clock.overhead_ns(), 0);
}

Measurement finish(std::uint64_t iterations, Sample sample, const Clock& clock,
                   bool converged, bool cached, Observer* ob = nullptr) {
  Measurement m;
  m.iterations = iterations;
  m.repetitions = static_cast<int>(sample.count());
  m.ns_per_op = sample.min();
  m.mean_ns_per_op = sample.mean();
  m.median_ns_per_op = sample.median();
  m.max_ns_per_op = sample.max();
  m.clock_overhead_ns = clock.overhead_ns();
  m.clock_source = clock.name();
  m.converged = converged;
  m.calibration_cached = cached;
  m.sample = std::move(sample);
  if (ob != nullptr && ob->counters != nullptr && ob->totals.intervals > 0) {
    m.counters = ob->totals;
    if (ob->sink != nullptr) {
      ob->sink->instant("counters", "totals",
                        {{"intervals", std::to_string(ob->totals.intervals)},
                         {"instructions", std::to_string(ob->totals.instructions)},
                         {"cycles", std::to_string(ob->totals.cycles)},
                         {"ipc", std::to_string(ob->totals.ipc())},
                         {"cache_miss_rate", std::to_string(ob->totals.cache_miss_rate())},
                         {"multiplexed", ob->totals.multiplexed ? "true" : "false"}});
    }
  }
  return m;
}

// The timing/measure span enclosing one measurement's warm-up, calibration
// and repetitions, so every timing/rep event lies inside one.
void emit_measure_span(obs::TraceSink* sink, Nanos start, const Measurement& m) {
  if (sink == nullptr) {
    return;
  }
  sink->complete("timing", "measure", start,
                 {{"ns_per_op", std::to_string(m.ns_per_op)},
                  {"iterations", u64_str(m.iterations)},
                  {"repetitions", std::to_string(m.repetitions)},
                  {"converged", m.converged ? "true" : "false"},
                  {"calibration_cached", m.calibration_cached ? "true" : "false"}});
}

// Early-stop test: enough intervals in, and the spread between the running
// median and minimum is within the policy's tolerance.  A zero minimum only
// converges on a zero median (degenerate scripted clocks).
bool sample_converged(const Sample& sample, const TimingPolicy& policy) {
  if (policy.convergence <= 0.0) {
    return false;
  }
  int floor = std::max(policy.min_repetitions, 1);
  if (static_cast<int>(sample.count()) < floor) {
    return false;
  }
  return sample.median() - sample.min() <= policy.convergence * sample.min();
}

}  // namespace

Calibration calibrate(const BenchFn& fn, const TimingPolicy& policy, const Clock& clock,
                      Nanos budget_start, std::uint64_t start_iters) {
  obs::ObsScope* scope = obs::ObsScope::current();
  obs::TraceSink* sink = scope != nullptr ? scope->sink() : nullptr;
  Calibration cal;
  std::uint64_t iters = std::clamp<std::uint64_t>(start_iters, 1, policy.max_iterations);
  while (true) {
    Nanos probe_start = sink != nullptr ? sink->timestamp() : 0;
    Nanos elapsed = time_interval(fn, iters, clock);
    if (sink != nullptr) {
      sink->complete("calibration", "probe", probe_start,
                     {{"iters", u64_str(iters)}, {"elapsed_ns", ns_str(elapsed)}});
    }
    cal.iterations = iters;
    cal.probe_elapsed = elapsed;
    if (elapsed >= policy.min_interval || iters >= policy.max_iterations) {
      return cal;
    }
    if (clock.now() - budget_start > policy.max_total) {
      // A slow body can eat the whole measurement budget inside the ramp;
      // bail to the best-known count so at least one repetition gets timed.
      cal.budget_exhausted = true;
      if (sink != nullptr) {
        sink->instant("calibration", "budget_exhausted", {{"iters", u64_str(iters)}});
      }
      return cal;
    }
    std::uint64_t next;
    if (elapsed <= 0) {
      next = iters * 10;
    } else {
      // Overshoot by 20% so the next probe usually terminates calibration.
      // No floor on the step: a probe at 0.6-1x min_interval must not
      // double, since every repetition inherits the final count; the
      // iters + 1 below still guarantees progress.
      double scale = 1.2 * static_cast<double>(policy.min_interval) /
                     static_cast<double>(elapsed);
      scale = std::min(scale, 100.0);
      next = static_cast<std::uint64_t>(static_cast<double>(iters) * scale);
    }
    iters = std::min(std::max(next, iters + 1), policy.max_iterations);
  }
}

Measurement measure(const BenchFn& fn, const TimingPolicy& policy, const Clock& clock) {
  if (!fn) {
    throw std::invalid_argument("measure: empty benchmark body");
  }
  Observer ob = Observer::resolve();
  Nanos measure_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
  Nanos budget_start = clock.now();

  {
    Nanos warmup_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
    for (int i = 0; i < policy.warmup_runs; ++i) {
      fn(1);
    }
    if (ob.sink != nullptr && policy.warmup_runs > 0) {
      ob.sink->complete("timing", "warmup", warmup_start,
                        {{"runs", std::to_string(policy.warmup_runs)}});
    }
  }

  CalibrationScope* scope = CalibrationScope::current();
  CalibrationCache* cache = scope != nullptr ? scope->cache() : nullptr;
  std::string cache_key;
  if (cache != nullptr) {
    cache_key = scope->next_key(policy.min_interval);
  }

  Sample sample;
  std::uint64_t iters = 0;
  bool cached = false;
  std::uint64_t ramp_start = 1;

  if (cache != nullptr) {
    std::optional<CalEntry> entry = cache->find(cache_key);
    if (entry.has_value() && entry->min_interval == policy.min_interval &&
        entry->iterations > 0 && entry->iterations <= policy.max_iterations) {
      // Validate the remembered count with a single probe; on success that
      // probe is the first repetition, so a warm hit wastes nothing.
      Nanos probe_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
      Nanos probe = time_interval(fn, entry->iterations, clock, &ob);
      if (ob.sink != nullptr) {
        ob.sink->complete("calibration", "cache_probe", probe_start,
                          {{"iters", u64_str(entry->iterations)},
                           {"elapsed_ns", ns_str(probe)}});
      }
      // A probe past 2 x min_interval means the count would stretch every
      // repetition too: the key names no args, so a count calibrated for a
      // smaller workload (lat_mem_rd at another --size) comes back here.
      // A single iteration cannot shrink, so it stays a hit.
      const bool oversized = probe > 2 * policy.min_interval && entry->iterations > 1;
      if (probe >= policy.min_interval) {
        // The probe spans a full interval: repetition 1, hit or not.
        sample.add(static_cast<double>(probe) / static_cast<double>(entry->iterations));
      }
      if (probe >= policy.min_interval && !oversized) {
        iters = entry->iterations;
        cached = true;
        scope->note_hit();
      } else if (probe > 0) {
        // Drift: the probe fell short or ran long, but it still says
        // roughly how fast the body is now — resume the ramp near the right
        // count instead of re-climbing from one iteration.
        double scale = 1.2 * static_cast<double>(policy.min_interval) /
                       static_cast<double>(probe);
        ramp_start = static_cast<std::uint64_t>(
            static_cast<double>(entry->iterations) * std::min(scale, 100.0));
      }
    }
    if (!cached) {
      scope->note_miss();
    }
    if (ob.sink != nullptr) {
      ob.sink->instant("calibration", cached ? "cal_hit" : "cal_miss",
                       {{"key", cache_key}});
    }
  }

  if (!cached) {
    Calibration cal = calibrate(fn, policy, clock, budget_start, ramp_start);
    iters = cal.iterations;
    if (cal.probe_elapsed >= policy.min_interval) {
      // The final ramp probe already spans a full interval; keep it as the
      // first repetition instead of throwing it away.
      sample.add(static_cast<double>(cal.probe_elapsed) / static_cast<double>(iters));
    }
    if (cache != nullptr) {
      cache->put(cache_key, CalEntry{iters, policy.min_interval});
    }
  }

  bool converged = false;
  const int cap = std::max(policy.repetitions, 1);
  while (static_cast<int>(sample.count()) < cap) {
    if (sample_converged(sample, policy)) {
      converged = true;
      if (ob.sink != nullptr) {
        ob.sink->instant("timing", "early_stop",
                         {{"reps", std::to_string(sample.count())}});
      }
      break;
    }
    if (!sample.empty() && clock.now() - budget_start > policy.max_total) {
      if (ob.sink != nullptr) {
        ob.sink->instant("timing", "rep_budget_exhausted",
                         {{"reps", std::to_string(sample.count())}});
      }
      break;  // out of budget; keep what we have
    }
    Nanos rep_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
    Nanos elapsed = time_interval(fn, iters, clock, &ob);
    double ns_per_op = static_cast<double>(elapsed) / static_cast<double>(iters);
    if (ob.sink != nullptr) {
      ob.sink->complete("timing", "rep", rep_start,
                        {{"rep", std::to_string(sample.count())},
                         {"iters", u64_str(iters)},
                         {"ns_per_op", std::to_string(ns_per_op)}});
    }
    sample.add(ns_per_op);
  }
  Measurement m = finish(iters, std::move(sample), clock, converged, cached, &ob);
  emit_measure_span(ob.sink, measure_start, m);
  return m;
}

Measurement measure_once_each(const std::function<void()>& fn, int n, const Clock& clock) {
  if (!fn) {
    throw std::invalid_argument("measure_once_each: empty function");
  }
  if (n < 1) {
    throw std::invalid_argument("measure_once_each: n must be >= 1");
  }
  Observer ob = Observer::resolve();
  Nanos measure_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
  Sample sample;
  for (int i = 0; i < n; ++i) {
    Nanos rep_start = ob.sink != nullptr ? ob.sink->timestamp() : 0;
    if (ob.counters != nullptr) {
      ob.counters->start();
    }
    Nanos start = clock.now();
    fn();
    Nanos raw = clock.now() - start;
    if (ob.counters != nullptr) {
      ob.totals.add(ob.counters->stop());
    }
    Nanos corrected = std::max<Nanos>(raw - clock.overhead_ns(), 0);
    if (ob.sink != nullptr) {
      ob.sink->complete("timing", "rep", rep_start,
                        {{"rep", std::to_string(i)},
                         {"iters", "1"},
                         {"ns_per_op", ns_str(corrected)}});
    }
    sample.add(static_cast<double>(corrected));
  }
  Measurement m = finish(1, std::move(sample), clock, false, false, &ob);
  emit_measure_span(ob.sink, measure_start, m);
  return m;
}

double mb_per_sec(double bytes_per_op, double ns_per_op) {
  if (ns_per_op <= 0.0) {
    return 0.0;
  }
  double bytes_per_sec = bytes_per_op * (1e9 / ns_per_op);
  return bytes_per_sec / (1024.0 * 1024.0);
}

}  // namespace lmb
