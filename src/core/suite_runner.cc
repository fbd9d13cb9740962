#include "src/core/suite_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/core/timing.h"

namespace lmb {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Runs one benchmark inline, converting any escape (exception) into a
// kError result.  Always stamps identity and wall time.  With a calibration
// cache, the whole body runs inside a CalibrationScope (thread-local, so
// this composes with the timeout path's worker thread), hit/miss counts are
// recorded as metadata, and the benchmark's wall clock feeds the cache's
// scheduling history.
RunResult execute(const BenchmarkInfo& info, const Options& options, const SuiteConfig& config,
                  int worker) {
  CalibrationCache* cal_cache = config.cal_cache;
  Clock::time_point start = Clock::now();
  RunResult result;
  {
    CalibrationScope scope(cal_cache, info.name);
    // Thread-local like CalibrationScope, so this composes with the timeout
    // path (the scope lives on whichever thread runs the body).
    obs::ObsScope obs_scope(config.trace, config.counters, info.name, worker);
    // Same thread-local pattern again: with a configured clock, every
    // measure() call in the benchmark body that does not pass an explicit
    // clock picks it up.
    std::optional<MeasureScope> measure_scope;
    if (config.clock != nullptr) {
      measure_scope.emplace(*config.clock);
    }
    try {
      result = info.run(options);
    } catch (const std::exception& e) {
      result = RunResult::failure(e.what());
    } catch (...) {
      result = RunResult::failure("non-standard exception");
    }
    if (cal_cache != nullptr) {
      result.metadata["cal_hits"] = std::to_string(scope.hits());
      result.metadata["cal_misses"] = std::to_string(scope.misses());
    }
  }
  if (result.name.empty()) {
    result.name = info.name;
  }
  if (result.category.empty()) {
    result.category = info.category;
  }
  // Surface the counter-derived ratios as metrics so they flow through the
  // table/CSV/JSON pipeline.  "count" and "%" units are direction-neutral,
  // so the compare gate never fails a run over an IPC shift.
  if (result.measurement.has_value() && result.measurement->counters.has_value()) {
    const obs::CounterTotals& totals = *result.measurement->counters;
    if (std::isfinite(totals.ipc())) {
      result.add("ipc", totals.ipc(), "count");
    }
    if (std::isfinite(totals.cache_miss_rate())) {
      result.add("cache_miss_pct", 100.0 * totals.cache_miss_rate(), "%");
    }
  }
  result.wall_ms = elapsed_ms(start);
  if (cal_cache != nullptr && result.ok()) {
    cal_cache->record_wall_ms(result.name, result.wall_ms);
  }
  return result;
}

// Runs one benchmark with a wall-clock budget.  The benchmark body runs on
// its own thread; on timeout the thread is detached (see header contract)
// and a kTimeout result is synthesized.
RunResult execute_with_timeout(const BenchmarkInfo& info, const Options& options,
                               const SuiteConfig& config, int worker) {
  const double timeout_sec = config.timeout_sec;
  // The config and options are copied into the task: on timeout the worker
  // thread is detached and may outlive the caller's SuiteConfig (the trace
  // sink and cal_cache pointers inside it carry their own documented
  // lifetime rules).
  std::packaged_task<RunResult()> task(
      [&info, options, config, worker]() { return execute(info, options, config, worker); });
  std::future<RunResult> future = task.get_future();
  std::thread runner(std::move(task));
  if (future.wait_for(std::chrono::duration<double>(timeout_sec)) ==
      std::future_status::ready) {
    runner.join();
    return future.get();
  }
  runner.detach();
  RunResult result;
  result.name = info.name;
  result.category = info.category;
  result.status = RunStatus::kTimeout;
  char budget[32];
  std::snprintf(budget, sizeof(budget), "%.6g", timeout_sec);
  result.error = "exceeded " + std::string(budget) + "s wall-clock budget";
  result.wall_ms = timeout_sec * 1e3;
  return result;
}

// Memory and disk bandwidth are the most sensitive to a busy memory bus, so
// members of these categories never run concurrently with each other.
bool is_exclusive(const std::string& category) {
  return category == "bandwidth" || category == "disk";
}

// One selected benchmark invocation.
struct Work {
  const BenchmarkInfo* info = nullptr;
  Options options;   // the suite's options with the entry's args applied
  std::string args;  // PlanEntry::args_text(); "" for a bare name
};

// Mutable scheduling state shared by workers.
struct Scheduler {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<bool> claimed;          // one flag per work item
  std::set<std::string> busy;         // exclusive categories currently running
  size_t remaining = 0;               // unclaimed items

  std::mutex event_mu;                // serializes progress callbacks
};

}  // namespace

SuiteRunner::SuiteRunner(const Registry& registry) : registry_(&registry) {}

void SuiteRunner::set_progress(std::function<void(const SuiteEvent&)> callback) {
  progress_ = std::move(callback);
}

std::vector<RunResult> SuiteRunner::run(const SuiteConfig& config) const {
  // Select the work list ONCE (the old driver enumerated the registry
  // twice and could disagree with itself).  Names and a category become
  // entries without args, so there is one selection path.
  std::vector<PlanEntry> plan;
  for (const std::string& name : config.names) {
    plan.push_back(PlanEntry{name, {}});
  }
  plan.insert(plan.end(), config.entries.begin(), config.entries.end());
  if (plan.empty()) {
    for (const BenchmarkInfo* info : registry_->list(config.category)) {
      plan.push_back(PlanEntry{info->name, {}});
    }
  }
  std::vector<Work> work;
  for (const PlanEntry& entry : plan) {
    const BenchmarkInfo* info = registry_->find(entry.name);
    if (info == nullptr) {
      throw std::invalid_argument("unknown benchmark: " + entry.name);
    }
    work.push_back(Work{info, entry.options_over(config.options), entry.args_text()});
  }

  const int total = static_cast<int>(work.size());
  std::vector<RunResult> results(work.size());
  if (work.empty()) {
    return results;
  }

  Scheduler sched;
  sched.claimed.assign(work.size(), false);
  sched.remaining = work.size();

  // Claim order over `work` (which stays name-sorted so the returned vector
  // is deterministic).  With parallel workers and wall-clock history in the
  // calibration cache, claim longest-expected-first: finishing the long
  // poles early minimizes the makespan (greedy LPT).  Benchmarks with no
  // history sort first — they might be long, and running them early both
  // hedges the schedule and records their duration for next time.
  std::vector<size_t> order(work.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  if (config.jobs > 1 && config.cal_cache != nullptr) {
    std::vector<double> expected(work.size());
    for (size_t i = 0; i < work.size(); ++i) {
      expected[i] = config.cal_cache->expected_wall_ms(work[i].info->name)
                        .value_or(std::numeric_limits<double>::infinity());
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return expected[a] > expected[b]; });
  }

  auto emit = [&](SuiteEvent event) {
    if (!progress_) {
      return;
    }
    std::lock_guard<std::mutex> lock(sched.event_mu);
    progress_(event);
  };

  // Worker loop: claim the first runnable item (skipping items whose
  // exclusive category is busy), run it, record, repeat.
  auto worker_loop = [&](int worker) {
    for (;;) {
      size_t picked = work.size();
      {
        std::unique_lock<std::mutex> lock(sched.mu);
        for (;;) {
          if (sched.remaining == 0) {
            return;
          }
          for (size_t slot : order) {
            if (sched.claimed[slot]) {
              continue;
            }
            if (is_exclusive(work[slot].info->category) &&
                sched.busy.count(work[slot].info->category) > 0) {
              continue;  // another member of this category is running
            }
            picked = slot;
            break;
          }
          if (picked != work.size()) {
            break;
          }
          // Unclaimed items exist but are all blocked on a busy category.
          sched.cv.wait(lock);
        }
        sched.claimed[picked] = true;
        --sched.remaining;
        if (is_exclusive(work[picked].info->category)) {
          sched.busy.insert(work[picked].info->category);
        }
      }

      const Work& item = work[picked];
      const BenchmarkInfo& info = *item.info;
      if (config.trace != nullptr) {
        config.trace->instant("scheduler", "claim",
                              {{"bench", info.name},
                               {"category", info.category},
                               {"worker", std::to_string(worker)},
                               {"slot", std::to_string(picked)}});
      }
      Nanos bench_start = config.trace != nullptr ? config.trace->timestamp() : 0;
      emit(SuiteEvent{SuiteEvent::Kind::kStart, static_cast<int>(picked), total, info.name,
                      info.description, nullptr});
      RunResult result = config.timeout_sec > 0
                             ? execute_with_timeout(info, item.options, config, worker)
                             : execute(info, item.options, config, worker);
      if (!item.args.empty()) {
        result.metadata["args"] = item.args;
      }
      if (config.trace != nullptr) {
        config.trace->complete("suite", info.name, bench_start,
                               {{"status", run_status_name(result.status)},
                                {"worker", std::to_string(worker)}});
      }
      {
        std::lock_guard<std::mutex> lock(sched.mu);
        results[picked] = std::move(result);
        if (is_exclusive(info.category)) {
          sched.busy.erase(info.category);
        }
      }
      sched.cv.notify_all();
      emit(SuiteEvent{SuiteEvent::Kind::kFinish, static_cast<int>(picked), total, info.name,
                      info.description, &results[picked]});
    }
  };

  const int jobs = std::clamp(config.jobs, 1, total);
  Nanos suite_start = config.trace != nullptr ? config.trace->timestamp() : 0;
  if (jobs == 1) {
    worker_loop(0);  // serial: run on the calling thread
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      pool.emplace_back(worker_loop, i);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (config.trace != nullptr) {
    config.trace->complete("suite", "run", suite_start,
                           {{"benchmarks", std::to_string(total)},
                            {"jobs", std::to_string(jobs)}});
  }
  return results;
}

}  // namespace lmb
