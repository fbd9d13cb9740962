// Outside-in tracing for perfbench: spans recorded around each call it makes
// into the program, kept in memory and written as a Chrome trace_event
// document when the run ends, plus the rusage snapshots the per-layer
// counters are computed from.
//
// Every span has a name, a start, an end, the span that caused it (0 for a
// root) and the id of the pass or load run it belongs to, so one pass's
// spans can be selected and nested.  The recorder is single-threaded: the
// benchmark calls BenchService::run with jobs=1 and run_load with one inline
// generator shard, so every span starts and ends on the calling thread.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using SpanArgs = std::vector<std::pair<std::string, std::string>>;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root span
  std::uint64_t pass = 0;    // pass or load-run id the span belongs to
  std::string cat;
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = -1;   // -1 while open
  SpanArgs args;

  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Nanoseconds since the recorder was constructed (steady clock).
  std::int64_t now() const;

  // Opens a span and returns its id.
  std::uint64_t begin(std::string cat, std::string name, std::uint64_t parent,
                      std::uint64_t pass);
  // Closes an open span, attaching `args`.
  void end(std::uint64_t id, SpanArgs args = {});
  // Records an already-finished span (events folded in from the program's
  // own trace) and returns its id.
  std::uint64_t add(Span span);

  const Span& get(std::uint64_t id) const;
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace_event JSON object ({"traceEvents": [...], "metadata": {...}})
  // with one complete ("X") event per closed span; ids, parents and pass ids
  // ride in args.  `metadata` entries become string fields of "metadata".
  std::string to_chrome_json(const SpanArgs& metadata) const;

 private:
  std::int64_t epoch_ns_;
  std::vector<Span> spans_;  // index == id - 1
};

// Closes its span on scope exit; a no-op when constructed with a null
// recorder, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string cat, std::string name, std::uint64_t parent,
             std::uint64_t pass);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint64_t id_ = 0;
};

// CPU time and context switches from one getrusage() snapshot.
struct Usage {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary

  std::int64_t cpu_ns() const { return user_ns + sys_ns; }
};

Usage usage_now(int who);  // RUSAGE_SELF or RUSAGE_THREAD
Usage operator-(const Usage& a, const Usage& b);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
