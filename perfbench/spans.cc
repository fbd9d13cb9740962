#include "perfbench/spans.h"

#include <chrono>
#include <stdexcept>

#include "src/report/json.h"

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t timeval_ns(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1000;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

std::int64_t SpanRecorder::now() const { return steady_ns() - epoch_ns_; }

std::uint64_t SpanRecorder::begin(std::string cat, std::string name, std::uint64_t parent,
                                  std::uint64_t pass) {
  Span s;
  s.parent = parent;
  s.pass = pass;
  s.cat = std::move(cat);
  s.name = std::move(name);
  s.start_ns = now();
  return add(std::move(s));
}

void SpanRecorder::end(std::uint64_t id, SpanArgs args) {
  if (id == 0 || id > spans_.size() || spans_[id - 1].end_ns >= 0) {
    throw std::logic_error("SpanRecorder::end: span " + std::to_string(id) + " is not open");
  }
  Span& s = spans_[id - 1];
  s.end_ns = now();
  for (auto& a : args) {
    s.args.push_back(std::move(a));
  }
}

std::uint64_t SpanRecorder::add(Span span) {
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

const Span& SpanRecorder::get(std::uint64_t id) const {
  if (id == 0 || id > spans_.size()) {
    throw std::out_of_range("SpanRecorder::get: no span " + std::to_string(id));
  }
  return spans_[id - 1];
}

std::string SpanRecorder::to_chrome_json(const SpanArgs& metadata) const {
  using lmb::report::json_double;
  using lmb::report::json_quote;
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) {
      continue;
    }
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\": " + json_quote(s.name) + ", \"cat\": " + json_quote(s.cat) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           json_double(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " + json_double(static_cast<double>(s.dur_ns()) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"pass\": " + std::to_string(s.pass);
    for (const auto& [k, v] : s.args) {
      out += ", " + json_quote(k) + ": " + json_quote(v);
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ns\", \"metadata\": {";
  for (size_t i = 0; i < metadata.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_quote(metadata[i].first) + ": " +
           json_quote(metadata[i].second);
  }
  out += "}}\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::string cat, std::string name,
                       std::uint64_t parent, std::uint64_t pass)
    : rec_(rec) {
  if (rec_ != nullptr) {
    id_ = rec_->begin(std::move(cat), std::move(name), parent, pass);
  }
}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) {
    rec_->end(id_);
  }
}

Usage usage_now(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  Usage u;
  u.user_ns = timeval_ns(ru.ru_utime);
  u.sys_ns = timeval_ns(ru.ru_stime);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user_ns - b.user_ns, a.sys_ns - b.sys_ns, a.ctx_switches - b.ctx_switches};
}

}  // namespace perfbench
