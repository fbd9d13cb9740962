#include "src/report/trace_io.h"

#include "src/report/json.h"

namespace lmb::report {

namespace {

// One Chrome-shaped event object.  `ts`/`dur` are microseconds (the unit
// the Chrome format mandates); `tsNs`/`durNs` carry the exact nanosecond
// values so a round trip through JSON loses nothing.
std::string event_to_json(const obs::TraceEvent& e, const std::string& indent) {
  const bool span = e.dur >= 0;
  std::string out = indent + "{";
  out += "\"name\": " + json_quote(e.name);
  out += ", \"cat\": " + json_quote(e.cat);
  out += std::string(", \"ph\": ") + (span ? "\"X\"" : "\"i\"");
  out += ", \"ts\": " + json_double(static_cast<double>(e.ts) / 1e3);
  if (span) {
    out += ", \"dur\": " + json_double(static_cast<double>(e.dur) / 1e3);
  } else {
    out += ", \"s\": \"t\"";  // instant scope: thread
  }
  out += ", \"pid\": 1";
  out += ", \"tid\": " + std::to_string(e.tid);
  out += ", \"tsNs\": " + std::to_string(e.ts);
  if (span) {
    out += ", \"durNs\": " + std::to_string(e.dur);
  }
  if (!e.bench.empty()) {
    out += ", \"bench\": " + json_quote(e.bench);
  }
  out += ", \"args\": {";
  bool first = true;
  for (const auto& [key, value] : e.args) {
    out += first ? "" : ", ";
    first = false;
    out += json_quote(key) + ": " + json_quote(value);
  }
  out += "}}";
  return out;
}

std::string events_array(const std::vector<obs::TraceEvent>& events,
                         const std::string& indent) {
  std::string out = "[";
  bool first = true;
  for (const obs::TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += event_to_json(e, indent);
  }
  out += events.empty() ? "]" : "\n" + indent.substr(0, indent.size() - 2) + "]";
  return out;
}

}  // namespace

std::string trace_to_json(const std::vector<obs::TraceEvent>& events,
                          const std::string& system) {
  std::string out = "{\n";
  out += "  \"schema\": " + json_quote(kTraceSchema) + ",\n";
  out += "  \"system\": " + json_quote(system) + ",\n";
  out += "  \"displayTimeUnit\": \"ns\",\n";
  out += "  \"traceEvents\": " + events_array(events, "    ") + "\n";
  out += "}\n";
  return out;
}

TraceDoc trace_from_json(const std::string& text) {
  JsonValue root = parse_json(text);
  const JsonObject& doc = root.object();

  const JsonValue* schema = find(doc, "schema");
  if (schema == nullptr || schema->str() != kTraceSchema) {
    throw std::invalid_argument("trace json: missing or unknown schema (want " +
                                std::string(kTraceSchema) + ")");
  }

  TraceDoc out;
  if (const JsonValue* system = find(doc, "system");
      system != nullptr && !system->is_null()) {
    out.system = system->str();
  }
  const JsonValue* events = find(doc, "traceEvents");
  if (events == nullptr) {
    throw std::invalid_argument("trace json: missing traceEvents array");
  }
  for (const JsonValue& entry : events->array()) {
    const JsonObject& obj = entry.object();
    obs::TraceEvent e;
    if (const JsonValue* v = find(obj, "name")) e.name = v->str();
    if (const JsonValue* v = find(obj, "cat")) e.cat = v->str();
    if (const JsonValue* v = find(obj, "bench")) e.bench = v->str();
    if (const JsonValue* v = find(obj, "tid")) e.tid = checked_integer<int>(*v, "tid");
    // Exact nanosecond keys win; fall back to the Chrome microsecond ones
    // for documents produced by other tools.
    if (const JsonValue* v = find(obj, "tsNs")) {
      e.ts = checked_integer<Nanos>(*v, "tsNs");
    } else if (const JsonValue* v2 = find(obj, "ts")) {
      e.ts = checked_integer<Nanos>(*v2, "ts", 1e3);
    }
    bool span = false;
    if (const JsonValue* v = find(obj, "ph")) {
      span = v->str() == "X";
    }
    if (span) {
      if (const JsonValue* v = find(obj, "durNs")) {
        e.dur = checked_integer<Nanos>(*v, "durNs");
      } else if (const JsonValue* v2 = find(obj, "dur")) {
        e.dur = checked_integer<Nanos>(*v2, "dur", 1e3);
      } else {
        e.dur = 0;
      }
    } else {
      e.dur = -1;
    }
    if (const JsonValue* v = find(obj, "args"); v != nullptr && !v->is_null()) {
      for (const auto& [key, value] : v->object()) {
        e.args.emplace_back(key, value.str());
      }
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace lmb::report
