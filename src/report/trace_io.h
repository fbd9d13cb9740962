// Trace exporters/importer for obs::TraceSink event streams.
//
// trace_to_json writes the lmbenchpp.trace.v1 document: a JSON object with
// schema/system metadata plus a `traceEvents` array.  Each event is Chrome
// trace_event-shaped (name/cat/ph/ts/dur/pid/tid/args with microsecond
// timestamps) with extra keys (`tsNs`, `durNs`, `bench`) carrying the exact
// nanosecond values.  Because Chrome's "JSON Object Format" tolerates
// unknown top-level and per-event keys, the very same file loads in
// about:tracing and ui.perfetto.dev unmodified.
//
// trace_from_json parses a v1 document back into events, preferring the
// exact nanosecond keys over the rounded microsecond ones.  Argument order
// within an event is not preserved (args round-trip sorted by key).
#ifndef LMBENCHPP_SRC_REPORT_TRACE_IO_H_
#define LMBENCHPP_SRC_REPORT_TRACE_IO_H_

#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace lmb::report {

// Schema identifier embedded in every v1 trace document.
inline constexpr const char* kTraceSchema = "lmbenchpp.trace.v1";

// A parsed trace document: who produced it plus the event stream.
struct TraceDoc {
  std::string system;
  std::vector<obs::TraceEvent> events;
};

// lmbenchpp.trace.v1 JSON document (also a valid Chrome "JSON Object
// Format" trace — load it in about:tracing / Perfetto directly).
std::string trace_to_json(const std::vector<obs::TraceEvent>& events,
                          const std::string& system = "");

// Parses a trace_to_json document.  Throws std::invalid_argument on
// malformed input or schema mismatch.
TraceDoc trace_from_json(const std::string& text);

}  // namespace lmb::report

#endif  // LMBENCHPP_SRC_REPORT_TRACE_IO_H_
