#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/timing.h"
#include "src/report/json.h"
#include "src/report/trace_io.h"

namespace lmb {
namespace {

std::map<std::string, std::string> args_map(const obs::TraceEvent& e) {
  return {e.args.begin(), e.args.end()};
}

TEST(TraceSinkTest, RecordsInstantAndCompleteEvents) {
  obs::TraceSink sink;
  sink.instant("suite", "hello", {{"k", "v"}});
  Nanos start = sink.timestamp();
  sink.complete("timing", "span", start, {{"n", "1"}});

  std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cat, "suite");
  EXPECT_EQ(events[0].name, "hello");
  EXPECT_LT(events[0].dur, 0);  // instant
  EXPECT_EQ(args_map(events[0]).at("k"), "v");
  EXPECT_EQ(events[1].cat, "timing");
  EXPECT_GE(events[1].dur, 0);  // complete span
  EXPECT_GE(events[1].ts, events[0].ts);
}

TEST(TraceSinkTest, TimestampsAreRelativeToSinkEpoch) {
  obs::TraceSink sink;
  Nanos t0 = sink.timestamp();
  Nanos t1 = sink.timestamp();
  EXPECT_GE(t0, 0);
  EXPECT_GE(t1, t0);
}

TEST(TraceSinkTest, AssignsStableThreadOrdinals) {
  obs::TraceSink sink;
  sink.instant("suite", "main1");
  std::thread t([&] {
    sink.instant("suite", "worker1");
    sink.instant("suite", "worker2");
  });
  t.join();
  sink.instant("suite", "main2");

  std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].tid, events[3].tid);  // both from the main thread
  EXPECT_EQ(events[1].tid, events[2].tid);  // both from the worker
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(ObsScopeTest, NestsAndRestores) {
  EXPECT_EQ(obs::ObsScope::current(), nullptr);
  obs::TraceSink sink;
  {
    obs::ObsScope outer(&sink, false, "outer");
    ASSERT_EQ(obs::ObsScope::current(), &outer);
    EXPECT_EQ(obs::ObsScope::current()->bench(), "outer");
    {
      obs::ObsScope inner(&sink, true, "inner", 3);
      ASSERT_EQ(obs::ObsScope::current(), &inner);
      EXPECT_TRUE(inner.counters());
      EXPECT_EQ(inner.worker(), 3);
    }
    EXPECT_EQ(obs::ObsScope::current(), &outer);
  }
  EXPECT_EQ(obs::ObsScope::current(), nullptr);
}

TEST(ObsScopeTest, IsPerThread) {
  obs::TraceSink sink;
  obs::ObsScope scope(&sink, false, "main");
  obs::ObsScope* seen = &scope;
  std::thread t([&] { seen = obs::ObsScope::current(); });
  t.join();
  EXPECT_EQ(seen, nullptr);  // the scope does not leak across threads
}

TEST(ObsScopeTest, EventsInsideScopeCarryBenchName) {
  obs::TraceSink sink;
  obs::ObsScope scope(&sink, false, "lat_foo");
  sink.instant("timing", "tick");
  std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bench, "lat_foo");
}

TEST(MeasureTracingTest, EmitsTimingDecisionEvents) {
  obs::TraceSink sink;
  TimingPolicy policy = TimingPolicy::quick();
  {
    obs::ObsScope scope(&sink, false, "traced_bench");
    volatile int x = 0;
    measure([&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) x = x + 1;
    }, policy);
  }
  std::map<std::string, int> names;
  for (const obs::TraceEvent& e : sink.events()) {
    EXPECT_EQ(e.bench, "traced_bench");
    names[e.cat + "/" + e.name]++;
  }
  EXPECT_GE(names["timing/warmup"], 1);
  EXPECT_GE(names["calibration/probe"], 1);
  EXPECT_GE(names["timing/rep"], 1);
  EXPECT_EQ(names["timing/measure"], 1);
}

TEST(MeasureTracingTest, NoScopeEmitsNothingAndStillMeasures) {
  ASSERT_EQ(obs::ObsScope::current(), nullptr);
  volatile int x = 0;
  Measurement m = measure([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) x = x + 1;
  }, TimingPolicy::quick());
  EXPECT_GT(m.repetitions, 0);
  EXPECT_FALSE(m.counters.has_value());
}

TEST(TraceIoTest, JsonRoundTripPreservesEvents) {
  obs::TraceSink sink;
  {
    obs::ObsScope scope(&sink, false, "bench_a");
    sink.instant("calibration", "cal_hit", {{"key", "bench_a#0"}});
    Nanos start = sink.timestamp();
    sink.complete("timing", "rep", start, {{"rep", "0"}, {"iters", "100"}});
  }
  std::vector<obs::TraceEvent> before = sink.events();

  std::string text = report::trace_to_json(before, "testhost");
  report::TraceDoc doc = report::trace_from_json(text);

  EXPECT_EQ(doc.system, "testhost");
  ASSERT_EQ(doc.events.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(doc.events[i].ts, before[i].ts) << i;
    EXPECT_EQ(doc.events[i].dur, before[i].dur) << i;
    EXPECT_EQ(doc.events[i].cat, before[i].cat) << i;
    EXPECT_EQ(doc.events[i].name, before[i].name) << i;
    EXPECT_EQ(doc.events[i].bench, before[i].bench) << i;
    EXPECT_EQ(doc.events[i].tid, before[i].tid) << i;
    // Argument order is not preserved; content is.
    EXPECT_EQ(args_map(doc.events[i]), args_map(before[i])) << i;
  }
}

TEST(TraceIoTest, V1DocumentIsSchemaTagged) {
  obs::TraceSink sink;
  sink.instant("suite", "tick");
  std::string text = report::trace_to_json(sink.events(), "host");

  report::JsonValue root = report::parse_json(text);
  const report::JsonObject& doc = root.object();
  ASSERT_NE(report::find(doc, "schema"), nullptr);
  EXPECT_EQ(report::find(doc, "schema")->str(), report::kTraceSchema);
  ASSERT_NE(report::find(doc, "traceEvents"), nullptr);
  EXPECT_EQ(report::find(doc, "traceEvents")->array().size(), 1u);
}

// The v1 document doubles as a Chrome "JSON Object Format" trace; every
// event must satisfy the trace_event contract (name/cat/ph/ts/pid/tid,
// microsecond timestamps, dur on "X", scope on "i").
TEST(TraceIoTest, EventsAreChromeTraceEventShaped) {
  obs::TraceSink sink;
  {
    obs::ObsScope scope(&sink, false, "bench_b");
    sink.instant("calibration", "cal_miss");
    Nanos start = sink.timestamp();
    sink.complete("timing", "rep", start);
  }

  std::string text = report::trace_to_json(sink.events(), "h");
  report::JsonValue root = report::parse_json(text);
  const report::JsonValue* events = report::find(root.object(), "traceEvents");
  ASSERT_NE(events, nullptr);
  for (const report::JsonValue& ev : events->array()) {
    const report::JsonObject& obj = ev.object();
    ASSERT_NE(report::find(obj, "name"), nullptr);
    ASSERT_NE(report::find(obj, "cat"), nullptr);
    ASSERT_NE(report::find(obj, "pid"), nullptr);
    ASSERT_NE(report::find(obj, "tid"), nullptr);
    const report::JsonValue* ph = report::find(obj, "ph");
    ASSERT_NE(ph, nullptr);
    const report::JsonValue* ts = report::find(obj, "ts");
    ASSERT_NE(ts, nullptr);
    // Chrome timestamps are microseconds: the ns sibling must be 1000x.
    const report::JsonValue* ts_ns = report::find(obj, "tsNs");
    ASSERT_NE(ts_ns, nullptr);
    EXPECT_NEAR(ts->number() * 1e3, ts_ns->number(), 0.5);
    if (ph->str() == "X") {
      EXPECT_NE(report::find(obj, "dur"), nullptr);
    } else {
      ASSERT_EQ(ph->str(), "i");
      ASSERT_NE(report::find(obj, "s"), nullptr);
      EXPECT_EQ(report::find(obj, "s")->str(), "t");
    }
  }
}

TEST(TraceIoTest, EmptyTraceSerializesAndParses) {
  std::string text = report::trace_to_json({}, "");
  report::TraceDoc doc = report::trace_from_json(text);
  EXPECT_TRUE(doc.events.empty());
}

// Integers read back are range-checked before the cast, the microsecond
// fallbacks after scaling: a negative or huge value throws naming the field.
TEST(TraceIoTest, OutOfRangeIntegersAreRejectedNotCast) {
  obs::TraceSink sink;
  sink.instant("suite", "tick", {{"k", "v"}});
  sink.complete("timing", "rep", sink.timestamp());
  const std::string text = report::trace_to_json(sink.events(), "host");
  report::TraceDoc parsed = report::trace_from_json(text);
  EXPECT_EQ(report::trace_to_json(parsed.events, parsed.system), text);

  auto doc = [](const std::map<std::string, std::string>& fields) {
    std::string event = "\"ph\": \"X\"";
    for (const auto& [key, value] : fields) {
      event += ", \"" + key + "\": " + value;
    }
    return "{\"schema\": \"lmbenchpp.trace.v1\", \"traceEvents\": [{" + event + "}]}";
  };
  const std::map<std::string, std::string> ns = {{"tid", "2"}, {"tsNs", "1500"}, {"durNs", "2500"}};
  const std::map<std::string, std::string> us = {{"tid", "2"}, {"ts", "1.5"}, {"dur", "2.5"}};
  for (const auto& fields : {ns, us}) {
    report::TraceDoc ok = report::trace_from_json(doc(fields));
    ASSERT_EQ(ok.events.size(), 1u);
    EXPECT_EQ(ok.events[0].tid, 2);
    EXPECT_EQ(ok.events[0].ts, 1500);
    EXPECT_EQ(ok.events[0].dur, 2500);
    for (const auto& [field, value] : fields) {
      for (const char* bad : {"-1", "1e30"}) {
        std::map<std::string, std::string> corrupt = fields;
        corrupt[field] = bad;
        try {
          report::trace_from_json(doc(corrupt));
          ADD_FAILURE() << field << " = " << bad << " was accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
      }
    }
  }
}

TEST(TraceIoTest, RejectsWrongSchema) {
  EXPECT_THROW(report::trace_from_json("{\"schema\": \"other.v9\", \"traceEvents\": []}"),
               std::invalid_argument);
  EXPECT_THROW(report::trace_from_json("not json"), std::invalid_argument);
}

}  // namespace
}  // namespace lmb
