// JSON/CSV serialization: round-trips, stable field names/units, and
// explicit (non-zero) representation of missing values.
#include "src/report/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <regex>

namespace lmb::report {
namespace {

std::vector<RunResult> sample_batch() {
  RunResult ok;
  ok.name = "lat_pipe";
  ok.category = "latency";
  ok.add("us", 26.4375, "us");
  Measurement m;
  m.ns_per_op = 26437.5;
  m.mean_ns_per_op = 26500.25;
  m.median_ns_per_op = 26450.0;
  m.max_ns_per_op = 27000.0;
  m.iterations = 1024;
  m.repetitions = 11;
  m.clock_overhead_ns = 25;
  m.converged = true;
  m.calibration_cached = true;
  ok.measurement = m;
  ok.metadata["msg"] = "1";
  ok.wall_ms = 152.5;
  ok.display = "26.4 us round trip";

  RunResult multi;
  multi.name = "bw_mem";
  multi.category = "bandwidth";
  multi.add("read_mbs", 21000.0, "MB/s").add("write_mbs", 14500.0, "MB/s");

  RunResult failed;
  failed.name = "lat_broken";
  failed.category = "latency";
  failed.status = RunStatus::kError;
  failed.error = "something, with \"quotes\"\nand a newline";

  RunResult timed_out;
  timed_out.name = "test_hang";
  timed_out.category = "test";
  timed_out.status = RunStatus::kTimeout;
  timed_out.error = "exceeded 30s wall-clock budget";

  return {ok, multi, failed, timed_out};
}

TEST(SerializeJsonTest, RoundTripsABatch) {
  ResultBatch batch{"test-host", sample_batch(), {}};
  std::string json = to_json(batch);
  ResultBatch parsed = from_json(json);

  EXPECT_EQ(parsed.system, "test-host");
  ASSERT_EQ(parsed.results.size(), batch.results.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const RunResult& in = batch.results[i];
    const RunResult& out = parsed.results[i];
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.category, in.category);
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.error, in.error);
    EXPECT_EQ(out.display, in.display);
    EXPECT_DOUBLE_EQ(out.wall_ms, in.wall_ms);
    ASSERT_EQ(out.metrics.size(), in.metrics.size());
    for (size_t j = 0; j < in.metrics.size(); ++j) {
      EXPECT_EQ(out.metrics[j].key, in.metrics[j].key);
      EXPECT_DOUBLE_EQ(out.metrics[j].value, in.metrics[j].value);
      EXPECT_EQ(out.metrics[j].unit, in.metrics[j].unit);
    }
    EXPECT_EQ(out.measurement.has_value(), in.measurement.has_value());
    if (in.measurement) {
      EXPECT_DOUBLE_EQ(out.measurement->ns_per_op, in.measurement->ns_per_op);
      EXPECT_DOUBLE_EQ(out.measurement->mean_ns_per_op, in.measurement->mean_ns_per_op);
      EXPECT_EQ(out.measurement->iterations, in.measurement->iterations);
      EXPECT_EQ(out.measurement->repetitions, in.measurement->repetitions);
      EXPECT_EQ(out.measurement->clock_overhead_ns, in.measurement->clock_overhead_ns);
      EXPECT_EQ(out.measurement->converged, in.measurement->converged);
      EXPECT_EQ(out.measurement->calibration_cached, in.measurement->calibration_cached);
    }
    EXPECT_EQ(out.metadata, in.metadata);
  }
}

TEST(SerializeJsonTest, ClockSourceRoundTrips) {
  RunResult r;
  r.name = "lat_ops";
  r.category = "latency";
  r.add("ns", 1.25, "ns");
  Measurement m;
  m.ns_per_op = 1.25;
  m.iterations = 1 << 20;
  m.repetitions = 7;
  m.clock_source = "tsc";
  r.measurement = m;

  ResultBatch parsed = from_json(to_json(ResultBatch{"h", {r}, {}}));
  ASSERT_EQ(parsed.results.size(), 1u);
  ASSERT_TRUE(parsed.results[0].measurement.has_value());
  const Measurement& out = *parsed.results[0].measurement;
  EXPECT_EQ(out.clock_source, "tsc");
  EXPECT_EQ(out.iterations, 1u << 20);
  EXPECT_EQ(out.repetitions, 7);
}

// Documents written while the batched timing loop existed carry two more
// measurement keys.  They still parse, and a rewrite drops them.
TEST(SerializeJsonTest, OldNanoscaleKeysParseAndAreNotWrittenBack) {
  const std::string old_doc = R"({
    "schema": "lmbenchpp.results.v1",
    "system": "h",
    "results": [{
      "name": "lat_ops", "category": "latency", "status": "ok",
      "metrics": [{"key": "ns", "value": 1.25, "unit": "ns"}],
      "measurement": {"ns_per_op": 1.25, "iterations": 64, "repetitions": 11,
                      "clock_overhead_ns": 12, "clock_source": "tsc",
                      "nanoscale": true, "interval_overhead_ns": 9,
                      "converged": false, "calibration_cached": false}
    }]
  })";
  ResultBatch parsed = from_json(old_doc);
  ASSERT_EQ(parsed.results.size(), 1u);
  ASSERT_TRUE(parsed.results[0].measurement.has_value());
  const Measurement& m = *parsed.results[0].measurement;
  EXPECT_DOUBLE_EQ(m.ns_per_op, 1.25);
  EXPECT_EQ(m.iterations, 64u);
  EXPECT_EQ(m.repetitions, 11);
  EXPECT_EQ(m.clock_overhead_ns, 12);
  EXPECT_EQ(m.clock_source, "tsc");

  std::string rewritten = to_json(parsed);
  EXPECT_EQ(rewritten.find("\"nanoscale\""), std::string::npos) << rewritten;
  EXPECT_EQ(rewritten.find("\"interval_overhead_ns\""), std::string::npos) << rewritten;
}

TEST(SerializeJsonTest, LoadPercentileMetricsRoundTrip) {
  // The c10k scenarios ship their whole tail through ordinary metrics; a
  // lossy writer (or a reader that rounds) would corrupt exactly the numbers
  // the CI smoke step asserts on.  Values chosen to not be round.
  RunResult r;
  r.name = "lat_tcp_n";
  r.category = "latency";
  r.add("loopback_p50_us", 42.125, "us");
  r.add("loopback_p95_us", 97.0625, "us");
  r.add("loopback_p99_us", 181.5, "us");
  r.add("loopback_p999_us", 5123.875, "us");
  r.add("loopback_rps", 31250.5, "ops/s");
  r.metadata["connections"] = "256";

  ResultBatch parsed = from_json(to_json(ResultBatch{"h", {r}, {}}));
  ASSERT_EQ(parsed.results.size(), 1u);
  const RunResult& out = parsed.results[0];
  EXPECT_EQ(out.metric("loopback_p50_us"), 42.125);
  EXPECT_EQ(out.metric("loopback_p95_us"), 97.0625);
  EXPECT_EQ(out.metric("loopback_p99_us"), 181.5);
  EXPECT_EQ(out.metric("loopback_p999_us"), 5123.875);
  EXPECT_EQ(out.metric("loopback_rps"), 31250.5);
  EXPECT_EQ(out.metadata.at("connections"), "256");
}

TEST(SerializeJsonTest, AbsentClockFieldsSerializeAsNullNotZero) {
  RunResult r;
  r.name = "lat_ops";
  r.category = "latency";
  r.add("ns", 1.25, "ns");
  Measurement m;  // defaults: no clock_source
  m.ns_per_op = 1.25;
  r.measurement = m;

  std::string json = to_json(ResultBatch{"h", {r}, {}});
  // Never a silent empty string: an unknown source is null in the document.
  EXPECT_NE(json.find("\"clock_source\": null"), std::string::npos) << json;

  ResultBatch parsed = from_json(json);
  const Measurement& out = *parsed.results[0].measurement;
  EXPECT_TRUE(out.clock_source.empty());
}

TEST(SerializeJsonTest, GoldenFieldNamesAndUnits) {
  ResultBatch batch{"host", sample_batch(), {}};
  std::string json = to_json(batch);

  // Stable top-level and per-result field names — external tooling keys
  // off these; changing them is a schema break.
  for (const char* field :
       {"\"schema\"", "\"system\"", "\"results\"", "\"name\"", "\"category\"", "\"status\"",
        "\"error\"", "\"wall_ms\"", "\"display\"", "\"metrics\"", "\"key\"", "\"value\"",
        "\"unit\"", "\"measurement\"", "\"ns_per_op\"", "\"mean_ns_per_op\"",
        "\"median_ns_per_op\"", "\"max_ns_per_op\"", "\"iterations\"", "\"repetitions\"",
        "\"metadata\"", "\"count\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"schema\": \"lmbenchpp.results.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"MB/s\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"us\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"timeout\""), std::string::npos);
}

TEST(SerializeJsonTest, MissingValuesSerializeAsNullNotZero) {
  RunResult failed;
  failed.name = "lat_broken";
  failed.category = "latency";
  failed.status = RunStatus::kError;
  failed.error = "boom";
  // No metrics, no measurement, no wall time recorded.
  std::string json = to_json(ResultBatch{"host", {failed}, {}});

  EXPECT_NE(json.find("\"metrics\": []"), std::string::npos);
  EXPECT_NE(json.find("\"measurement\": null"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\": null"), std::string::npos);
  EXPECT_NE(json.find("\"display\": null"), std::string::npos);

  // A succeeding result's error field is explicitly null, not "".
  RunResult ok;
  ok.name = "fine";
  ok.category = "latency";
  ok.add("us", 0.0, "us");  // a true measured zero IS emitted as 0
  json = to_json(ResultBatch{"host", {ok}, {}});
  EXPECT_NE(json.find("\"error\": null"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 0"), std::string::npos);
}

TEST(SerializeJsonTest, SuiteTimingRoundTripsAndAbsenceIsNull) {
  SuiteTiming timing;
  timing.total_wall_ms = 12345.5;
  timing.jobs = 4;
  timing.cal_cache = true;
  timing.cal_hits = 17;
  timing.cal_misses = 2;
  ResultBatch batch{"host", sample_batch(), timing};

  std::string json = to_json(batch);
  for (const char* field : {"\"timing\"", "\"total_wall_ms\"", "\"jobs\"", "\"cal_cache\"",
                            "\"cal_hits\"", "\"cal_misses\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  ResultBatch parsed = from_json(json);
  ASSERT_TRUE(parsed.timing.has_value());
  EXPECT_DOUBLE_EQ(parsed.timing->total_wall_ms, 12345.5);
  EXPECT_EQ(parsed.timing->jobs, 4);
  EXPECT_TRUE(parsed.timing->cal_cache);
  EXPECT_EQ(parsed.timing->cal_hits, 17);
  EXPECT_EQ(parsed.timing->cal_misses, 2);

  // Without timing the field is an explicit null and parses back to nullopt.
  ResultBatch no_timing{"host", sample_batch(), {}};
  json = to_json(no_timing);
  EXPECT_NE(json.find("\"timing\": null"), std::string::npos);
  EXPECT_FALSE(from_json(json).timing.has_value());
}

// Integers read back are range-checked before the cast: a negative, huge or
// infinite value in a hand-edited or corrupt document throws naming the
// field instead of being undefined behaviour.
TEST(SerializeJsonTest, OutOfRangeIntegersAreRejectedNotCast) {
  SuiteTiming timing;
  timing.jobs = 4;
  timing.cal_hits = 17;
  timing.cal_misses = 2;
  ResultBatch batch{"host", sample_batch(), timing, {}};
  obs::CounterTotals totals;
  totals.intervals = 3;
  batch.results[0].measurement->counters = totals;
  const std::string json = to_json(batch);
  EXPECT_EQ(to_json(from_json(json)), json);  // a valid document is untouched

  for (const std::string field : {"iterations", "repetitions", "clock_overhead_ns", "intervals",
                                  "jobs", "cal_hits", "cal_misses"}) {
    // iterations is a uint64_t: 2e19 is just past its range.
    for (const std::string bad : {"-1", field == "iterations" ? "2e19" : "1e30"}) {
      std::string doc = std::regex_replace(json, std::regex("\"" + field + "\": \\d+"),
                                           "\"" + field + "\": " + bad,
                                           std::regex_constants::format_first_only);
      ASSERT_NE(doc, json) << field;
      try {
        from_json(doc);
        ADD_FAILURE() << field << " = " << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
  }
}

TEST(SerializeCsvTest, TimingAppendsASuiteSummaryRow) {
  SuiteTiming timing;
  timing.total_wall_ms = 99.5;
  std::string csv = to_csv(sample_batch(), &timing);
  EXPECT_NE(csv.find("__suite__,suite,ok,99.5,total_wall_ms,99.5,ms,"), std::string::npos)
      << csv;
  // No timing pointer, no summary row.
  EXPECT_EQ(to_csv(sample_batch()).find("__suite__"), std::string::npos);
}

TEST(SerializeJsonTest, RejectsMalformedInputAndWrongSchema) {
  EXPECT_THROW(from_json("not json"), std::invalid_argument);
  EXPECT_THROW(from_json("{\"results\": []}"), std::invalid_argument);  // no schema
  EXPECT_THROW(from_json("{\"schema\": \"other.v9\", \"results\": []}"),
               std::invalid_argument);
  EXPECT_THROW(from_json("{\"schema\": \"lmbenchpp.results.v1\"}"),
               std::invalid_argument);  // no results
  // Truncated document.
  std::string json = to_json(ResultBatch{"h", sample_batch(), {}});
  EXPECT_THROW(from_json(json.substr(0, json.size() / 2)), std::invalid_argument);
}

TEST(SerializeCsvTest, OneRowPerMetricWithBlankCellsForMissing) {
  std::vector<RunResult> batch = sample_batch();
  batch[2].error = "plain, but comma-bearing error";  // keep rows one-per-line
  std::string csv = to_csv(batch);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < csv.size()) {
    size_t end = csv.find('\n', start);
    lines.push_back(csv.substr(start, end - start));
    start = end + 1;
  }

  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "name,category,status,wall_ms,metric,value,unit,error");
  // lat_pipe: one metric row.
  EXPECT_EQ(lines[1].rfind("lat_pipe,latency,ok,152.5,us,", 0), 0u) << lines[1];
  // bw_mem: two rows, one per metric; wall_ms unknown -> blank, not 0.
  EXPECT_EQ(lines[2].rfind("bw_mem,bandwidth,ok,,read_mbs,21000,MB/s,", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("bw_mem,bandwidth,ok,,write_mbs,14500,MB/s,", 0), 0u) << lines[3];
  // Failed benchmark: blank metric/value/unit cells and a quoted error.
  EXPECT_EQ(lines[4], "lat_broken,latency,error,,,,,\"plain, but comma-bearing error\"")
      << lines[4];
  EXPECT_EQ(lines[5], "test_hang,test,timeout,,,,,exceeded 30s wall-clock budget");
}

TEST(SerializeCsvTest, QuotesEmbeddedQuotesAndNewlines) {
  RunResult failed;
  failed.name = "x";
  failed.category = "latency";
  failed.status = RunStatus::kError;
  failed.error = "line one\nwith \"quotes\"";
  std::string csv = to_csv({failed});
  EXPECT_NE(csv.find("\"line one\nwith \"\"quotes\"\"\""), std::string::npos) << csv;
}

// Regression: non-finite doubles must serialize as JSON null (the format
// has no NaN/Inf literal) and parse back as NaN — previously the parser
// rejected its own emitter's output.
TEST(SerializeJsonTest, NonFiniteValuesRoundTripAsNullThenNan) {
  RunResult r;
  r.name = "lat_odd";
  r.category = "latency";
  r.add("a_us", std::numeric_limits<double>::quiet_NaN(), "us");
  r.add("b_us", std::numeric_limits<double>::infinity(), "us");
  r.add("c_us", -std::numeric_limits<double>::infinity(), "us");
  Measurement m;
  m.ns_per_op = std::numeric_limits<double>::quiet_NaN();
  m.mean_ns_per_op = 5.0;
  r.measurement = m;

  std::string json = to_json(ResultBatch{"host", {r}, {}});
  // ": nan"/": inf" is how a naive emitter leaks non-finite doubles.
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
  EXPECT_EQ(json.find(": -inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\": null"), std::string::npos);

  ResultBatch parsed = from_json(json);
  ASSERT_EQ(parsed.results.size(), 1u);
  const RunResult& p = parsed.results[0];
  ASSERT_EQ(p.metrics.size(), 3u);
  EXPECT_TRUE(std::isnan(p.metrics[0].value));
  EXPECT_TRUE(std::isnan(p.metrics[1].value));  // +/-inf degrade to NaN
  EXPECT_TRUE(std::isnan(p.metrics[2].value));
  ASSERT_TRUE(p.measurement.has_value());
  EXPECT_TRUE(std::isnan(p.measurement->ns_per_op));
  EXPECT_DOUBLE_EQ(p.measurement->mean_ns_per_op, 5.0);
}

TEST(SerializeJsonTest, NumbersAreLocaleIndependentShortestForm) {
  RunResult r;
  r.name = "n";
  r.category = "c";
  r.add("v_us", 0.1, "us");
  r.add("w_us", 26437.5, "us");
  std::string json = to_json(ResultBatch{"host", {r}, {}});
  // Exact shortest decimal forms; a locale-dependent emitter could produce
  // "0,1" (invalid JSON) or a 17-digit expansion.
  EXPECT_NE(json.find("\"value\": 0.1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\": 26437.5"), std::string::npos) << json;
  ResultBatch parsed = from_json(json);
  EXPECT_DOUBLE_EQ(parsed.results[0].metrics[0].value, 0.1);
}

TEST(SerializeJsonTest, MeasurementSampleRoundTripsWithStddev) {
  RunResult r;
  r.name = "lat_pipe";
  r.category = "latency";
  r.add("us", 10.0, "us");
  Measurement m;
  m.ns_per_op = 10000.0;
  m.mean_ns_per_op = 10100.0;
  m.median_ns_per_op = 10050.0;
  m.max_ns_per_op = 10400.0;
  m.sample.add(10000.0);
  m.sample.add(10050.0);
  m.sample.add(10400.0);
  r.measurement = m;

  std::string json = to_json(ResultBatch{"host", {r}, {}});
  EXPECT_NE(json.find("\"stddev_ns_per_op\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": [10000, 10050, 10400]"), std::string::npos) << json;

  ResultBatch parsed = from_json(json);
  ASSERT_TRUE(parsed.results[0].measurement.has_value());
  const Sample& sample = parsed.results[0].measurement->sample;
  ASSERT_EQ(sample.count(), 3u);
  EXPECT_DOUBLE_EQ(sample.min(), 10000.0);
  EXPECT_DOUBLE_EQ(sample.max(), 10400.0);
  EXPECT_NEAR(sample.stddev(), m.sample.stddev(), 1e-9);

  // A single-interval measurement has no spread: stddev is null, never NaN.
  Measurement single;
  single.ns_per_op = 5.0;
  single.sample.add(5.0);
  RunResult one;
  one.name = "one";
  one.category = "latency";
  one.measurement = single;
  json = to_json(ResultBatch{"host", {one}, {}});
  EXPECT_NE(json.find("\"stddev_ns_per_op\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos);
}

// RFC 4180 field splitter (quotes, embedded separators, CRLF-agnostic) —
// the "does it really round-trip" check for the CSV writer.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(field);
      field.clear();
    } else if (c == '\n') {
      row.push_back(field);
      field.clear();
      rows.push_back(row);
      row.clear();
    } else {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(field);
    rows.push_back(row);
  }
  return rows;
}

TEST(SerializeCsvTest, HostileStringsRoundTripPerRfc4180) {
  RunResult r;
  r.name = "bench,with \"commas\"";
  r.category = "cat\negory";
  r.status = RunStatus::kError;
  r.error = "multi\nline, \"quoted\" error\rwith CR";
  std::string csv = to_csv({r});

  auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 2u) << csv;
  ASSERT_EQ(rows[1].size(), 8u) << csv;
  EXPECT_EQ(rows[1][0], "bench,with \"commas\"");
  EXPECT_EQ(rows[1][1], "cat\negory");
  EXPECT_EQ(rows[1][2], "error");
  EXPECT_EQ(rows[1][7], "multi\nline, \"quoted\" error\rwith CR");
}

TEST(SerializeCsvTest, MetricKeyAndUnitWithSeparatorsRoundTrip) {
  RunResult r;
  r.name = "bw";
  r.category = "bandwidth";
  r.add("key,with,commas", 1.5, "MB/s, approx");
  std::string csv = to_csv({r});
  auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 2u) << csv;
  ASSERT_EQ(rows[1].size(), 8u) << csv;
  EXPECT_EQ(rows[1][4], "key,with,commas");
  EXPECT_EQ(rows[1][5], "1.5");
  EXPECT_EQ(rows[1][6], "MB/s, approx");
}

TEST(SerializeJsonTest, CounterTotalsRoundTripAndDeriveRatios) {
  RunResult r;
  r.name = "lat_counted";
  r.category = "latency";
  r.add("us", 1.0, "us");
  Measurement m;
  m.ns_per_op = 1000.0;
  m.iterations = 100;
  m.repetitions = 3;
  obs::CounterTotals totals;
  totals.intervals = 3;
  totals.cycles = 4000.0;
  totals.instructions = 8000.0;
  totals.has_cache = true;
  totals.cache_refs = 1000.0;
  totals.cache_misses = 100.0;
  totals.has_ctx = true;
  totals.ctx_switches = 2.0;
  totals.multiplexed = true;
  m.counters = totals;
  r.measurement = m;

  std::string json = to_json(ResultBatch{"host", {r}, {}});
  // Derived ratios are first-class fields next to the raw totals.
  EXPECT_NE(json.find("\"ipc\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_miss_rate\": 0.1"), std::string::npos) << json;

  ResultBatch parsed = from_json(json);
  ASSERT_EQ(parsed.results.size(), 1u);
  ASSERT_TRUE(parsed.results[0].measurement.has_value());
  ASSERT_TRUE(parsed.results[0].measurement->counters.has_value());
  const obs::CounterTotals& out = *parsed.results[0].measurement->counters;
  EXPECT_EQ(out.intervals, 3);
  EXPECT_DOUBLE_EQ(out.cycles, 4000.0);
  EXPECT_DOUBLE_EQ(out.instructions, 8000.0);
  EXPECT_TRUE(out.has_cache);
  EXPECT_DOUBLE_EQ(out.cache_refs, 1000.0);
  EXPECT_DOUBLE_EQ(out.cache_misses, 100.0);
  EXPECT_TRUE(out.has_ctx);
  EXPECT_DOUBLE_EQ(out.ctx_switches, 2.0);
  EXPECT_TRUE(out.multiplexed);
  EXPECT_DOUBLE_EQ(out.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(out.cache_miss_rate(), 0.1);
}

TEST(SerializeJsonTest, AbsentCountersAreExplicitNullsNotZeros) {
  RunResult r;
  r.name = "lat_uncounted";
  r.category = "latency";
  Measurement m;
  m.ns_per_op = 1000.0;
  m.repetitions = 1;
  r.measurement = m;  // no counters captured

  std::string json = to_json(ResultBatch{"host", {r}, {}});
  EXPECT_NE(json.find("\"ipc\": null"), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss_rate\": null"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": null"), std::string::npos);

  ResultBatch parsed = from_json(json);
  ASSERT_TRUE(parsed.results[0].measurement.has_value());
  EXPECT_FALSE(parsed.results[0].measurement->counters.has_value());
}

TEST(SerializeJsonTest, PartialCountersKeepPerEventNulls) {
  // Bare-VM case: IPC works, cache and ctx events were unavailable.
  RunResult r;
  r.name = "lat_partial";
  r.category = "latency";
  Measurement m;
  m.ns_per_op = 1.0;
  m.repetitions = 1;
  obs::CounterTotals totals;
  totals.intervals = 1;
  totals.cycles = 100.0;
  totals.instructions = 150.0;
  m.counters = totals;
  r.measurement = m;

  std::string json = to_json(ResultBatch{"host", {r}, {}});
  EXPECT_NE(json.find("\"cache_refs\": null"), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ctx_switches\": null"), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss_rate\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ipc\": 1.5"), std::string::npos);

  ResultBatch parsed = from_json(json);
  ASSERT_TRUE(parsed.results[0].measurement->counters.has_value());
  const obs::CounterTotals& out = *parsed.results[0].measurement->counters;
  EXPECT_FALSE(out.has_cache);
  EXPECT_FALSE(out.has_ctx);
  EXPECT_TRUE(std::isnan(out.cache_miss_rate()));
  // Re-serializing the parsed batch must still emit nulls, not zeros.
  std::string again = to_json(ResultBatch{"host", parsed.results, {}});
  EXPECT_NE(again.find("\"cache_refs\": null"), std::string::npos);
}

TEST(SerializeJsonTest, EnvironmentRoundTripsAndAbsenceIsNull) {
  obs::RunEnvironment env;
  env.hostname = "bench-01";
  env.kernel = "6.1.0-test";
  env.governor = "performance";
  env.turbo = "off";
  env.compiler = "gcc 12.2.0";
  env.warnings = {"cpu governor is 'powersave'"};

  ResultBatch batch{"host", sample_batch(), {}, env};
  std::string json = to_json(batch);
  EXPECT_NE(json.find("\"environment\""), std::string::npos);
  EXPECT_NE(json.find("\"governor\": \"performance\""), std::string::npos);

  ResultBatch parsed = from_json(json);
  ASSERT_TRUE(parsed.environment.has_value());
  EXPECT_EQ(parsed.environment->hostname, "bench-01");
  EXPECT_EQ(parsed.environment->kernel, "6.1.0-test");
  EXPECT_EQ(parsed.environment->governor, "performance");
  EXPECT_EQ(parsed.environment->turbo, "off");
  EXPECT_EQ(parsed.environment->compiler, "gcc 12.2.0");
  ASSERT_EQ(parsed.environment->warnings.size(), 1u);
  EXPECT_EQ(parsed.environment->warnings[0], "cpu governor is 'powersave'");

  // A batch without a snapshot (older producer) carries an explicit null.
  std::string bare = to_json(ResultBatch{"host", sample_batch(), {}});
  EXPECT_NE(bare.find("\"environment\": null"), std::string::npos);
  EXPECT_FALSE(from_json(bare).environment.has_value());
}

TEST(SerializeCsvTest, NonFiniteValuesAreBlankCellsNotText) {
  RunResult r;
  r.name = "odd";
  r.category = "latency";
  r.add("nan_us", std::numeric_limits<double>::quiet_NaN(), "us");
  std::string csv = to_csv({r});
  auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 2u) << csv;
  EXPECT_EQ(rows[1][4], "nan_us");
  EXPECT_EQ(rows[1][5], "");  // absence, not "nan"/"null"/0
}

}  // namespace
}  // namespace lmb::report
