#include "src/db/trend_store.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <regex>
#include <stdexcept>

#include "src/obs/run_env.h"
#include "src/report/json.h"
#include "src/sys/fdio.h"

namespace lmb::db {

namespace {

namespace fs = std::filesystem;

constexpr const char* kRunLog = "runs.jsonl";
constexpr const char* kSuffix = ".jsonl";

// Splits a JSONL file into lines, parsing each; lines that fail to parse
// (a torn tail from a crashed writer, editor damage) are skipped — history
// degrades by a point instead of becoming unreadable.
std::vector<report::JsonValue> read_jsonl(const std::string& path) {
  std::vector<report::JsonValue> out;
  std::string text;
  try {
    text = sys::read_file(path);
  } catch (const std::exception&) {
    return out;  // missing shard file == empty history
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      out.push_back(report::parse_json(line));
    } catch (const std::exception&) {
      // Skipped: unparseable line.
    }
  }
  return out;
}

long seq_of(const report::JsonValue& line) {
  const report::JsonValue* seq = report::find(line.object(), "seq");
  if (seq == nullptr) {
    throw std::invalid_argument("trend line without seq");
  }
  return report::checked_integer<long>(*seq, "seq");
}

// Appends one JSONL record.  A torn tail (a crashed writer's partial last
// line, no newline) is closed off first, so it stays one skipped line
// instead of swallowing this record too.
void append_record(const std::string& path, const std::string& record) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  bool torn = in && in.tellg() > 0 && in.seekg(-1, std::ios::end) && in.get() != '\n';
  sys::append_file(path, torn ? "\n" + record : record);
}

}  // namespace

TrendStore::TrendStore(std::string dir) : dir_(std::move(dir)) {}

std::string TrendStore::shard_name(const std::string& system) {
  std::string out = system.empty() ? std::string("unknown") : system;
  for (char& c : out) {
    bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == '-';
    if (!ok) {
      c = '-';
    }
  }
  return out;
}

long TrendStore::append(const report::ResultBatch& batch) {
  std::string shard = shard_name(batch.system);
  fs::path shard_dir = fs::path(dir_) / shard;
  std::error_code ec;
  fs::create_directories(shard_dir, ec);
  if (ec) {
    throw std::runtime_error("trend store: cannot create " + shard_dir.string() + ": " +
                             ec.message());
  }

  // Next sequence number: max over the valid run-log lines, +1.  A torn
  // tail parses as nothing and simply doesn't advance the counter.
  long seq = 0;
  for (const report::JsonValue& line : read_jsonl((shard_dir / kRunLog).string())) {
    try {
      seq = std::max(seq, seq_of(line));
    } catch (const std::exception&) {
    }
  }
  ++seq;

  int recorded = 0;
  for (const RunResult& r : batch.results) {
    if (!r.ok() || r.metrics.empty()) {
      continue;
    }
    std::string line = "{\"seq\":" + std::to_string(seq) +
                       ",\"wall_ms\":" + report::json_double(r.wall_ms) + ",\"metrics\":[";
    bool first = true;
    for (const Metric& m : r.metrics) {
      if (!first) {
        line += ',';
      }
      first = false;
      line += "{\"key\":" + report::json_quote(m.key) +
              ",\"value\":" + report::json_double(m.value) +
              ",\"unit\":" + report::json_quote(m.unit) + "}";
    }
    line += "]";
    if (r.measurement.has_value()) {
      line += ",\"measurement\":";
      report::append_measurement_json(line, *r.measurement, "");
    }
    line += "}\n";
    append_record((shard_dir / (shard_name(r.name) + kSuffix)).string(), line);
    ++recorded;
  }

  // Run log last: a run is only visible in `runs` once its benchmark
  // lines are on disk.
  double wall_ms =
      batch.timing.has_value() ? batch.timing->total_wall_ms : 0.0;
  std::string line = "{\"seq\":" + std::to_string(seq) +
                     ",\"system\":" + report::json_quote(batch.system) +
                     ",\"total_wall_ms\":" + report::json_double(wall_ms) +
                     ",\"results\":" + std::to_string(recorded) + ",\"env\":{";
  if (batch.environment.has_value()) {
    bool first = true;
    for (const obs::EnvField& field : obs::environment_fields(*batch.environment)) {
      if (field.value.empty()) {
        continue;
      }
      if (!first) {
        line += ',';
      }
      first = false;
      line += report::json_quote(field.name) + ":" + report::json_quote(field.value);
    }
  }
  line += "}}\n";
  append_record((shard_dir / kRunLog).string(), line);
  return seq;
}

std::vector<std::string> TrendStore::hosts() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_directory()) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> TrendStore::benches(const std::string& host) const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(fs::path(dir_) / host, ec)) {
    std::string name = entry.path().filename().string();
    if (name == kRunLog || entry.path().extension() != kSuffix) {
      continue;
    }
    out.push_back(entry.path().stem().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TrendRun> TrendStore::runs(const std::string& host) const {
  std::vector<TrendRun> out;
  for (const report::JsonValue& line : read_jsonl((fs::path(dir_) / host / kRunLog).string())) {
    try {
      const report::JsonObject& obj = line.object();
      TrendRun run;
      run.seq = seq_of(line);
      if (const report::JsonValue* v = report::find(obj, "system")) {
        run.system = v->str();
      }
      if (const report::JsonValue* v = report::find(obj, "total_wall_ms")) {
        run.total_wall_ms = report::number_or_nan(*v);
      }
      if (const report::JsonValue* v = report::find(obj, "results")) {
        run.results = report::checked_integer<int>(*v, "results");
      }
      if (const report::JsonValue* v = report::find(obj, "env")) {
        for (const auto& [name, value] : v->object()) {
          run.env[name] = value.str();
        }
      }
      out.push_back(std::move(run));
    } catch (const std::exception&) {
      // Skipped: malformed run record.
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TrendRun& a, const TrendRun& b) { return a.seq < b.seq; });
  return out;
}

std::vector<TrendSeries> TrendStore::series(const std::string& host,
                                            const std::string& bench) const {
  std::map<std::string, TrendSeries> by_key;
  std::string path = (fs::path(dir_) / host / (shard_name(bench) + kSuffix)).string();
  for (const report::JsonValue& line : read_jsonl(path)) {
    try {
      long seq = seq_of(line);
      const report::JsonValue* metrics = report::find(line.object(), "metrics");
      if (metrics == nullptr) {
        continue;
      }
      for (const report::JsonValue& metric : metrics->array()) {
        const report::JsonObject& obj = metric.object();
        const report::JsonValue* key = report::find(obj, "key");
        const report::JsonValue* value = report::find(obj, "value");
        if (key == nullptr || value == nullptr) {
          continue;
        }
        double v = report::number_or_nan(*value);
        if (!std::isfinite(v)) {
          continue;  // an explicitly-missing measurement is not a point
        }
        TrendSeries& series = by_key[key->str()];
        if (series.key.empty()) {
          series.host = host;
          series.bench = bench;
          series.key = key->str();
        }
        if (const report::JsonValue* unit = report::find(obj, "unit")) {
          series.unit = unit->str();
        }
        series.points.push_back({seq, v});
      }
    } catch (const std::exception&) {
      // Skipped: malformed benchmark record.
    }
  }
  std::vector<TrendSeries> out;
  out.reserve(by_key.size());
  for (auto& [key, series] : by_key) {
    std::sort(series.points.begin(), series.points.end(),
              [](const TrendPoint& a, const TrendPoint& b) { return a.seq < b.seq; });
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<TrendSeries> TrendStore::all_series(const std::string& host) const {
  std::vector<TrendSeries> out;
  for (const std::string& bench : benches(host)) {
    std::vector<TrendSeries> per_bench = series(host, bench);
    out.insert(out.end(), std::make_move_iterator(per_bench.begin()),
               std::make_move_iterator(per_bench.end()));
  }
  return out;
}

std::optional<report::ResultBatch> TrendStore::latest(const std::string& system) const {
  const std::string host = shard_name(system);
  std::vector<TrendRun> log = runs(host);
  auto run = std::find_if(log.rbegin(), log.rend(),
                          [&](const TrendRun& r) { return r.system == system; });
  if (run == log.rend()) {
    return std::nullopt;
  }
  report::ResultBatch batch;
  batch.system = run->system;
  if (!run->env.empty()) {
    batch.environment.emplace();
    for (const auto& [name, value] : run->env) {
      obs::set_environment_field(*batch.environment, name, value);
    }
  }
  for (const std::string& bench : benches(host)) {
    std::optional<RunResult> result;
    for (const report::JsonValue& line :
         read_jsonl((fs::path(dir_) / host / (bench + kSuffix)).string())) {
      try {
        // The later of two same-numbered lines wins: a crashed append can
        // leave one whose number the next append reused.
        if (seq_of(line) == run->seq) {
          result = report::result_from_json(line);
          result->name = bench;
        }
      } catch (const std::exception&) {
        // Skipped: malformed benchmark record.
      }
    }
    if (result.has_value()) {
      batch.results.push_back(std::move(*result));
    }
  }
  return batch;
}

void TrendStore::compact(size_t keep) {
  for (const std::string& host : hosts()) {
    fs::path shard_dir = fs::path(dir_) / host;
    std::vector<std::string> files;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(shard_dir, ec)) {
      if (entry.path().extension() == kSuffix) {
        files.push_back(entry.path().string());
      }
    }
    for (const std::string& path : files) {
      std::vector<report::JsonValue> lines = read_jsonl(path);
      // Newest-by-sequence wins; unparseable lines were already dropped.
      std::stable_sort(lines.begin(), lines.end(),
                       [](const report::JsonValue& a, const report::JsonValue& b) {
                         long sa = 0, sb = 0;
                         try {
                           sa = seq_of(a);
                         } catch (const std::exception&) {
                         }
                         try {
                           sb = seq_of(b);
                         } catch (const std::exception&) {
                         }
                         return sa < sb;
                       });
      if (lines.size() > keep) {
        lines.erase(lines.begin(), lines.end() - static_cast<long>(keep));
      }
      std::string text;
      for (const report::JsonValue& line : lines) {
        text += report::to_text(line);
        text += '\n';
      }
      // Rewrite via rename so a crash mid-compaction cannot lose the shard.
      std::string tmp = path + ".tmp";
      sys::write_file(tmp, text);
      fs::rename(tmp, path);
    }
  }
}

size_t TrendStore::import_baselines(const std::string& baseline_dir) {
  // Zero-padded sequence numbers: name order is oldest first.
  static const std::regex kEntry("baseline-[0-9]+\\.json");
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(baseline_dir, ec)) {
    if (std::regex_match(entry.path().filename().string(), kEntry)) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  size_t imported = 0;
  for (const std::string& path : paths) {
    try {
      append(report::from_json(sys::read_file(path)));
      ++imported;
    } catch (const std::exception&) {
      // Skipped: corrupt baseline entry.
    }
  }
  return imported;
}

}  // namespace lmb::db
