// lmbench_heatmap: render saved time × latency heatmap documents.
//
//   ./build/examples/lmbench_heatmap FILE...
//
// Each FILE is either a results JSON from run_suite (lmbenchpp.results.v1),
// in which case every benchmark carrying a `heatmap_*` metadata entry is
// rendered, or a bare lmbenchpp.heatmap.v1 document (what older releases
// saved on their own, and what a results entry's `heatmap_*` value holds).
//
// Exit codes: 0 ok, 1 no heatmap found / unreadable input, 2 usage.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/options.h"
#include "src/report/heatmap.h"
#include "src/report/json.h"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Renders every heatmap document found in `text`; returns how many.
int render_all(const std::string& text) {
  using lmb::report::JsonValue;
  const JsonValue doc = lmb::report::parse_json(text);
  const lmb::report::JsonObject& obj = doc.object();
  const JsonValue* schema = lmb::report::find(obj, "schema");
  if (schema != nullptr && schema->str() == "lmbenchpp.heatmap.v1") {
    std::printf("%s\n", lmb::report::render_heatmap(lmb::report::heatmap_from_json(text)).c_str());
    return 1;
  }
  // Results document: walk results[].metadata for embedded heatmaps.
  int rendered = 0;
  if (const JsonValue* benches = lmb::report::find(obj, "results")) {
    for (const JsonValue& b : benches->array()) {
      const JsonValue* meta = lmb::report::find(b.object(), "metadata");
      if (meta == nullptr || meta->is_null()) {
        continue;
      }
      for (const auto& [key, value] : meta->object()) {
        if (key.rfind("heatmap_", 0) != 0) {
          continue;
        }
        std::printf("%s\n",
                    lmb::report::render_heatmap(lmb::report::heatmap_from_json(value.str()))
                        .c_str());
        ++rendered;
      }
    }
  }
  return rendered;
}

}  // namespace

int main(int argc, char** argv) try {
  lmb::Options opts = lmb::Options::parse(argc, argv);
  if (opts.positionals().empty()) {
    std::fprintf(stderr, "usage: lmbench_heatmap FILE...\n"
                         "  FILE: lmbenchpp.heatmap.v1 or lmbenchpp.results.v1 JSON\n");
    return 2;
  }
  int rendered = 0;
  for (const std::string& path : opts.positionals()) {
    rendered += render_all(slurp(path));
  }
  if (rendered == 0) {
    std::fprintf(stderr, "lmbench_heatmap: no heatmap documents found\n");
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "lmbench_heatmap: %s\n", e.what());
  return 1;
}
