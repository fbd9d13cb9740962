// lmbench_compare: the noise-aware diff over the results database —
// "compare two runs and tell me what actually changed" (paper §3.5's whole
// reason for storing results, §4.1's table conventions for showing them).
//
//   ./build/examples/lmbench_compare BASELINE.json CURRENT.json [options]
//   ./build/examples/lmbench_compare --baseline-dir=DIR CURRENT.json [options]
//
//   BASELINE/CURRENT   lmbenchpp.results.v1 documents (run_suite --json=...)
//   --baseline-dir=DIR compare CURRENT against the newest run of its host
//                      in a trend store (src/db/trend_store.h) instead of
//                      an explicit file
//   --save             append CURRENT to --baseline-dir after comparing
//                      (establishes the baseline when the store holds no
//                      run of CURRENT's host)
//   --floor=PCT        significance floor in percent (default 5): deltas
//                      below it never count, whatever the measured noise
//   --sigmas=N         multiplier on the per-metric noise interval
//                      (default 3)
//   --confidence=C     Student-t confidence level for the noise interval:
//                      0.90, 0.95 (default), or 0.99
//   --assume-noise=PCT assumed relative noise (percent) for metrics whose
//                      result stored no repetition sample (default 0: the
//                      floor alone gates them); shared CI runners typically
//                      want 10-25
//   --json=PATH        write the comparison as lmbenchpp.compare.v1 JSON
//                      (CI artifact, e.g. BENCH_compare.json)
//   --max-rows=N       print at most N table rows (full detail still goes
//                      to --json); 0 = all (default)
//   --no-gate          always exit 0, even with regressions
//   --no-env-gate      don't fail on mismatched environments (for deliberate
//                      cross-system or cross-config comparisons); the
//                      provenance diff still prints
//
// The provenance diff (environment blocks of the two batches, recorded by
// run_suite) always prints, gates or not: a metric delta between a
// governor=performance baseline and a governor=powersave candidate compares
// configuration, not code.
//
// Exit status: 0 = no regressions (or --no-gate), 1 = regressions beyond
// the noise gate, 2 = usage or I/O error, 4 = significant environment
// mismatch between the batches (suppress with --no-env-gate; regressions
// take precedence, so 1 wins when both fire).
#include <cstdio>
#include <optional>
#include <string>

#include "src/core/options.h"
#include "src/db/trend_store.h"
#include "src/report/compare.h"
#include "src/report/serialize.h"
#include "src/sys/fdio.h"

namespace {

using namespace lmb;

int usage() {
  std::fprintf(stderr,
               "usage: lmbench_compare BASELINE.json CURRENT.json [--floor=PCT] [--sigmas=N]\n"
               "                       [--confidence=C] [--json=PATH] [--max-rows=N] [--no-gate]\n"
               "                       [--no-env-gate]\n"
               "       lmbench_compare --baseline-dir=DIR CURRENT.json [--save] [options]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts = Options::parse(argc, argv);
  const std::vector<std::string>& pos = opts.positionals();
  std::string baseline_dir = opts.get_string("baseline-dir", "");

  std::optional<report::ResultBatch> baseline;
  report::ResultBatch current;
  db::TrendStore store(baseline_dir);
  if (baseline_dir.empty()) {
    if (pos.size() != 2) {
      return usage();
    }
    baseline = report::from_json(sys::read_file(pos[0]));
    current = report::from_json(sys::read_file(pos[1]));
  } else {
    if (pos.size() != 1) {
      return usage();
    }
    current = report::from_json(sys::read_file(pos[0]));
    baseline = store.latest(current.system);
  }

  if (!baseline.has_value()) {
    // Only reachable in --baseline-dir mode.
    if (opts.get_bool("save")) {
      long seq = store.append(current);
      std::printf("no baseline in %s yet; established one: run %ld\n", baseline_dir.c_str(),
                  seq);
      return 0;
    }
    std::fprintf(stderr, "lmbench_compare: no baseline in %s (rerun with --save)\n",
                 baseline_dir.c_str());
    return 2;
  }

  report::CompareThresholds thresholds;
  thresholds.floor_rel = opts.get_double("floor", 5.0) / 100.0;
  thresholds.sigmas = opts.get_double("sigmas", 3.0);
  thresholds.confidence = opts.get_double("confidence", 0.95);
  thresholds.fallback_noise_rel = opts.get_double("assume-noise", 0.0) / 100.0;
  if (thresholds.floor_rel < 0 || thresholds.sigmas < 0 || thresholds.fallback_noise_rel < 0) {
    std::fprintf(stderr,
                 "lmbench_compare: --floor, --sigmas, and --assume-noise must be >= 0\n");
    return 2;
  }

  report::CompareReport cmp = report::compare_batches(*baseline, current, thresholds);

  std::string table = report::render_compare_table(cmp);
  long max_rows = opts.get_int("max-rows", 0);
  if (max_rows > 0) {
    // Keep the title + header + worst max_rows rows; the table is sorted
    // worst-regression-first, so truncation drops only the quiet tail.
    size_t line = 0;
    size_t pos_nl = 0;
    size_t keep = static_cast<size_t>(max_rows) + 3;  // title, header, underline
    while (line < keep && pos_nl != std::string::npos) {
      pos_nl = table.find('\n', pos_nl == 0 ? 0 : pos_nl + 1);
      ++line;
    }
    if (pos_nl != std::string::npos) {
      size_t total_rows = cmp.deltas.size();
      table = table.substr(0, pos_nl + 1) + "... (" +
              std::to_string(total_rows - static_cast<size_t>(max_rows)) + " more rows)\n";
    }
  }
  std::fputs(table.c_str(), stdout);

  // Provenance diff prints unconditionally — gate or not, a comparison
  // across different environments should say so in the output.
  std::fputs(report::render_environment_diff(cmp).c_str(), stdout);

  std::string json_path = opts.get_string("json", "");
  if (!json_path.empty()) {
    sys::write_file(json_path, report::compare_to_json(cmp));
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!baseline_dir.empty() && opts.get_bool("save")) {
    std::printf("saved new baseline: run %ld\n", store.append(current));
  }

  if (cmp.has_regressions() && !opts.get_bool("no-gate")) {
    return 1;
  }
  if (cmp.env_mismatch() && !opts.get_bool("no-env-gate")) {
    std::fprintf(stderr,
                 "lmbench_compare: environments differ in significant fields; "
                 "exit 4 (use --no-env-gate for deliberate cross-config comparisons)\n");
    return 4;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "lmbench_compare: %s\n", e.what());
  return 2;
}
