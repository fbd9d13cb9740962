// paper_tables: the paper's 17 tables and 2 figures, each with rows
// measured on this machine, printed from one lmbenchpp.results.v1 batch
// (paper §3.5: "All of the tables in this paper were produced from the
// database included in lmbench").
//
//   ./build/examples/paper_tables --quick                    # measure, print all
//   ./build/examples/paper_tables --tables=2,10,fig1         # measure, print these
//   ./build/examples/paper_tables --quick --json=paper.json  # ... and save the batch
//   ./build/examples/paper_tables paper.json                 # render a saved batch
//
// Measuring runs db::paper_plan as one request through the suite service,
// so run_suite's flags apply (--json, --trace, --clock, --cal-cache,
// --trend-store, --timeout, ...), and every result whose plan entry had
// args carries them as metadata["args"].  Given results.v1 files, it only
// renders them, as report_results does.  Tables go to stdout and progress
// to stderr, so a batch renders the same whether just measured or loaded.
//
//   --tables=ID,...  1..17, fig1, fig2 (default: all); measures only what
//                    those read.  An unknown id is a usage error (exit 2)
//
// Exit codes: 0 ok, 1 a benchmark failed, 2 usage error, 3 --gate tripped.
#include <cstdio>

#include "src/core/options.h"
#include "src/db/paper_tables.h"
#include "src/svc/bench_service.h"
#include "src/sys/fdio.h"

namespace {

using namespace lmb;

// Progress goes to stderr, so stdout holds only the tables.
void progress(const svc::ServiceEvent& event) {
  if (event.kind == svc::ServiceEvent::Kind::kSuiteStart) {
    for (const std::string& warning : event.warnings) {
      std::fprintf(stderr, "paper_tables: warning: %s\n", warning.c_str());
    }
  } else if (event.kind == svc::ServiceEvent::Kind::kBenchFinish) {
    auto args = event.result->metadata.find("args");
    std::fprintf(stderr, "[%d/%d] %s %s  %s\n", event.index + 1, event.total, event.name.c_str(),
                 args == event.result->metadata.end() ? "" : args->second.c_str(),
                 event.result->summary().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts = Options::parse(argc, argv);
  std::vector<std::string> tables = opts.get_list("tables");

  std::vector<report::ResultBatch> batches;
  for (const std::string& path : opts.positionals()) {
    batches.push_back(report::from_json(sys::read_file(path)));
  }

  int exit_code = 0;
  if (batches.empty()) {
    svc::RunRequest request = svc::RunRequest::from_options(opts);
    request.entries = db::paper_plan(opts.quick(), tables);
    // Static for the lifetime rule in bench_service.h.
    static svc::BenchService service;
    svc::RunArtifacts artifacts = service.run(request, progress);
    if (!artifacts.cal_save_error.empty()) {
      std::fprintf(stderr, "paper_tables: could not save calibration cache: %s\n",
                   artifacts.cal_save_error.c_str());
    }
    std::fprintf(stderr, "measured %zu entries on %s in %.1f s, %d failures\n",
                 request.entries.size(), artifacts.batch.system.c_str(),
                 artifacts.total_wall_ms / 1e3, artifacts.failed);
    exit_code = artifacts.exit_code();
    batches.push_back(std::move(artifacts.batch));
  }

  for (const report::ResultBatch& batch : batches) {
    std::fputs(db::render_paper(batch, tables).c_str(), stdout);
  }
  return exit_code;
} catch (const std::exception& e) {
  std::fprintf(stderr, "paper_tables: %s\n", e.what());
  return 2;
}
