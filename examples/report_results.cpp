// report_results: the classic lmbench-style multi-section summary, one
// column per lmbenchpp.results.v1 document (run_suite --json=...).
//
//   ./build/examples/report_results a.json b.json            # compare saved runs
//   ./build/examples/report_results --quick --json=mine.json # measure, print, save
//   ./build/examples/report_results --measure a.json         # measure + compare
//
// With no files, or with --measure, the summary's benchmarks run here
// through the suite service, so run_suite's flags and exit codes apply.
#include <cstdio>

#include "src/core/options.h"
#include "src/report/summary.h"
#include "src/svc/bench_service.h"
#include "src/sys/fdio.h"

int main(int argc, char** argv) try {
  using namespace lmb;
  Options opts = Options::parse(argc, argv);
  svc::RunRequest request = svc::RunRequest::from_options(opts);

  std::vector<report::ResultBatch> batches;
  for (const std::string& path : opts.positionals()) {
    batches.push_back(report::from_json(sys::read_file(path)));
    std::printf("loaded %zu result(s) from %s\n", batches.back().results.size(), path.c_str());
  }

  int exit_code = 0;
  if (batches.empty() || opts.get_bool("measure")) {
    if (request.names.empty() && request.category.empty()) {
      request.names = report::summary_benchmarks();
    }
    std::printf("measuring this machine");
    std::fflush(stdout);
    // Static for the lifetime rule in bench_service.h.
    static svc::BenchService service;
    svc::RunArtifacts artifacts = service.run(request, [](const svc::ServiceEvent& event) {
      if (event.kind == svc::ServiceEvent::Kind::kBenchFinish) {
        std::printf(".");
        std::fflush(stdout);
      }
    });
    std::printf(" done (%zu metrics, %d failures)\n", artifacts.metric_count, artifacts.failed);
    exit_code = artifacts.exit_code();
    batches.push_back(std::move(artifacts.batch));
  }

  std::printf("\n%s", report::render_summary(batches).c_str());
  return exit_code;
} catch (const std::exception& e) {
  std::fprintf(stderr, "report_results: %s\n", e.what());
  return 2;
}
