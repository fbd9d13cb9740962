// Multi-section suite summary: one column per results batch, one row per
// headline metric — the classic lmbench results summary (§3.5).
#ifndef LMBENCHPP_SRC_REPORT_SUMMARY_H_
#define LMBENCHPP_SRC_REPORT_SUMMARY_H_

#include <string>
#include <vector>

#include "src/report/serialize.h"

namespace lmb::report {

// The benchmarks the summary's rows come from, each once, in row order.
std::vector<std::string> summary_benchmarks();

// Renders `batches` as sectioned comparison tables, one column per batch
// (headed by its system label) in the given order.  Each row is one
// (benchmark, metric key) pair; a metric that is absent, null, or belongs
// to a non-ok result renders "--".  With 2+ batches the best value per row
// is marked '*' in the direction of the row's unit (direction_for_unit).
std::string render_summary(const std::vector<ResultBatch>& batches);

}  // namespace lmb::report

#endif  // LMBENCHPP_SRC_REPORT_SUMMARY_H_
