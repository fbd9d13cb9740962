// Bandwidth-scaling reports: aggregate MB/s vs worker count.
//
// The parallel bandwidth sweep (src/bw/parallel.h) emits metrics named
// "<op>_p<N>_mbs" on its RunResult.  This module turns those metrics back
// into per-operation series and renders them as a paper-style table
// (threads down, operations across, speedup vs one worker) plus an ASCII
// plot of MB/s against threads — the figure the lmbench3/STREAM scaling
// studies print.
#ifndef LMBENCHPP_SRC_REPORT_SCALING_H_
#define LMBENCHPP_SRC_REPORT_SCALING_H_

#include <string>
#include <vector>

#include "src/core/run_result.h"

namespace lmb::report {

struct ScalingPoint {
  int threads = 0;
  double mb_per_sec = 0.0;
};

struct ScalingSeries {
  std::string op;  // "copy", "read", ...
  std::vector<ScalingPoint> points;  // sorted by threads ascending
};

// Extracts every "<op>_p<N>_mbs" metric from `result` into one series per
// op, points sorted by thread count.  Results without such metrics yield an
// empty vector.  Op order follows first appearance in the metric list.
std::vector<ScalingSeries> extract_scaling(const RunResult& result);

// "Memory bandwidth scaling" table: one row per thread count, one MB/s
// column per op, and a speedup column (first op's aggregate relative to its
// 1-worker row, "--" when there is no p1 point).
std::string render_scaling_table(const std::vector<ScalingSeries>& series);

// ASCII plot of aggregate MB/s vs threads, one plot series per op.
// Empty string when there is nothing to plot.
std::string render_scaling_plot(const std::vector<ScalingSeries>& series);

// Table followed by plot (run_suite's display block for bw_mem_par).
std::string render_scaling_report(const std::vector<ScalingSeries>& series);

}  // namespace lmb::report

#endif  // LMBENCHPP_SRC_REPORT_SCALING_H_
