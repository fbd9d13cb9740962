// Shared helpers for the ablation and extension bench binaries.
#ifndef LMBENCHPP_BENCH_BENCH_UTIL_H_
#define LMBENCHPP_BENCH_BENCH_UTIL_H_

#include <string>

#include "src/core/options.h"

namespace lmb::benchx {

inline Options parse_options(int argc, char** argv) { return Options::parse(argc, argv); }

// Standard preamble: experiment id + what the numbers mean.
void print_header(const std::string& experiment, const std::string& description);

}  // namespace lmb::benchx

#endif  // LMBENCHPP_BENCH_BENCH_UTIL_H_
