#include "bench/bench_util.h"

#include <cstdio>

namespace lmb::benchx {

void print_header(const std::string& experiment, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), description.c_str());
  std::printf("lmbench++ reproduction of McVoy & Staelin, USENIX '96\n");
  std::printf("==============================================================\n");
}

}  // namespace lmb::benchx
