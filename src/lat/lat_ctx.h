// Context switching — paper §6.6, Figure 2, Table 10.
//
// "The context switch benchmark is implemented as a ring of two to twenty
// processes that are connected with Unix pipes.  A token is passed from
// process to process, forcing context switches."  The cost of passing the
// token itself (pipe read/write plus summing the cache footprint) is
// measured separately in a single process and subtracted, and each process
// carries an artificial cache footprint that it sums on every token receipt.
#ifndef LMBENCHPP_SRC_LAT_LAT_CTX_H_
#define LMBENCHPP_SRC_LAT_LAT_CTX_H_

#include <cstddef>
#include <vector>

#include "src/core/timing.h"

namespace lmb::lat {

struct CtxConfig {
  // Ring size, including the parent (paper: 2 to 20).
  int processes = 2;
  static constexpr int kMinProcesses = 2;
  static constexpr int kMaxProcesses = 64;
  // Per-process array summed on each token receipt (paper: 0 to 64 KB).
  size_t footprint_bytes = 0;
  // Total token hops per timed run (paper: 2000).
  int token_passes = 2000;
  // Timed runs; minimum taken (§3.4: up to 30% variance on this benchmark).
  int repetitions = 5;

  static CtxConfig quick() {
    CtxConfig c;
    c.token_passes = 300;
    c.repetitions = 2;
    return c;
  }
};

struct CtxResult {
  int processes = 0;
  size_t footprint_bytes = 0;
  // Per-switch time with the token-passing overhead subtracted (the number
  // Figure 2 and Table 10 report).
  double ctx_us = 0.0;
  // Token-pass cost per hop, measured in a single process (the "overhead="
  // labels in Figure 2's legend).
  double overhead_us = 0.0;
  // Raw per-hop time in the ring (ctx_us + overhead_us).
  double raw_us = 0.0;
};

// One configuration.
CtxResult measure_ctx(const CtxConfig& config = {});

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LAT_CTX_H_
