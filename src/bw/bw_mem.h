// Memory bandwidth benchmarks — paper Table 2.
//
// Measures copy (libc and unrolled), read, and write bandwidth over a
// configurable buffer size.  The default 8 MB-to-8 MB copy "largely defeats
// any second-level cache in use today" (§5.1); smaller sizes deliberately
// measure cache bandwidth.  All of one call's operations share one buffer
// pair, mapped and first-touched once.
#ifndef LMBENCHPP_SRC_BW_BW_MEM_H_
#define LMBENCHPP_SRC_BW_BW_MEM_H_

#include <cstddef>
#include <vector>

#include "src/bw/kernels.h"
#include "src/core/timing.h"

namespace lmb::bw {

struct MemBwConfig {
  // Bytes per buffer (source and destination each this large).  Any size
  // of at least one 8-byte word is measurable (kernels handle odd tails).
  size_t bytes = 8u << 20;
  // Kernel implementation for the unrolled copy/read/write ops (kCopyLibc
  // always uses memcpy).  kAuto picks the best the CPU supports; the
  // --kernel= flag maps here.
  KernelVariant kernel = KernelVariant::kAuto;
  TimingPolicy policy = TimingPolicy::standard();
};

enum class MemOp {
  kCopyLibc,      // memcpy
  kCopyUnrolled,  // hand-unrolled aligned 8-byte load/store
  kReadSum,       // unrolled read + sum
  kWrite,         // unrolled store
};

const char* mem_op_name(MemOp op);

// The timed body of one operation: runs it `iters` times over `words`
// 8-byte words of src/dst through `ks`, which it holds by reference (the
// tables kernels_for() returns live for the program).  Single-stream and
// parallel bandwidth time this same body.
BenchFn mem_op_body(MemOp op, const KernelSet& ks, std::uint64_t* src, std::uint64_t* dst,
                    size_t words);

struct MemBwResult {
  MemOp op;
  size_t bytes = 0;
  // MB/s of *bytes touched by the benchmark definition* — i.e. the paper's
  // convention: a copy of N bytes counts N (not 2N) bytes.
  double mb_per_sec = 0.0;
  Measurement detail;
};

// Runs each operation in `ops`, in order, one measure() each, on one
// source/destination pair that is mapped and first-touched once.  The two
// buffers are laid out so they do not collide in a direct-mapped cache
// (offset by a few cache lines).
std::vector<MemBwResult> measure_mem_bw(const std::vector<MemOp>& ops,
                                        const MemBwConfig& config = {});

// Full Table-2 row: the four operations (libc copy, unrolled copy, read,
// write) on one buffer pair at the configured size.
std::vector<MemBwResult> measure_mem_bw_all(const MemBwConfig& config = {});

}  // namespace lmb::bw

#endif  // LMBENCHPP_SRC_BW_BW_MEM_H_
