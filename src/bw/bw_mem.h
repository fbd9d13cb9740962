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
  // Kernel implementation for the unrolled copy/read/write/rdwr/bzero ops
  // (kCopyLibc always uses memcpy).  kAuto picks the best the CPU supports;
  // the --kernel= flag maps here.
  KernelVariant kernel = KernelVariant::kAuto;
  TimingPolicy policy = TimingPolicy::standard();
};

enum class MemOp {
  kCopyLibc,      // memcpy
  kCopyUnrolled,  // hand-unrolled aligned 8-byte load/store
  kReadSum,       // unrolled read + sum
  kWrite,         // unrolled store
  kBzero,         // memset (lmbench bw_mem's bzero case)
  kReadWrite,     // unrolled read-modify-write (lmbench bw_mem's rdwr case)
};

const char* mem_op_name(MemOp op);

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

// One kernel variant's outcome in an interleaved comparison.
struct KernelCompareEntry {
  KernelVariant variant = KernelVariant::kScalar;
  double mb_per_sec = 0.0;  // from the variant's min ns/op across rounds
};

// Outcome of comparing every available kernel variant on one operation.
struct KernelCompareResult {
  MemOp op = MemOp::kCopyUnrolled;
  size_t bytes = 0;
  // entries[i] corresponds to ab.variants[i]; [0] is the scalar baseline.
  std::vector<KernelCompareEntry> entries;
  // The paired-delta statistics and the recorded interleaving order
  // (src/core/timing.h).  ab.deltas[i-1] judges entries[i] against scalar.
  AbComparison ab;
};

// Compares every kernel variant this host supports on `op` with randomized
// A/B interleaving (compare_interleaved): all variants share one buffer and
// one calibrated iteration count, each round times each variant once in
// shuffled order, and per-round paired deltas against the scalar baseline
// cancel drift that a sequential variant-by-variant comparison would absorb
// into whichever variant ran last.  `rounds <= 0` uses policy.repetitions.
KernelCompareResult compare_kernels_interleaved(MemOp op, const MemBwConfig& config = {},
                                                int rounds = 0);

}  // namespace lmb::bw

#endif  // LMBENCHPP_SRC_BW_BW_MEM_H_
