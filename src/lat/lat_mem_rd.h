// Memory read (back-to-back-load) latency — paper §6.1/§6.2, Figure 1.
//
// "The benchmark varies two parameters, array size and array stride.  For
// each size, a list of pointers is created for all of the different strides.
// Then the list is walked thus:  mov r4,(r4)  # p = *p".
//
// lmbench measures *back-to-back-load* latency: every load depends on the
// previous one, so the measured time per load is the full cache-miss service
// time, the quantity the paper argues software developers actually see.
#ifndef LMBENCHPP_SRC_LAT_LAT_MEM_RD_H_
#define LMBENCHPP_SRC_LAT_LAT_MEM_RD_H_

#include <cstddef>
#include <vector>

#include "src/core/timing.h"

namespace lmb::lat {

// How the pointer chain is laid out in the array.
enum class ChaseOrder {
  // Descending-address chain with a fixed stride (the paper's layout; the
  // original lmbench walks backwards to frustrate ascending prefetchers).
  kStrideBackward,
  // Uniform random permutation of the stride slots — defeats modern stride
  // prefetchers entirely (lmbench3's -t; listed as "future work" §7).
  kRandom,
};

struct MemLatConfig {
  size_t array_bytes = 1u << 20;
  size_t stride_bytes = 64;
  ChaseOrder order = ChaseOrder::kStrideBackward;
  TimingPolicy policy = TimingPolicy::standard();
};

struct MemLatPoint {
  size_t array_bytes = 0;
  size_t stride_bytes = 0;
  double ns_per_load = 0.0;
};

// One (size, stride) point.
MemLatPoint measure_mem_latency(const MemLatConfig& config);

// Builds the chase chain into `slots` (an array of indices): slot i holds
// the index of the next slot to visit.  Exposed for property tests — the
// chain must be a single cycle covering every slot exactly once.
std::vector<size_t> build_chain(size_t slot_count, ChaseOrder order, unsigned seed = 12345);

// Runs `loads` dependent pointer dereferences over a prepared chain and
// returns the final pointer (so the chain cannot be optimized away).
void* chase(void** start, std::uint64_t loads);

// As `chase`, but also stores to each visited line (marking it dirty), so
// the next miss to that line pays a write-back.  Requires stride >= 2
// pointer slots of room per chain entry.
void* chase_dirty(void** start, std::uint64_t loads);

// §7 extension ("dirty-read latency, as well as write latency"): the same
// (size, stride) point measured with a read-modify-write walk.  The delta
// over measure_mem_latency is the write-back cost per miss.
MemLatPoint measure_mem_latency_dirty(const MemLatConfig& config);

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LAT_MEM_RD_H_
