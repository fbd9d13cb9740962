// Memory-hierarchy extraction — paper Table 6.
//
// "Table 6 shows the cache size, cache latency, and main memory latency as
// extracted from the memory latency graphs."  Given a latency-vs-size curve
// (one stride), this module finds the plateaus (cache levels) and the
// transition points (cache sizes), plus the cache line size from the
// stride-sensitivity of the largest arrays.
#ifndef LMBENCHPP_SRC_LAT_MEM_HIERARCHY_H_
#define LMBENCHPP_SRC_LAT_MEM_HIERARCHY_H_

#include <cstddef>
#include <vector>

#include "src/lat/lat_mem_rd.h"

namespace lmb::lat {

struct MemoryLevel {
  // Largest array size still served at this level's latency.
  size_t size_bytes = 0;
  // Representative (median-of-plateau) load latency.
  double latency_ns = 0.0;
};

struct MemHierarchy {
  // Cache levels in order (L1 first).  Empty when the curve is flat.
  std::vector<MemoryLevel> caches;
  // Latency of the final plateau (main memory).  0 when the sweep never
  // left the caches.
  double memory_latency_ns = 0.0;
};

// Extracts plateaus from a single-stride curve.  `points` must all share one
// stride and be sorted by (or sortable to) increasing array size.
// `jump_threshold` is the relative step (default: 25% growth) that starts a
// new level.  Throws std::invalid_argument on mixed strides or < 3 points.
MemHierarchy extract_hierarchy(std::vector<MemLatPoint> points, double jump_threshold = 1.25);

// Estimates the cache line size from a full (multi-stride) sweep:
// "The smallest stride that is the same as main memory speed is likely to be
// the cache line size" (§6.2).  Returns 0 when undeterminable.
size_t estimate_line_size(const std::vector<MemLatPoint>& points);

// §7 "Automatic sizing": a buffer size guaranteed to defeat every detected
// cache level — `factor` times the largest cache, at least `minimum`.
// Table 6 prints it under the extraction; the suite's buffers are still a
// fixed 8 MB.
size_t autosize_beyond_cache(const MemHierarchy& hierarchy, size_t factor = 4,
                             size_t minimum = 8u << 20);

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_MEM_HIERARCHY_H_
