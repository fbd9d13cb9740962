#include "src/lat/lat_mem_rd.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "src/core/do_not_optimize.h"
#include "src/core/registry.h"
#include "src/report/table.h"
#include "src/sys/mapped_file.h"

namespace lmb::lat {

std::vector<size_t> build_chain(size_t slot_count, ChaseOrder order, unsigned seed) {
  if (slot_count < 2) {
    throw std::invalid_argument("build_chain: need at least 2 slots");
  }
  std::vector<size_t> next(slot_count);
  switch (order) {
    case ChaseOrder::kStrideBackward:
      // Visit slots in descending order: i -> i-1, 0 wraps to the top.
      for (size_t i = 1; i < slot_count; ++i) {
        next[i] = i - 1;
      }
      next[0] = slot_count - 1;
      break;
    case ChaseOrder::kRandom: {
      // A single Hamiltonian cycle through a shuffled visit order.
      std::vector<size_t> visit(slot_count);
      std::iota(visit.begin(), visit.end(), 0);
      std::mt19937 rng(seed);
      std::shuffle(visit.begin() + 1, visit.end(), rng);
      for (size_t i = 0; i + 1 < slot_count; ++i) {
        next[visit[i]] = visit[i + 1];
      }
      next[visit[slot_count - 1]] = visit[0];
      break;
    }
  }
  return next;
}

void* chase(void** start, std::uint64_t loads) {
  void** p = start;
  // 10-way unroll like the original; every load depends on the previous.
  std::uint64_t blocks = loads / 10;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
    p = static_cast<void**>(*p);
  }
  for (std::uint64_t i = blocks * 10; i < loads; ++i) {
    p = static_cast<void**>(*p);
  }
  return p;
}

void* chase_dirty(void** start, std::uint64_t loads) {
  void** p = start;
  for (std::uint64_t i = 0; i < loads; ++i) {
    void** next = static_cast<void**>(*p);
    p[1] = p;  // dirty the line (second pointer slot is chain-unused)
    p = next;
  }
  return p;
}

MemLatPoint measure_mem_latency_dirty(const MemLatConfig& config) {
  if (config.stride_bytes < 2 * sizeof(void*)) {
    throw std::invalid_argument("dirty chase needs stride >= 2 pointer slots");
  }
  size_t slots = config.array_bytes / config.stride_bytes;
  if (slots < 2) {
    throw std::invalid_argument("array too small for stride (need >= 2 slots)");
  }
  sys::AnonMapping region(config.array_bytes);
  char* base = region.data();
  std::vector<size_t> next = build_chain(slots, config.order);
  for (size_t i = 0; i < slots; ++i) {
    *reinterpret_cast<void**>(base + i * config.stride_bytes) =
        base + next[i] * config.stride_bytes;
  }
  void** start = reinterpret_cast<void**>(base);
  do_not_optimize(chase_dirty(start, slots));

  constexpr std::uint64_t kLoadsPerIter = 100'000;
  Measurement m = measure(
      [&](std::uint64_t iters) { do_not_optimize(chase_dirty(start, iters * kLoadsPerIter)); },
      config.policy);

  MemLatPoint point;
  point.array_bytes = config.array_bytes;
  point.stride_bytes = config.stride_bytes;
  point.ns_per_load = m.ns_per_op / static_cast<double>(kLoadsPerIter);
  return point;
}

MemLatPoint measure_mem_latency(const MemLatConfig& config) {
  if (config.stride_bytes < sizeof(void*)) {
    throw std::invalid_argument("stride must be >= pointer size");
  }
  size_t slots = config.array_bytes / config.stride_bytes;
  if (slots < 2) {
    throw std::invalid_argument("array too small for stride (need >= 2 slots)");
  }

  sys::AnonMapping region(config.array_bytes);
  char* base = region.data();
  std::vector<size_t> next = build_chain(slots, config.order);
  for (size_t i = 0; i < slots; ++i) {
    *reinterpret_cast<void**>(base + i * config.stride_bytes) =
        base + next[i] * config.stride_bytes;
  }

  void** start = reinterpret_cast<void**>(base);
  // Warm: one full pass so every line is resident at the level under test.
  do_not_optimize(chase(start, slots));

  // Inner loop granularity: ~1M loads per harness iteration keeps the timed
  // interval long even on fast caches (the paper times ~1,000,000 loads).
  constexpr std::uint64_t kLoadsPerIter = 100'000;
  Measurement m = measure(
      [&](std::uint64_t iters) { do_not_optimize(chase(start, iters * kLoadsPerIter)); },
      config.policy);

  MemLatPoint point;
  point.array_bytes = config.array_bytes;
  point.stride_bytes = config.stride_bytes;
  point.ns_per_load = m.ns_per_op / static_cast<double>(kLoadsPerIter);
  return point;
}

namespace {

// The point both walks measure: --size, --stride and --random.
MemLatConfig config_from_options(const Options& opts) {
  MemLatConfig cfg;
  cfg.array_bytes =
      static_cast<size_t>(opts.get_size("size", opts.quick() ? (1 << 20) : (8 << 20)));
  cfg.stride_bytes = static_cast<size_t>(opts.get_size("stride", 64));
  if (opts.get_bool("random")) {
    cfg.order = ChaseOrder::kRandom;
  }
  if (opts.quick()) {
    cfg.policy = TimingPolicy::quick();
  }
  return cfg;
}

RunResult point_result(const MemLatConfig& cfg, const MemLatPoint& p) {
  RunResult r;
  r.add("ns", p.ns_per_load, "ns");
  r.metadata["bytes"] = std::to_string(cfg.array_bytes);
  r.metadata["stride"] = std::to_string(cfg.stride_bytes);
  r.metadata["order"] = cfg.order == ChaseOrder::kRandom ? "random" : "stride";
  r.display = report::format_number(p.ns_per_load, 1) + " ns per load";
  return r;
}

const BenchmarkRegistrar registrar{{
    .name = "lat_mem_rd",
    .category = "latency",
    .description = "back-to-back memory load latency (Figure 1)",
    .run =
        [](const Options& opts) {
          MemLatConfig cfg = config_from_options(opts);
          return point_result(cfg, measure_mem_latency(cfg));
        },
}};

const BenchmarkRegistrar dirty_registrar{{
    .name = "lat_mem_rd_dirty",
    .category = "latency",
    .description = "dirty (read-modify-write) memory load latency (section 7 extension)",
    .run =
        [](const Options& opts) {
          MemLatConfig cfg = config_from_options(opts);
          return point_result(cfg, measure_mem_latency_dirty(cfg));
        },
}};

}  // namespace

}  // namespace lmb::lat
