#include "src/bw/bw_mem.h"

#include <cstring>
#include <stdexcept>

#include "src/bw/kernels.h"
#include "src/core/do_not_optimize.h"
#include "src/core/registry.h"
#include "src/report/table.h"
#include "src/sys/mapped_file.h"

namespace lmb::bw {

namespace {

// Keep src and dst from mapping to the same lines in a direct-mapped cache
// (§5.1: "we took care to ensure that the source and destination locations
// would not map to the same lines").
constexpr size_t kAntiAliasOffset = 8 * 64;

size_t round_words(size_t bytes) {
  size_t words = bytes / sizeof(std::uint64_t);
  if (words == 0) {
    throw std::invalid_argument("buffer too small (need >= 8 bytes)");
  }
  return words;
}

size_t round_up_64(size_t bytes) { return (bytes + 63) & ~size_t{63}; }

// One region holds both buffers plus the anti-alias offset; the dst offset
// is rounded up to a cache line so both pointers stay 64-byte aligned even
// for odd sizes (the mapping itself is page-aligned).  Every page is
// touched here, so timing excludes first-fault costs.
struct MemBuffers {
  size_t words;
  size_t bytes;
  size_t dst_off;
  sys::AnonMapping region;
  std::uint64_t* src;
  std::uint64_t* dst;

  explicit MemBuffers(size_t requested)
      : words(round_words(requested)),
        bytes(words * sizeof(std::uint64_t)),
        dst_off(round_up_64(bytes) + kAntiAliasOffset),
        region(dst_off + round_up_64(bytes)),
        src(reinterpret_cast<std::uint64_t*>(region.data())),
        dst(reinterpret_cast<std::uint64_t*>(region.data() + dst_off)) {
    write_unrolled(src, words, 0x0102030405060708ull);
    write_unrolled(dst, words, 0);
  }
};

}  // namespace

BenchFn mem_op_body(MemOp op, const KernelSet& ks, std::uint64_t* src, std::uint64_t* dst,
                    size_t words) {
  switch (op) {
    case MemOp::kCopyLibc:
      return [=](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          copy_libc(dst, src, words);
        }
        do_not_optimize(dst[0]);
      };
    case MemOp::kCopyUnrolled:
      return [=, &ks](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          ks.copy(dst, src, words);
        }
        do_not_optimize(dst[0]);
      };
    case MemOp::kReadSum:
      return [=, &ks](std::uint64_t iters) {
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
          sum += ks.read_sum(src, words);
        }
        do_not_optimize(sum);
      };
    case MemOp::kWrite:
      return [=, &ks](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          ks.write(dst, words, i + 1);
        }
        do_not_optimize(dst[0]);
      };
  }
  throw std::invalid_argument("mem_op_body: unknown op");
}

const char* mem_op_name(MemOp op) {
  switch (op) {
    case MemOp::kCopyLibc:
      return "bcopy_libc";
    case MemOp::kCopyUnrolled:
      return "bcopy_unrolled";
    case MemOp::kReadSum:
      return "read";
    case MemOp::kWrite:
      return "write";
  }
  return "?";
}

std::vector<MemBwResult> measure_mem_bw(const std::vector<MemOp>& ops,
                                        const MemBwConfig& config) {
  MemBuffers buf(config.bytes);
  const KernelSet& ks = kernels_for(config.kernel);
  std::vector<MemBwResult> out;
  out.reserve(ops.size());
  for (MemOp op : ops) {
    MemBwResult result;
    result.op = op;
    result.bytes = buf.bytes;
    result.detail = measure(mem_op_body(op, ks, buf.src, buf.dst, buf.words), config.policy);
    result.mb_per_sec = mb_per_sec(static_cast<double>(buf.bytes), result.detail.ns_per_op);
    out.push_back(std::move(result));
  }
  return out;
}

std::vector<MemBwResult> measure_mem_bw_all(const MemBwConfig& config) {
  return measure_mem_bw({MemOp::kCopyLibc, MemOp::kCopyUnrolled, MemOp::kReadSum, MemOp::kWrite},
                        config);
}

namespace {

const BenchmarkRegistrar bw_mem_registrar{{
    .name = "bw_mem",
    .category = "bandwidth",
    .description = "memory copy/read/write bandwidth (Table 2)",
    .run =
        [](const Options& opts) {
          MemBwConfig cfg;
          cfg.bytes = static_cast<size_t>(opts.get_size("size", opts.quick() ? (1 << 20) : (8 << 20)));
          cfg.kernel = parse_kernel_variant(opts.get_string("kernel", "auto"));
          if (opts.quick()) {
            cfg.policy = TimingPolicy::quick();
          }
          RunResult out;
          std::string display;
          for (const auto& r : measure_mem_bw_all(cfg)) {
            out.add(std::string(mem_op_name(r.op)) + "_mbs", r.mb_per_sec, "MB/s");
            display += std::string(mem_op_name(r.op)) + ": " +
                       report::format_number(r.mb_per_sec, 0) + " MB/s  ";
          }
          out.metadata["bytes"] = std::to_string(cfg.bytes);
          out.metadata["kernel"] = kernel_variant_name(resolve_kernel_variant(cfg.kernel));
          out.display = display;
          return out;
        },
}};

}  // namespace

}  // namespace lmb::bw
