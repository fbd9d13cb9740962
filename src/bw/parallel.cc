#include "src/bw/parallel.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "src/core/options.h"
#include "src/core/registry.h"
#include "src/core/topology.h"
#include "src/report/table.h"
#include "src/sys/aligned_buffer.h"

#include <string>

namespace lmb::bw {

namespace {

// Same anti-alias offset between src and dst as the single-stream path
// (§5.1), plus a per-worker stagger so N workers' buffers do not all map
// to the same direct-mapped cache indices.
constexpr size_t kAntiAliasOffset = 8 * 64;
constexpr size_t kWorkerStagger = 8 * 64;  // bytes between workers, 64-aligned
constexpr size_t kStaggerSlots = 8;

size_t round_up_64(size_t bytes) { return (bytes + 63) & ~size_t{63}; }

// All-worker start barrier.  Spinning (not a mutex) so release-to-start
// latency is tens of nanoseconds — a sleeping worker waking late would
// time a partially-contended interval.  Yields occasionally so
// oversubscribed hosts still make progress.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}

  void arrive_and_wait() {
    int gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    } else {
      int spins = 0;
      while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins % 1024 == 0) {
          std::this_thread::yield();
        }
      }
    }
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<int> generation_{0};
};

}  // namespace

ParallelBwResult measure_mem_bw_parallel(MemOp op, const ParallelBwConfig& config) {
  size_t words = config.bytes / sizeof(std::uint64_t);
  if (words == 0) {
    throw std::invalid_argument("measure_mem_bw_parallel: buffer smaller than one word");
  }
  size_t bytes = words * sizeof(std::uint64_t);
  int threads = config.threads < 1 ? 1 : config.threads;

  const KernelSet& ks = kernels_for(config.kernel);

  // Calibrate once, uncontended, on this thread; every worker then runs the
  // same per-interval iteration count so the barrier-to-barrier rounds stay
  // aligned across workers.
  size_t dst_off = round_up_64(bytes) + kAntiAliasOffset;
  size_t alloc_bytes = dst_off + round_up_64(bytes) + kStaggerSlots * kWorkerStagger;
  std::uint64_t iterations;
  {
    sys::AlignedBuffer cal_buf(alloc_bytes);
    auto* src = cal_buf.as<std::uint64_t>();
    auto* dst = reinterpret_cast<std::uint64_t*>(cal_buf.data() + dst_off);
    write_unrolled(src, words, 0x0102030405060708ull);
    write_unrolled(dst, words, 0);
    const Clock& clock = selected_clock();
    iterations =
        calibrate(mem_op_body(op, ks, src, dst, words), config.policy, clock, clock.now())
            .iterations;
  }

  PinnedThreadPool pool(threads, config.pin);
  const int n = pool.size();

  // Per-worker buffers, allocated and first-touched on the worker's own
  // (pinned) CPU so NUMA first-touch places pages locally.
  std::vector<sys::AlignedBuffer> buffers(static_cast<size_t>(n));
  std::vector<BenchFn> bodies(static_cast<size_t>(n));
  pool.run_all([&](int w) {
    size_t stagger = (static_cast<size_t>(w) % kStaggerSlots) * kWorkerStagger;
    buffers[w] = sys::AlignedBuffer(alloc_bytes);
    auto* src = reinterpret_cast<std::uint64_t*>(buffers[w].data() + stagger);
    auto* dst = reinterpret_cast<std::uint64_t*>(buffers[w].data() + dst_off + stagger);
    write_unrolled(src, words, 0x0102030405060708ull);
    write_unrolled(dst, words, 0);
    bodies[w] = mem_op_body(op, ks, src, dst, words);
    for (int warm = 0; warm < config.policy.warmup_runs; ++warm) {
      bodies[w](1);
    }
  });

  int rounds = config.policy.repetitions < 1 ? 1 : config.policy.repetitions;
  const WallClock& clock = WallClock::instance();
  Nanos overhead = clock.overhead_ns();
  // best_ns[w]: minimum barrier-released interval this worker saw.
  std::vector<Nanos> best_ns(static_cast<size_t>(n), 0);
  SpinBarrier barrier(n);
  for (int round = 0; round < rounds; ++round) {
    pool.run_all([&](int w) {
      barrier.arrive_and_wait();
      Nanos start = clock.now();
      bodies[w](iterations);
      Nanos elapsed = clock.now() - start - overhead;
      if (elapsed < 1) {
        elapsed = 1;
      }
      if (round == 0 || elapsed < best_ns[w]) {
        best_ns[w] = elapsed;
      }
    });
  }

  ParallelBwResult result;
  result.op = op;
  result.threads = n;
  result.bytes_per_worker = bytes;
  result.kernel = ks.variant;
  result.cpus = pool.assigned_cpus();
  result.iterations = iterations;
  result.rounds = rounds;
  result.per_worker_mb_per_sec.reserve(static_cast<size_t>(n));
  for (int w = 0; w < n; ++w) {
    double ns_per_op = static_cast<double>(best_ns[w]) / static_cast<double>(iterations);
    double mbs = mb_per_sec(static_cast<double>(bytes), ns_per_op);
    result.per_worker_mb_per_sec.push_back(mbs);
    result.aggregate_mb_per_sec += mbs;
  }
  return result;
}

std::vector<int> parse_thread_list(const std::string& text) {
  // Comma splitting (and the empty-element strictness) is shared with every
  // other list flag via Options::split_list.
  std::vector<int> out;
  for (const std::string& item : Options::split_list(text)) {
    size_t consumed = 0;
    int value = 0;
    try {
      value = std::stoi(item, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad thread list entry '" + item + "'");
    }
    if (consumed != item.size() || value < 1) {
      throw std::invalid_argument("bad thread list entry '" + item + "'");
    }
    out.push_back(value);
  }
  if (out.empty()) {
    throw std::invalid_argument("empty thread list");
  }
  return out;
}

namespace {

// Short metric-key names for the scaling sweep ("<op>_p<N>_mbs").
const char* scaling_op_key(MemOp op) {
  switch (op) {
    case MemOp::kCopyLibc:
      return "bcopy_libc";
    case MemOp::kCopyUnrolled:
      return "copy";
    case MemOp::kReadSum:
      return "read";
    case MemOp::kWrite:
      return "write";
  }
  return "?";
}

const BenchmarkRegistrar bw_mem_par_registrar{{
    .name = "bw_mem_par",
    .category = "bandwidth",
    .description = "parallel memory bandwidth scaling (--bw-threads, --kernel)",
    .run =
        [](const Options& opts) {
          ParallelBwConfig cfg;
          cfg.bytes =
              static_cast<size_t>(opts.get_size("size", opts.quick() ? (1 << 20) : (8 << 20)));
          if (opts.quick()) {
            cfg.policy = TimingPolicy::quick();
          }
          cfg.pin = !opts.get_bool("no-pin");
          cfg.kernel = parse_kernel_variant(opts.get_string("kernel", "auto"));
          std::vector<int> thread_counts =
              parse_thread_list(opts.get_string("bw-threads", "1,2"));

          RunResult out;
          std::string display;
          KernelVariant resolved = KernelVariant::kScalar;
          for (MemOp op : {MemOp::kCopyUnrolled, MemOp::kReadSum, MemOp::kWrite}) {
            double first = 0.0, last = 0.0;
            for (int threads : thread_counts) {
              cfg.threads = threads;
              ParallelBwResult r = measure_mem_bw_parallel(op, cfg);
              resolved = r.kernel;
              std::string key = std::string(scaling_op_key(op)) + "_p" +
                                std::to_string(r.threads) + "_mbs";
              out.add(key, r.aggregate_mb_per_sec, "MB/s");
              if (threads == thread_counts.front()) {
                first = r.aggregate_mb_per_sec;
              }
              last = r.aggregate_mb_per_sec;
            }
            display += std::string(scaling_op_key(op)) + " " +
                       report::format_number(first, 0) + "->" +
                       report::format_number(last, 0) + " MB/s  ";
          }
          CpuTopology topo = query_topology();
          out.metadata["bytes_per_worker"] = std::to_string(cfg.bytes);
          out.metadata["kernel"] = kernel_variant_name(resolved);
          out.metadata["bw_threads"] = opts.get_string("bw-threads", "1,2");
          out.metadata["topology"] = topo.summary();
          display += "[p" + out.metadata["bw_threads"] + ", " + out.metadata["kernel"] + "]";
          out.display = display;
          return out;
        },
}};

}  // namespace

}  // namespace lmb::bw
