#include "src/lat/lat_ops.h"

#include <stdexcept>
#include <vector>

#include "src/core/do_not_optimize.h"
#include "src/core/mhz.h"
#include "src/core/registry.h"
#include "src/report/table.h"

namespace lmb::lat {

const char* arith_op_name(ArithOp op) {
  switch (op) {
    case ArithOp::kIntAdd:
      return "int add";
    case ArithOp::kIntMul:
      return "int mul";
    case ArithOp::kIntDiv:
      return "int div";
    case ArithOp::kDoubleAdd:
      return "double add";
    case ArithOp::kDoubleMul:
      return "double mul";
    case ArithOp::kDoubleDiv:
      return "double div";
  }
  return "?";
}

// Each LMB_OPS8 macro expands to 8 dependent operations; 8 copies give the
// 64-op block.  Every operation consumes the previous result, so the chain
// measures latency, and the final value is returned (and checked by tests)
// so the chain cannot be elided.

std::uint64_t run_int_add_chain(std::uint64_t iters, std::uint64_t seed) {
  // Fibonacci-style pairs: not expressible as a closed form the optimizer
  // will derive, every add depends on the one before.
  std::uint64_t a = seed, b = seed + 1;
#define LMB_IADD8 \
  a += b;         \
  b += a;         \
  a += b;         \
  b += a;         \
  a += b;         \
  b += a;         \
  a += b;         \
  b += a;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_IADD8 LMB_IADD8 LMB_IADD8 LMB_IADD8 LMB_IADD8 LMB_IADD8 LMB_IADD8 LMB_IADD8
  }
#undef LMB_IADD8
  do_not_optimize(a);
  return a + b;
}

std::uint64_t run_int_mul_chain(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t a = seed | 1, b = (seed + 2) | 1;  // odd: products never absorb to 0
#define LMB_IMUL8 \
  a *= b;         \
  b *= a;         \
  a *= b;         \
  b *= a;         \
  a *= b;         \
  b *= a;         \
  a *= b;         \
  b *= a;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_IMUL8 LMB_IMUL8 LMB_IMUL8 LMB_IMUL8 LMB_IMUL8 LMB_IMUL8 LMB_IMUL8 LMB_IMUL8
  }
#undef LMB_IMUL8
  do_not_optimize(a);
  return a + b;
}

std::uint64_t run_int_div_chain(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t a = seed | 1, b = (seed >> 1) | 3;
#define LMB_IDIV8          \
  a = b / (a | 1) + seed;  \
  b = a / (b | 1) + seed;  \
  a = b / (a | 1) + seed;  \
  b = a / (b | 1) + seed;  \
  a = b / (a | 1) + seed;  \
  b = a / (b | 1) + seed;  \
  a = b / (a | 1) + seed;  \
  b = a / (b | 1) + seed;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_IDIV8 LMB_IDIV8 LMB_IDIV8 LMB_IDIV8 LMB_IDIV8 LMB_IDIV8 LMB_IDIV8 LMB_IDIV8
  }
#undef LMB_IDIV8
  do_not_optimize(a);
  return a + b;
}

double run_double_add_chain(std::uint64_t iters, double seed) {
  // add/sub pairs stay bounded (b oscillates around -a).
  double a = seed, b = seed * 0.5 + 1.0;
#define LMB_DADD8 \
  a += b;         \
  b -= a;         \
  a += b;         \
  b -= a;         \
  a += b;         \
  b -= a;         \
  a += b;         \
  b -= a;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_DADD8 LMB_DADD8 LMB_DADD8 LMB_DADD8 LMB_DADD8 LMB_DADD8 LMB_DADD8 LMB_DADD8
  }
#undef LMB_DADD8
  do_not_optimize(a);
  return a + b;
}

double run_double_mul_chain(std::uint64_t iters, double seed) {
  // Alternate x2 / x0.5: bounded, and without -ffast-math the compiler may
  // not reassociate the pair away.
  double a = seed + 1.0;
  const double up = 2.0, down = 0.5;
#define LMB_DMUL8 \
  a *= up;        \
  a *= down;      \
  a *= up;        \
  a *= down;      \
  a *= up;        \
  a *= down;      \
  a *= up;        \
  a *= down;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_DMUL8 LMB_DMUL8 LMB_DMUL8 LMB_DMUL8 LMB_DMUL8 LMB_DMUL8 LMB_DMUL8 LMB_DMUL8
  }
#undef LMB_DMUL8
  do_not_optimize(a);
  return a;
}

double run_double_div_chain(std::uint64_t iters, double seed) {
  // a = b / a oscillates between two values; every divide waits for the
  // previous quotient.
  double a = seed + 1.5;
  const double b = seed + 4.0;
#define LMB_DDIV8 \
  a = b / a;      \
  a = b / a;      \
  a = b / a;      \
  a = b / a;      \
  a = b / a;      \
  a = b / a;      \
  a = b / a;      \
  a = b / a;
  for (std::uint64_t i = 0; i < iters; ++i) {
    LMB_DDIV8 LMB_DDIV8 LMB_DDIV8 LMB_DDIV8 LMB_DDIV8 LMB_DDIV8 LMB_DDIV8 LMB_DDIV8
  }
#undef LMB_DDIV8
  do_not_optimize(a);
  return a;
}

OpLatency measure_op_latency(ArithOp op, const TimingPolicy& policy) {
  BenchFn body;
  switch (op) {
    case ArithOp::kIntAdd:
      body = [](std::uint64_t iters) { do_not_optimize(run_int_add_chain(iters, 12345)); };
      break;
    case ArithOp::kIntMul:
      body = [](std::uint64_t iters) { do_not_optimize(run_int_mul_chain(iters, 12345)); };
      break;
    case ArithOp::kIntDiv:
      body = [](std::uint64_t iters) { do_not_optimize(run_int_div_chain(iters, 12345)); };
      break;
    case ArithOp::kDoubleAdd:
      body = [](std::uint64_t iters) { do_not_optimize(run_double_add_chain(iters, 1.25)); };
      break;
    case ArithOp::kDoubleMul:
      body = [](std::uint64_t iters) { do_not_optimize(run_double_mul_chain(iters, 1.25)); };
      break;
    case ArithOp::kDoubleDiv:
      body = [](std::uint64_t iters) { do_not_optimize(run_double_div_chain(iters, 1.25)); };
      break;
  }
  Measurement m = measure(body, policy);
  OpLatency result;
  result.op = op;
  result.ns_per_op = m.ns_per_op / static_cast<double>(kOpsPerBlock);
  return result;
}

std::vector<OpLatency> measure_all_op_latencies(const TimingPolicy& policy) {
  std::vector<OpLatency> out;
  for (ArithOp op : {ArithOp::kIntAdd, ArithOp::kIntMul, ArithOp::kIntDiv, ArithOp::kDoubleAdd,
                     ArithOp::kDoubleMul, ArithOp::kDoubleDiv}) {
    out.push_back(measure_op_latency(op, policy));
  }
  return out;
}

namespace {

const BenchmarkRegistrar registrar{{
    .name = "lat_ops",
    .category = "latency",
    .description = "basic arithmetic operation latencies (lmbench lat_ops)",
    .run =
        [](const Options& opts) {
          TimingPolicy p = opts.quick() ? TimingPolicy::quick() : TimingPolicy::standard();
          RunResult out;
          std::string display;
          for (const auto& r : measure_all_op_latencies(p)) {
            std::string key = arith_op_name(r.op);  // "int add" -> "int_add_ns"
            for (char& c : key) {
              if (c == ' ') c = '_';
            }
            out.add(key + "_ns", r.ns_per_op, "ns");
            display += std::string(arith_op_name(r.op)) + " " +
                       report::format_number(r.ns_per_op, 2) + "ns  ";
          }
          out.display = display;
          return out;
        },
}};

// lmbench's mhz, the clock Table 6 counts latencies in.  Registered here
// because lmb_core, where it lives, is not linked whole-archive.
const BenchmarkRegistrar mhz_registrar{{
    .name = "mhz",
    .category = "latency",
    .description = "CPU clock rate from a dependent-add chain (lmbench mhz, Table 6)",
    .run =
        [](const Options& opts) {
          CpuClock clock =
              estimate_cpu_clock(opts.quick() ? TimingPolicy::quick() : TimingPolicy::standard());
          RunResult out;
          out.add("mhz", clock.mhz, "MHz").add("period_ns", clock.period_ns, "ns");
          out.display = report::format_number(clock.mhz, 0) + " MHz (" +
                        report::format_number(clock.period_ns, 2) + " ns per cycle)";
          return out;
        },
}};

}  // namespace

}  // namespace lmb::lat
