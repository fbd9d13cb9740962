// Raw memory-movement kernels (paper §5.1), plus runtime-dispatched SIMD
// and non-temporal variants.
//
// The scalar kernels mirror the paper's hand-unrolled loops: constant-offset
// loads so "most compilers generate a load and an add for each word of
// memory".  On x86-64 the suite additionally provides SSE2, AVX2, and
// non-temporal (streaming-store) implementations selected at runtime via
// CPUID; `kernels_for()` resolves a KernelVariant — including kAuto — to a
// table of function pointers with identical semantics.
//
// All kernels accept any `words >= 0`: the unrolled/vector bodies process
// whole blocks and a scalar tail finishes the remainder, so odd sizes and
// buffers below 256 B are measurable.
#ifndef LMBENCHPP_SRC_BW_KERNELS_H_
#define LMBENCHPP_SRC_BW_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lmb::bw {

// memcpy of `words` 8-byte words.
void copy_libc(std::uint64_t* dst, const std::uint64_t* src, size_t words);

// Hand-unrolled copy, 32 words per unrolled block, scalar tail for the
// remainder.
void copy_unrolled(std::uint64_t* dst, const std::uint64_t* src, size_t words);

// Unrolled read: sums all words and returns the sum (callers sink it through
// do_not_optimize, the paper's "unused argument" trick).
std::uint64_t read_sum_unrolled(const std::uint64_t* src, size_t words);

// Unrolled write: stores `value` into every word.
void write_unrolled(std::uint64_t* dst, size_t words, std::uint64_t value);

// Unrolling factor of the scalar loops above (block size; tails are legal).
inline constexpr size_t kUnrollWords = 32;

// ----------------------------------------------------------------------
// Runtime-dispatched variants.

enum class KernelVariant {
  kAuto,         // best available: AVX2 > SSE2 > scalar
  kScalar,       // the paper's unrolled loops (always available)
  kSse2,         // 128-bit loads/stores
  kAvx2,         // 256-bit loads/stores
  kNonTemporal,  // streaming (cache-bypassing) stores for copy/write; read
                 // falls back to the widest cached variant
};

// Stable lowercase name ("auto", "scalar", "sse2", "avx2", "nt").
const char* kernel_variant_name(KernelVariant v);

// Inverse of kernel_variant_name.  Throws std::invalid_argument on unknown
// text (the --kernel= grammar).
KernelVariant parse_kernel_variant(const std::string& text);

// True when this host's CPU can execute `v` (kAuto and kScalar always can).
bool kernel_variant_available(KernelVariant v);

// Variants available on this host, in preference order (for tests and
// --kernel=list style output).
std::vector<KernelVariant> available_kernel_variants();

// Resolves kAuto to the preferred available variant and downgrades an
// unavailable explicit choice to kScalar.
KernelVariant resolve_kernel_variant(KernelVariant v);

// One operation table.  Every entry has the exact semantics of the scalar
// reference above; `variant` records what resolve_kernel_variant() chose.
struct KernelSet {
  KernelVariant variant = KernelVariant::kScalar;
  void (*copy)(std::uint64_t* dst, const std::uint64_t* src, size_t words) = nullptr;
  std::uint64_t (*read_sum)(const std::uint64_t* src, size_t words) = nullptr;
  void (*write)(std::uint64_t* dst, size_t words, std::uint64_t value) = nullptr;
};

// Dispatch table for `v` (kAuto resolved per CPUID).  Safe to call on any
// host; never returns null function pointers.
const KernelSet& kernels_for(KernelVariant v);

}  // namespace lmb::bw

#endif  // LMBENCHPP_SRC_BW_KERNELS_H_
