#include "src/bw/kernels.h"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LMB_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace lmb::bw {

// The hand-written bodies below spell out exactly 32 constant-offset
// accesses per block; kUnrollWords drifting away from that would silently
// skip or repeat words.
static_assert(kUnrollWords == 32,
              "the unrolled kernel bodies are written for 32 words per block; "
              "rewrite them when changing kUnrollWords");

void copy_libc(std::uint64_t* dst, const std::uint64_t* src, size_t words) {
  std::memcpy(dst, src, words * sizeof(std::uint64_t));
}

void copy_unrolled(std::uint64_t* dst, const std::uint64_t* src, size_t words) {
  size_t blocks = words - words % kUnrollWords;
  for (size_t i = 0; i < blocks; i += kUnrollWords) {
    dst[i + 0] = src[i + 0];
    dst[i + 1] = src[i + 1];
    dst[i + 2] = src[i + 2];
    dst[i + 3] = src[i + 3];
    dst[i + 4] = src[i + 4];
    dst[i + 5] = src[i + 5];
    dst[i + 6] = src[i + 6];
    dst[i + 7] = src[i + 7];
    dst[i + 8] = src[i + 8];
    dst[i + 9] = src[i + 9];
    dst[i + 10] = src[i + 10];
    dst[i + 11] = src[i + 11];
    dst[i + 12] = src[i + 12];
    dst[i + 13] = src[i + 13];
    dst[i + 14] = src[i + 14];
    dst[i + 15] = src[i + 15];
    dst[i + 16] = src[i + 16];
    dst[i + 17] = src[i + 17];
    dst[i + 18] = src[i + 18];
    dst[i + 19] = src[i + 19];
    dst[i + 20] = src[i + 20];
    dst[i + 21] = src[i + 21];
    dst[i + 22] = src[i + 22];
    dst[i + 23] = src[i + 23];
    dst[i + 24] = src[i + 24];
    dst[i + 25] = src[i + 25];
    dst[i + 26] = src[i + 26];
    dst[i + 27] = src[i + 27];
    dst[i + 28] = src[i + 28];
    dst[i + 29] = src[i + 29];
    dst[i + 30] = src[i + 30];
    dst[i + 31] = src[i + 31];
  }
  for (size_t i = blocks; i < words; ++i) {
    dst[i] = src[i];
  }
}

std::uint64_t read_sum_unrolled(const std::uint64_t* src, size_t words) {
  size_t blocks = words - words % kUnrollWords;
  std::uint64_t sum = 0;
  for (size_t i = 0; i < blocks; i += kUnrollWords) {
    sum += src[i + 0] + src[i + 1] + src[i + 2] + src[i + 3] + src[i + 4] + src[i + 5] +
           src[i + 6] + src[i + 7] + src[i + 8] + src[i + 9] + src[i + 10] + src[i + 11] +
           src[i + 12] + src[i + 13] + src[i + 14] + src[i + 15] + src[i + 16] + src[i + 17] +
           src[i + 18] + src[i + 19] + src[i + 20] + src[i + 21] + src[i + 22] + src[i + 23] +
           src[i + 24] + src[i + 25] + src[i + 26] + src[i + 27] + src[i + 28] + src[i + 29] +
           src[i + 30] + src[i + 31];
  }
  for (size_t i = blocks; i < words; ++i) {
    sum += src[i];
  }
  return sum;
}

void write_unrolled(std::uint64_t* dst, size_t words, std::uint64_t value) {
  size_t blocks = words - words % kUnrollWords;
  for (size_t i = 0; i < blocks; i += kUnrollWords) {
    dst[i + 0] = value;
    dst[i + 1] = value;
    dst[i + 2] = value;
    dst[i + 3] = value;
    dst[i + 4] = value;
    dst[i + 5] = value;
    dst[i + 6] = value;
    dst[i + 7] = value;
    dst[i + 8] = value;
    dst[i + 9] = value;
    dst[i + 10] = value;
    dst[i + 11] = value;
    dst[i + 12] = value;
    dst[i + 13] = value;
    dst[i + 14] = value;
    dst[i + 15] = value;
    dst[i + 16] = value;
    dst[i + 17] = value;
    dst[i + 18] = value;
    dst[i + 19] = value;
    dst[i + 20] = value;
    dst[i + 21] = value;
    dst[i + 22] = value;
    dst[i + 23] = value;
    dst[i + 24] = value;
    dst[i + 25] = value;
    dst[i + 26] = value;
    dst[i + 27] = value;
    dst[i + 28] = value;
    dst[i + 29] = value;
    dst[i + 30] = value;
    dst[i + 31] = value;
  }
  for (size_t i = blocks; i < words; ++i) {
    dst[i] = value;
  }
}

// ----------------------------------------------------------------------
// x86-64 SIMD variants.
//
// Store alignment discipline: a scalar head runs until the *store* pointer
// reaches vector alignment (benchmark buffers are 64-byte aligned so the
// head is empty on the hot path, but odd offsets stay correct), loads use
// the unaligned forms (src and dst offsets may differ), and a scalar tail
// finishes sub-vector remainders.  Non-temporal kernels end with sfence so
// the WC buffers drain before timing stops.

#if LMB_KERNELS_X86

namespace {

inline size_t align_head_words(const void* p, size_t vector_bytes) {
  auto addr = reinterpret_cast<std::uintptr_t>(p);
  size_t mis = addr & (vector_bytes - 1);
  if (mis == 0) {
    return 0;
  }
  return (vector_bytes - mis) / sizeof(std::uint64_t);
}

void copy_sse2(std::uint64_t* dst, const std::uint64_t* src, size_t words) {
  size_t head = align_head_words(dst, 16);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = src[i];
  }
  for (; i + 8 <= words; i += 8) {
    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 2));
    __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 4));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 6));
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i), a);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 2), b);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 4), c);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 6), d);
  }
  for (; i < words; ++i) {
    dst[i] = src[i];
  }
}

std::uint64_t read_sum_sse2(const std::uint64_t* src, size_t words) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    acc0 = _mm_add_epi64(acc0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    acc1 = _mm_add_epi64(acc1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 2)));
  }
  acc0 = _mm_add_epi64(acc0, acc1);
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc0);
  std::uint64_t sum = lanes[0] + lanes[1];
  for (; i < words; ++i) {
    sum += src[i];
  }
  return sum;
}

void write_sse2(std::uint64_t* dst, size_t words, std::uint64_t value) {
  __m128i v = _mm_set1_epi64x(static_cast<long long>(value));
  size_t head = align_head_words(dst, 16);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = value;
  }
  for (; i + 8 <= words; i += 8) {
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i), v);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 2), v);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 4), v);
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + i + 6), v);
  }
  for (; i < words; ++i) {
    dst[i] = value;
  }
}

// Non-temporal (streaming) stores: bypass the cache and avoid the
// read-for-ownership of plain stores, so a copy/write moves N bytes across
// the bus instead of 2N.  This is what makes them win at memory-sized
// working sets and lose at cache-sized ones.
void copy_nt(std::uint64_t* dst, const std::uint64_t* src, size_t words) {
  size_t head = align_head_words(dst, 16);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = src[i];
  }
  for (; i + 8 <= words; i += 8) {
    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 2));
    __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 4));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 6));
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i), a);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 2), b);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 4), c);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 6), d);
  }
  for (; i < words; ++i) {
    dst[i] = src[i];
  }
  _mm_sfence();
}

void write_nt(std::uint64_t* dst, size_t words, std::uint64_t value) {
  __m128i v = _mm_set1_epi64x(static_cast<long long>(value));
  size_t head = align_head_words(dst, 16);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = value;
  }
  for (; i + 8 <= words; i += 8) {
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i), v);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 2), v);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 4), v);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst + i + 6), v);
  }
  for (; i < words; ++i) {
    dst[i] = value;
  }
  _mm_sfence();
}

__attribute__((target("avx2"))) void copy_avx2(std::uint64_t* dst, const std::uint64_t* src,
                                               size_t words) {
  size_t head = align_head_words(dst, 32);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = src[i];
  }
  for (; i + 16 <= words; i += 16) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 12));
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i), a);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 4), b);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 8), c);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 12), d);
  }
  for (; i < words; ++i) {
    dst[i] = src[i];
  }
}

__attribute__((target("avx2"))) std::uint64_t read_sum_avx2(const std::uint64_t* src,
                                                            size_t words) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    acc0 = _mm256_add_epi64(acc0,
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    acc1 = _mm256_add_epi64(acc1,
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4)));
  }
  acc0 = _mm256_add_epi64(acc0, acc1);
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  std::uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < words; ++i) {
    sum += src[i];
  }
  return sum;
}

__attribute__((target("avx2"))) void write_avx2(std::uint64_t* dst, size_t words,
                                                std::uint64_t value) {
  __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  size_t head = align_head_words(dst, 32);
  if (head > words) {
    head = words;
  }
  size_t i = 0;
  for (; i < head; ++i) {
    dst[i] = value;
  }
  for (; i + 16 <= words; i += 16) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i), v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 4), v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 8), v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i + 12), v);
  }
  for (; i < words; ++i) {
    dst[i] = value;
  }
}

bool cpu_has_sse2() { return __builtin_cpu_supports("sse2") != 0; }
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace

#endif  // LMB_KERNELS_X86

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kAuto:
      return "auto";
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kSse2:
      return "sse2";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kNonTemporal:
      return "nt";
  }
  return "?";
}

KernelVariant parse_kernel_variant(const std::string& text) {
  if (text == "auto") return KernelVariant::kAuto;
  if (text == "scalar") return KernelVariant::kScalar;
  if (text == "sse2") return KernelVariant::kSse2;
  if (text == "avx2") return KernelVariant::kAvx2;
  if (text == "nt" || text == "nontemporal") return KernelVariant::kNonTemporal;
  throw std::invalid_argument("unknown kernel variant '" + text +
                              "' (expected auto|scalar|sse2|avx2|nt)");
}

bool kernel_variant_available(KernelVariant v) {
  switch (v) {
    case KernelVariant::kAuto:
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kSse2:
    case KernelVariant::kNonTemporal:
#if LMB_KERNELS_X86
      return cpu_has_sse2();
#else
      return false;
#endif
    case KernelVariant::kAvx2:
#if LMB_KERNELS_X86
      return cpu_has_avx2();
#else
      return false;
#endif
  }
  return false;
}

std::vector<KernelVariant> available_kernel_variants() {
  std::vector<KernelVariant> out = {KernelVariant::kScalar};
  for (KernelVariant v :
       {KernelVariant::kSse2, KernelVariant::kAvx2, KernelVariant::kNonTemporal}) {
    if (kernel_variant_available(v)) {
      out.push_back(v);
    }
  }
  return out;
}

KernelVariant resolve_kernel_variant(KernelVariant v) {
  if (v == KernelVariant::kAuto) {
    if (kernel_variant_available(KernelVariant::kAvx2)) {
      return KernelVariant::kAvx2;
    }
    if (kernel_variant_available(KernelVariant::kSse2)) {
      return KernelVariant::kSse2;
    }
    return KernelVariant::kScalar;
  }
  return kernel_variant_available(v) ? v : KernelVariant::kScalar;
}

const KernelSet& kernels_for(KernelVariant v) {
  static const KernelSet scalar = {
      KernelVariant::kScalar, copy_unrolled, read_sum_unrolled, write_unrolled,
  };
#if LMB_KERNELS_X86
  static const KernelSet sse2 = {
      KernelVariant::kSse2, copy_sse2, read_sum_sse2, write_sse2,
  };
  static const KernelSet avx2 = {
      KernelVariant::kAvx2, copy_avx2, read_sum_avx2, write_avx2,
  };
  // Streaming stores only help stores; read borrows the widest cached
  // implementation available.
  static const KernelSet nt = [] {
    KernelSet set = kernel_variant_available(KernelVariant::kAvx2) ? avx2 : sse2;
    set.variant = KernelVariant::kNonTemporal;
    set.copy = copy_nt;
    set.write = write_nt;
    return set;
  }();
#endif
  switch (resolve_kernel_variant(v)) {
    case KernelVariant::kScalar:
      return scalar;
#if LMB_KERNELS_X86
    case KernelVariant::kSse2:
      return sse2;
    case KernelVariant::kAvx2:
      return avx2;
    case KernelVariant::kNonTemporal:
      return nt;
#endif
    default:
      return scalar;
  }
}

}  // namespace lmb::bw
