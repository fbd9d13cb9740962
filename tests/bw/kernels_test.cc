#include "src/bw/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace lmb::bw {
namespace {

std::vector<std::uint64_t> random_words(size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& w : v) {
    w = rng();
  }
  return v;
}

TEST(KernelsTest, CopyLibcMatchesMemcpySemantics) {
  auto src = random_words(256, 1);
  std::vector<std::uint64_t> dst(256, 0);
  copy_libc(dst.data(), src.data(), 256);
  EXPECT_EQ(dst, src);
}

TEST(KernelsTest, CopyUnrolledCopiesExactly) {
  auto src = random_words(1024, 2);
  std::vector<std::uint64_t> dst(1024, 0);
  copy_unrolled(dst.data(), src.data(), 1024);
  EXPECT_EQ(dst, src);
}

// The old kernels rejected words % 32 != 0; the tail loops now make any
// count legal (sweep sizes below 256 B and odd sizes are measurable).
TEST(KernelsTest, OddCountsTakeTheTailPath) {
  auto src = random_words(33, 7);
  std::vector<std::uint64_t> dst(33, 0);
  copy_unrolled(dst.data(), src.data(), 33);
  EXPECT_EQ(dst, src);

  EXPECT_EQ(read_sum_unrolled(src.data(), 7),
            std::accumulate(src.begin(), src.begin() + 7, std::uint64_t{0}));

  std::vector<std::uint64_t> buf(31, 0);
  write_unrolled(buf.data(), 31, 9);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(), [](std::uint64_t w) { return w == 9; }));
}

TEST(KernelsTest, ZeroWordsIsANoOp) {
  std::uint64_t sentinel = 42;
  copy_unrolled(&sentinel, &sentinel, 0);
  write_unrolled(&sentinel, 0, 7);
  EXPECT_EQ(read_sum_unrolled(&sentinel, 0), 0u);
  EXPECT_EQ(sentinel, 42u);
}

TEST(KernelsTest, ReadSumMatchesAccumulate) {
  auto v = random_words(2048, 3);
  std::uint64_t expected = std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  EXPECT_EQ(read_sum_unrolled(v.data(), v.size()), expected);
}

TEST(KernelsTest, WriteFillsEveryWord) {
  std::vector<std::uint64_t> v(512, 0);
  write_unrolled(v.data(), v.size(), 0xdeadbeefcafef00dull);
  for (auto w : v) {
    EXPECT_EQ(w, 0xdeadbeefcafef00dull);
  }
}

// Property: the scalar kernels agree with their naive equivalents across a
// range of sizes, multiples of the unroll factor or not.
class KernelPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelPropertyTest, KernelsMatchNaiveImplementations) {
  size_t words = GetParam();
  auto src = random_words(words, static_cast<unsigned>(words));
  std::vector<std::uint64_t> dst(words, 0);

  copy_unrolled(dst.data(), src.data(), words);
  EXPECT_EQ(dst, src);

  std::uint64_t expected = std::accumulate(src.begin(), src.end(), std::uint64_t{0});
  EXPECT_EQ(read_sum_unrolled(src.data(), words), expected);

  write_unrolled(dst.data(), words, words);
  EXPECT_TRUE(std::all_of(dst.begin(), dst.end(),
                          [&](std::uint64_t w) { return w == words; }));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelPropertyTest,
                         ::testing::Values<size_t>(1, 7, 31, 32, 33, 64, 96, 100, 128, 257,
                                                   1024, 4096, 4101, 32768));

// ----------------------------------------------------------------------
// Variant dispatch.

TEST(KernelVariantTest, NamesRoundTrip) {
  for (KernelVariant v : {KernelVariant::kAuto, KernelVariant::kScalar, KernelVariant::kSse2,
                          KernelVariant::kAvx2, KernelVariant::kNonTemporal}) {
    EXPECT_EQ(parse_kernel_variant(kernel_variant_name(v)), v);
  }
  EXPECT_THROW(parse_kernel_variant("mmx"), std::invalid_argument);
  EXPECT_THROW(parse_kernel_variant(""), std::invalid_argument);
}

TEST(KernelVariantTest, ScalarAndAutoAlwaysAvailable) {
  EXPECT_TRUE(kernel_variant_available(KernelVariant::kScalar));
  EXPECT_TRUE(kernel_variant_available(KernelVariant::kAuto));
  // kAuto always resolves to something concrete and available.
  KernelVariant resolved = resolve_kernel_variant(KernelVariant::kAuto);
  EXPECT_NE(resolved, KernelVariant::kAuto);
  EXPECT_TRUE(kernel_variant_available(resolved));
}

TEST(KernelVariantTest, AvailableListStartsWithScalar) {
  std::vector<KernelVariant> avail = available_kernel_variants();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), KernelVariant::kScalar);
  for (KernelVariant v : avail) {
    EXPECT_TRUE(kernel_variant_available(v));
  }
}

TEST(KernelVariantTest, DispatchTableHasNoNullEntries) {
  for (KernelVariant v : {KernelVariant::kAuto, KernelVariant::kScalar, KernelVariant::kSse2,
                          KernelVariant::kAvx2, KernelVariant::kNonTemporal}) {
    const KernelSet& ks = kernels_for(v);
    EXPECT_NE(ks.copy, nullptr) << kernel_variant_name(v);
    EXPECT_NE(ks.read_sum, nullptr) << kernel_variant_name(v);
    EXPECT_NE(ks.write, nullptr) << kernel_variant_name(v);
  }
}

// Equivalence: every dispatched variant must leave memory byte-identical to
// the scalar reference (and read_sum must return the same sum) across sizes
// including non-multiples of 32.  Buffers are 64-byte aligned like the
// benchmark's, with extra guard words checked for overruns.
class KernelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelEquivalenceTest, AllVariantsMatchScalarReference) {
  const size_t words = GetParam();
  const size_t guard = 8;
  auto src = random_words(words, static_cast<unsigned>(words) * 31 + 1);

  for (KernelVariant v : available_kernel_variants()) {
    SCOPED_TRACE(kernel_variant_name(v));
    const KernelSet& ks = kernels_for(v);

    // copy
    std::vector<std::uint64_t> aligned_src(words + guard, 0);
    std::copy(src.begin(), src.end(), aligned_src.begin());
    std::vector<std::uint64_t> expect(words + guard, 0xababababababababull);
    std::vector<std::uint64_t> actual = expect;
    copy_unrolled(expect.data(), aligned_src.data(), words);
    ks.copy(actual.data(), aligned_src.data(), words);
    EXPECT_EQ(actual, expect);

    // read_sum
    EXPECT_EQ(ks.read_sum(aligned_src.data(), words),
              read_sum_unrolled(aligned_src.data(), words));

    // write
    std::fill(expect.begin(), expect.end(), 0xcdcdcdcdcdcdcdcdull);
    actual = expect;
    write_unrolled(expect.data(), words, 0x1122334455667788ull);
    ks.write(actual.data(), words, 0x1122334455667788ull);
    EXPECT_EQ(actual, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelEquivalenceTest,
                         ::testing::Values<size_t>(1, 2, 5, 7, 15, 16, 17, 31, 32, 33, 63, 64,
                                                   65, 100, 255, 256, 257, 1000, 4096, 4103));

// The vector kernels promise correctness for any dst alignment (a scalar
// head runs until the store pointer is vector-aligned).
TEST(KernelEquivalenceTest, MisalignedPointersStillMatch) {
  const size_t words = 1000;
  auto src = random_words(words + 4, 99);
  for (KernelVariant v : available_kernel_variants()) {
    SCOPED_TRACE(kernel_variant_name(v));
    const KernelSet& ks = kernels_for(v);
    for (size_t off = 0; off < 4; ++off) {
      std::vector<std::uint64_t> expect(words + 4, 1);
      std::vector<std::uint64_t> actual(words + 4, 1);
      copy_unrolled(expect.data() + off, src.data() + (3 - off) % 4, words);
      ks.copy(actual.data() + off, src.data() + (3 - off) % 4, words);
      EXPECT_EQ(actual, expect) << "offset " << off;

      write_unrolled(expect.data() + off, words, off + 1);
      ks.write(actual.data() + off, words, off + 1);
      EXPECT_EQ(actual, expect) << "offset " << off;

      EXPECT_EQ(ks.read_sum(actual.data() + off, words),
                read_sum_unrolled(expect.data() + off, words));
    }
  }
}

}  // namespace
}  // namespace lmb::bw
