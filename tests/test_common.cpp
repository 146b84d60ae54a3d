// Tests for the common substrate: RNG, parallel_for, string utilities,
// CRC-32.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <vector>

#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/runtime/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/string_utils.hpp"

namespace sptx {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, FloatInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(8);
  float lo = 1e9f, hi = -1e9f;
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
  EXPECT_LT(lo, -1.8f);
  EXPECT_GT(hi, 2.8f);
}

TEST(Rng, NextBelowAlwaysInRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(10);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  runtime::parallel_for(0, 1000, [&](std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(Parallel, EmptyAndReversedRangesAreNoops) {
  int count = 0;
  runtime::parallel_for(5, 5, [&](std::int64_t) { ++count; });
  runtime::parallel_for(10, 3, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(Parallel, OffsetRange) {
  std::atomic<std::int64_t> sum{0};
  runtime::parallel_for(100, 200, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtils, SplitSingleField) {
  const auto parts = split("alone", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringUtils, TrimWhitespaceVariants) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\tx\r\n"), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(ErrorMacro, CheckThrowsWithContext) {
  try {
    SPTX_CHECK(1 == 2, "the answer was " << 42);
    FAIL() << "SPTX_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the answer was 42"), std::string::npos);
  }
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicedEqualsBytewiseOverLengthsOffsetsAndChains) {
  // The byte loop is the oracle: random buffers read at every alignment,
  // every length around the 8-byte step, and as chained partial calls.
  Rng rng(77);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t offset = rng.next_below(16);
    const std::size_t len = rng.next_below(4096);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.next_u64());
    const unsigned char* p = buf.data() + offset;
    ASSERT_EQ(crc32(p, len, seed), crc32_bytewise(p, len, seed));
    // Split at a random point: chaining must equal one call.
    const std::size_t cut = len == 0 ? 0 : rng.next_below(len + 1);
    const std::uint32_t chained = crc32(p + cut, len - cut, crc32(p, cut));
    ASSERT_EQ(chained, crc32_bytewise(p, len))
        << "len " << len << " cut " << cut;
  }
}

}  // namespace
}  // namespace sptx
