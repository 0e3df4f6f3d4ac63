// Regression tests for the shared example CLI parser
// (examples/cli_util.hpp): the seed examples' bare strtoul/atof parsing
// accepted negative values (wrapping to huge unsigned counts), trailing
// garbage and silent overflow — exactly the classes pinned here.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "../examples/cli_util.hpp"

namespace {

using hm::cli::parse_double;
using hm::cli::parse_size;
using hm::cli::parse_u64;
using hm::cli::parse_unsigned;

TEST(CliParseSize, AcceptsPlainDecimalInRange) {
  std::size_t v = 0;
  EXPECT_TRUE(parse_size("37", 1, 100000, &v));
  EXPECT_EQ(v, 37u);
  EXPECT_TRUE(parse_size("1", 1, 100000, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(parse_size("100000", 1, 100000, &v));
  EXPECT_EQ(v, 100000u);
  EXPECT_TRUE(parse_size("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
}

TEST(CliParseSize, RejectsNegativeInsteadOfWrapping) {
  // strtoul("-5") wraps to 18446744073709551611 — the original bug class.
  std::size_t v = 123;
  EXPECT_FALSE(parse_size("-5", 0, std::numeric_limits<std::size_t>::max(),
                          &v));
  EXPECT_FALSE(parse_size("-0", 0, 100, &v));
  EXPECT_FALSE(parse_size("5-", 0, 100, &v));
  EXPECT_EQ(v, 123u) << "rejected parse must not touch the output";
}

TEST(CliParseSize, RejectsTrailingGarbageAndNonDecimal) {
  std::size_t v = 0;
  EXPECT_FALSE(parse_size("12abc", 0, 100, &v));
  EXPECT_FALSE(parse_size("abc", 0, 100, &v));
  EXPECT_FALSE(parse_size("", 0, 100, &v));
  EXPECT_FALSE(parse_size(nullptr, 0, 100, &v));
  EXPECT_FALSE(parse_size("0x10", 0, 100, &v));
  EXPECT_FALSE(parse_size("1.5", 0, 100, &v));
  EXPECT_FALSE(parse_size(" 7", 0, 100, &v)) << "leading space via strtoull";
}

TEST(CliParseSize, RejectsOverflowAndOutOfRange) {
  std::size_t v = 0;
  // > ULLONG_MAX: strtoull saturates and sets ERANGE.
  EXPECT_FALSE(parse_size("99999999999999999999999999", 0,
                          std::numeric_limits<std::size_t>::max(), &v));
  EXPECT_FALSE(parse_size("101", 0, 100, &v));
  EXPECT_FALSE(parse_size("4", 5, 100, &v));
}

TEST(CliParseUnsigned, MirrorsParseSize) {
  unsigned v = 0;
  EXPECT_TRUE(parse_unsigned("8", 0, 4096, &v));
  EXPECT_EQ(v, 8u);
  EXPECT_FALSE(parse_unsigned("-1", 0, 4096, &v));
  EXPECT_FALSE(parse_unsigned("4097", 0, 4096, &v));
  EXPECT_FALSE(parse_unsigned("8threads", 0, 4096, &v));
  // HM_THREADS values the benches' former unchecked strtol accepted: "8x"
  // read as 8, and 99999999999 wrapped to 1215752191 threads.
  EXPECT_FALSE(parse_unsigned("8x", 0, hm::cli::kMaxThreads, &v));
  EXPECT_FALSE(parse_unsigned("99999999999", 0, hm::cli::kMaxThreads, &v));
  EXPECT_EQ(v, 8u) << "rejected parse must not touch the output";
}

TEST(CliParseU64, FullRangeSeeds) {
  unsigned long long v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));  // ULLONG_MAX
  EXPECT_EQ(v, std::numeric_limits<unsigned long long>::max());
  EXPECT_FALSE(parse_u64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(parse_u64("-1", &v));
  EXPECT_FALSE(parse_u64("seed", &v));
  EXPECT_FALSE(parse_u64("", &v));
}

TEST(CliParseDouble, RejectsGarbageInfNanAndOutOfRange) {
  double v = -1.0;
  EXPECT_TRUE(parse_double("0.4", 0.0, 1.0, &v));
  EXPECT_DOUBLE_EQ(v, 0.4);
  EXPECT_TRUE(parse_double("1e-2", 0.0, 1.0, &v));
  EXPECT_DOUBLE_EQ(v, 0.01);
  EXPECT_FALSE(parse_double("0.4mm", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double(nullptr, 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("nan", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("inf", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("1.5", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("-0.1", 0.0, 1.0, &v));
  EXPECT_FALSE(parse_double("1e999", 0.0,
                            std::numeric_limits<double>::max(), &v));
}

}  // namespace
