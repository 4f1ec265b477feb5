// Unit and property tests for BigUint.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/biguint.hpp"
#include "base/rng.hpp"

namespace presat {
namespace {

TEST(BigUint, ZeroBasics) {
  BigUint z;
  EXPECT_TRUE(z.isZero());
  EXPECT_EQ(z.bitLength(), 0u);
  EXPECT_EQ(z.toU64(), 0u);
  EXPECT_EQ(z.toDecimal(), "0");
  EXPECT_EQ(z, BigUint(0));
}

TEST(BigUint, SmallValues) {
  BigUint a(42);
  EXPECT_FALSE(a.isZero());
  EXPECT_EQ(a.toU64(), 42u);
  EXPECT_EQ(a.toDecimal(), "42");
  EXPECT_EQ(a.bitLength(), 6u);
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
  BigUint a(~0ull);
  BigUint b(1);
  BigUint sum = a + b;
  EXPECT_EQ(sum, BigUint::powerOfTwo(64));
  EXPECT_EQ(sum.bitLength(), 65u);
  EXPECT_FALSE(sum.fitsU64());
}

TEST(BigUint, SubtractionInverse) {
  BigUint a = BigUint::powerOfTwo(100);
  BigUint b(12345);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a - a, BigUint(0));
}

TEST(BigUint, PowerOfTwoDecimal) {
  EXPECT_EQ(BigUint::powerOfTwo(0).toDecimal(), "1");
  EXPECT_EQ(BigUint::powerOfTwo(10).toDecimal(), "1024");
  EXPECT_EQ(BigUint::powerOfTwo(64).toDecimal(), "18446744073709551616");
  EXPECT_EQ(BigUint::powerOfTwo(100).toDecimal(), "1267650600228229401496703205376");
}

TEST(BigUint, FromDecimalRoundTrip) {
  const char* cases[] = {"0", "1", "999999999999999999999999", "18446744073709551616",
                         "340282366920938463463374607431768211456"};
  for (const char* c : cases) {
    EXPECT_EQ(BigUint::fromDecimal(c).toDecimal(), c);
  }
}

TEST(BigUint, ShiftLeftRightInverse) {
  BigUint a = BigUint::fromDecimal("123456789123456789123456789");
  for (uint32_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
    BigUint b = a;
    b <<= s;
    b >>= s;
    EXPECT_EQ(b, a) << "shift " << s;
  }
}

TEST(BigUint, ShiftRightDropsBits) {
  BigUint a(0b1011);
  a >>= 2;
  EXPECT_EQ(a.toU64(), 0b10u);
  BigUint b(7);
  b >>= 10;
  EXPECT_TRUE(b.isZero());
}

TEST(BigUint, MulSmall) {
  BigUint a(1);
  for (int i = 0; i < 25; ++i) a.mulSmall(10);
  EXPECT_EQ(a.toDecimal(), "10000000000000000000000000");
  BigUint z(77);
  z.mulSmall(0);
  EXPECT_TRUE(z.isZero());
}

TEST(BigUint, Ordering) {
  EXPECT_LT(BigUint(3), BigUint(4));
  EXPECT_LT(BigUint(~0ull), BigUint::powerOfTwo(64));
  EXPECT_GT(BigUint::powerOfTwo(65), BigUint::powerOfTwo(64));
  EXPECT_LE(BigUint(5), BigUint(5));
}

TEST(BigUint, ToDouble) {
  EXPECT_DOUBLE_EQ(BigUint(1000).toDouble(), 1000.0);
  EXPECT_NEAR(BigUint::powerOfTwo(100).toDouble(), 1.2676506002282294e30, 1e15);
}

// Property: BigUint arithmetic agrees with native 64-bit arithmetic wherever
// the latter is exact.
TEST(BigUintProperty, MatchesNativeArithmetic) {
  Rng rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    uint64_t x = rng.next() >> 33;  // keep sums/products in range
    uint64_t y = rng.next() >> 33;
    EXPECT_EQ((BigUint(x) + BigUint(y)).toU64(), x + y);
    uint64_t lo = std::min(x, y), hi = std::max(x, y);
    EXPECT_EQ((BigUint(hi) - BigUint(lo)).toU64(), hi - lo);
    EXPECT_EQ(BigUint(x).mulSmall(y).toU64(), x * y);
    uint32_t s = static_cast<uint32_t>(rng.below(32));
    EXPECT_EQ((BigUint(x) << s).toU64(), x << s);
    EXPECT_EQ((BigUint(x) >> s).toU64(), x >> s);
    EXPECT_EQ(BigUint(x).compare(BigUint(y)), x < y ? -1 : (x > y ? 1 : 0));
    EXPECT_EQ(BigUint(x).toDecimal(), std::to_string(x));
  }
}

}  // namespace
}  // namespace presat
