#include <gtest/gtest.h>

#include <cmath>

#include "crypto/prng.hpp"
#include "crypto/ring.hpp"

namespace pc = pasnet::crypto;

TEST(Ring, MaskAndSignBit) {
  pc::RingConfig rc32{32, 12};
  EXPECT_EQ(rc32.mask(), 0xFFFFFFFFULL);
  EXPECT_EQ(rc32.sign_bit(), 0x80000000ULL);
  pc::RingConfig rc64{64, 16};
  EXPECT_EQ(rc64.mask(), ~0ULL);
}

TEST(Ring, SignedRoundTrip) {
  pc::RingConfig rc{32, 12};
  for (std::int64_t v : {0LL, 1LL, -1LL, 1000LL, -1000LL, (1LL << 30), -(1LL << 30)}) {
    EXPECT_EQ(pc::to_signed(pc::from_signed(v, rc), rc), v);
  }
}

TEST(Ring, EncodeDecodeRoundTrip) {
  pc::RingConfig rc{32, 12};
  for (double x : {0.0, 1.0, -1.0, 3.14159, -2.71828, 100.5, -77.25}) {
    EXPECT_NEAR(pc::decode(pc::encode(x, rc), rc), x, 1.0 / rc.scale());
  }
}

TEST(Ring, AddSubWrapAround) {
  pc::RingConfig rc{8, 0};
  EXPECT_EQ(pc::ring_add(200, 100, rc), (200 + 100) % 256);
  EXPECT_EQ(pc::ring_sub(10, 20, rc), (256 + 10 - 20) % 256);
  EXPECT_EQ(pc::ring_neg(1, rc), 255u);
}

TEST(Ring, PaperFig2FourBitExample) {
  // Fig. 2 uses a 4-bit ring Z_16 ~ {-8..7}: (-3)*2 = -6, overflow wraps.
  pc::RingConfig rc{4, 0};
  const std::uint64_t a = pc::from_signed(-3, rc);
  const std::uint64_t r = pc::ring_mul(a, pc::from_signed(2, rc), rc);
  EXPECT_EQ(pc::to_signed(r, rc), -6);
  // 7 + 7 wraps to -2 in Z_16.
  EXPECT_EQ(pc::to_signed(pc::ring_add(pc::from_signed(7, rc), pc::from_signed(7, rc), rc), rc), -2);
}

TEST(Ring, TruncateMatchesArithmeticShift) {
  pc::RingConfig rc{32, 12};
  for (double x : {5.75, -5.75, 123.456, -0.125}) {
    const std::uint64_t big = pc::encode(x * rc.scale(), rc);  // 2f fraction bits
    const double back = pc::decode(pc::truncate(big, rc), rc);
    EXPECT_NEAR(back, x, 2.0 / rc.scale());
  }
}

TEST(Ring, SixtyThreeBitRingSignExtendsWithoutOverflow) {
  // On a 63-bit ring 2^bits no longer fits an int64: sign extension must
  // not go through signed arithmetic (UBSan flags the overflow).
  pc::RingConfig rc{63, 12};
  EXPECT_EQ(pc::to_signed(rc.sign_bit(), rc), -(std::int64_t{1} << 62));
  EXPECT_EQ(pc::to_signed(rc.mask(), rc), -1);
  EXPECT_EQ(pc::to_signed(rc.sign_bit() - 1, rc), (std::int64_t{1} << 62) - 1);
  EXPECT_EQ(pc::from_signed(-(std::int64_t{1} << 62), rc), rc.sign_bit());
  // -3.0 with 2f fraction bits truncates to -3.0 with f.
  const std::uint64_t neg = pc::from_signed(-3 * (std::int64_t{1} << 24), rc);
  EXPECT_EQ(pc::to_signed(pc::truncate(neg, rc), rc), -3 * (std::int64_t{1} << 12));
}

TEST(Ring, VectorOpsMatchScalar) {
  pc::RingConfig rc{32, 12};
  pc::Prng prng(5);
  pc::RingVec a(64), b(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = prng.next_u64() & rc.mask();
    b[i] = prng.next_u64() & rc.mask();
  }
  const auto sum = pc::add_vec(a, b, rc);
  const auto dif = pc::sub_vec(a, b, rc);
  const auto prd = pc::mul_vec(a, b, rc);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], pc::ring_add(a[i], b[i], rc));
    EXPECT_EQ(dif[i], pc::ring_sub(a[i], b[i], rc));
    EXPECT_EQ(prd[i], pc::ring_mul(a[i], b[i], rc));
  }
}

TEST(Ring, VectorSizeMismatchThrows) {
  pc::RingConfig rc{32, 12};
  pc::RingVec a(3), b(4);
  EXPECT_THROW((void)pc::add_vec(a, b, rc), std::invalid_argument);
  EXPECT_THROW((void)pc::mul_vec(a, b, rc), std::invalid_argument);
}

// Property sweep: algebraic ring identities hold across ring sizes.
class RingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingProperty, AlgebraicIdentities) {
  const int bits = GetParam();
  pc::RingConfig rc{bits, 0};
  pc::Prng prng(bits * 1000 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = prng.next_u64() & rc.mask();
    const std::uint64_t b = prng.next_u64() & rc.mask();
    const std::uint64_t c = prng.next_u64() & rc.mask();
    // commutativity
    EXPECT_EQ(pc::ring_add(a, b, rc), pc::ring_add(b, a, rc));
    EXPECT_EQ(pc::ring_mul(a, b, rc), pc::ring_mul(b, a, rc));
    // associativity
    EXPECT_EQ(pc::ring_add(pc::ring_add(a, b, rc), c, rc),
              pc::ring_add(a, pc::ring_add(b, c, rc), rc));
    // distributivity
    EXPECT_EQ(pc::ring_mul(a, pc::ring_add(b, c, rc), rc),
              pc::ring_add(pc::ring_mul(a, b, rc), pc::ring_mul(a, c, rc), rc));
    // inverse
    EXPECT_EQ(pc::ring_add(a, pc::ring_neg(a, rc), rc), 0u);
    // sub == add(neg)
    EXPECT_EQ(pc::ring_sub(a, b, rc), pc::ring_add(a, pc::ring_neg(b, rc), rc));
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingProperty, ::testing::Values(4, 8, 16, 32, 48, 64));

// Fixed-point encode/decode stays faithful across fraction-bit settings.
class FixedPointProperty : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointProperty, EncodeDecodeError) {
  const int f = GetParam();
  pc::RingConfig rc{32, f};
  pc::Prng prng(f + 99);
  for (int i = 0; i < 500; ++i) {
    const double x = (prng.next_unit() - 0.5) * 200.0;
    EXPECT_NEAR(pc::decode(pc::encode(x, rc), rc), x, 1.0 / rc.scale());
  }
}

INSTANTIATE_TEST_SUITE_P(FracBits, FixedPointProperty, ::testing::Values(6, 8, 10, 12, 14, 16));
