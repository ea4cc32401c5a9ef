// Tests for the instrumented device scalars: FLOP counting and the 22-bit
// fast-math rounding of division and square root.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "simt/gfloat.h"
#include "simt/wide.h"

namespace regla::simt {
namespace {

class GfloatCounting : public ::testing::Test {
 protected:
  void SetUp() override {
    current_stats() = &stats_;
    fast_math_enabled() = true;
  }
  void TearDown() override { current_stats() = nullptr; }
  ThreadStats stats_;
};

TEST_F(GfloatCounting, AddMulCountOneFlopOneInstr) {
  gfloat a(2.0f), b(3.0f);
  gfloat c = a + b;
  gfloat d = a * b;
  EXPECT_EQ(c.value(), 5.0f);
  EXPECT_EQ(d.value(), 6.0f);
  EXPECT_EQ(stats_.flops, 2u);
  EXPECT_EQ(stats_.fp_instrs, 2u);
}

TEST_F(GfloatCounting, FmaCountsTwoFlopsOneInstr) {
  gfloat r = gfma(gfloat(2.0f), gfloat(3.0f), gfloat(4.0f));
  EXPECT_EQ(r.value(), 10.0f);
  EXPECT_EQ(stats_.flops, 2u);
  EXPECT_EQ(stats_.fp_instrs, 1u);
}

TEST_F(GfloatCounting, DivisionCounted) {
  gfloat r = gfloat(1.0f) / gfloat(3.0f);
  EXPECT_NEAR(r.value(), 1.0f / 3.0f, 1e-6f);
  EXPECT_EQ(stats_.divs, 1u);
}

TEST_F(GfloatCounting, SqrtCounted) {
  gfloat r = gsqrt(gfloat(2.0f));
  EXPECT_NEAR(r.value(), std::sqrt(2.0f), 1e-6f);
  EXPECT_EQ(stats_.sqrts, 1u);
}

TEST_F(GfloatCounting, NegationAndCompareFree) {
  gfloat a(2.0f);
  gfloat b = -a;
  bool lt = b < a;
  EXPECT_TRUE(lt);
  EXPECT_EQ(stats_.flops, 0u);
}

TEST_F(GfloatCounting, ComplexMulCountsRealFlops) {
  gcomplex a(gfloat(1.0f), gfloat(2.0f)), b(gfloat(3.0f), gfloat(4.0f));
  gcomplex c = a * b;
  EXPECT_FLOAT_EQ(c.re().value(), -5.0f);
  EXPECT_FLOAT_EQ(c.im().value(), 10.0f);
  // 2 gfma (2 flops each) + 2 muls = 6 real flops.
  EXPECT_EQ(stats_.flops, 6u);
}

TEST(GfloatFastMath, DivisionAccurateTo22Bits) {
  fast_math_enabled() = true;
  Rng rng(1);
  float worst = 0;
  for (int i = 0; i < 10000; ++i) {
    const float a = rng.uniform(0.1f, 10.0f);
    const float b = rng.uniform(0.1f, 10.0f);
    const float fast = (gfloat(a) / gfloat(b)).value();
    const float exact = a / b;
    worst = std::max(worst, std::fabs(fast - exact) / std::fabs(exact));
  }
  // 22 good mantissa bits: relative error ~2^-22; full precision is 2^-24.
  EXPECT_LT(worst, std::pow(2.0f, -21.0f));
  EXPECT_GT(worst, std::pow(2.0f, -25.0f));  // genuinely degraded
}

TEST(GfloatFastMath, SqrtAccurateTo22Bits) {
  fast_math_enabled() = true;
  Rng rng(2);
  float worst = 0;
  for (int i = 0; i < 10000; ++i) {
    const float a = rng.uniform(0.01f, 100.0f);
    const float fast = gsqrt(gfloat(a)).value();
    worst = std::max(worst, std::fabs(fast - std::sqrt(a)) / std::sqrt(a));
  }
  EXPECT_LT(worst, std::pow(2.0f, -21.0f));
}

TEST(GfloatFastMath, FullPrecisionWhenDisabled) {
  fast_math_enabled() = false;
  EXPECT_EQ((gfloat(1.0f) / gfloat(3.0f)).value(), 1.0f / 3.0f);
  EXPECT_EQ(gsqrt(gfloat(2.0f)).value(), std::sqrt(2.0f));
  fast_math_enabled() = true;
}

TEST(Gcomplex, MatchesStdComplex) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::complex<float> a{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    const std::complex<float> b{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    const gcomplex ga(a), gb(b);
    EXPECT_NEAR(std::abs((ga * gb).to_std() - a * b), 0.0f, 1e-5f);
    EXPECT_NEAR(std::abs((ga + gb).to_std() - (a + b)), 0.0f, 1e-6f);
    EXPECT_NEAR(std::abs((ga - gb).to_std() - (a - b)), 0.0f, 1e-6f);
    EXPECT_NEAR(std::abs(ga.conj().to_std() - std::conj(a)), 0.0f, 1e-6f);
    EXPECT_NEAR(ga.norm2().value(), std::norm(a), 1e-5f);
  }
}

TEST(Gcomplex, NoCountingWithoutStats) {
  current_stats() = nullptr;
  gfloat a(1.0f), b(2.0f);
  EXPECT_EQ((a + b).value(), 3.0f);  // must not crash
}

// gfloat8 is gfloat per element, bit for bit, in both fast-math modes —
// including infinities, NaNs, signed zeros and subnormals — and select and
// the comparisons follow each element.
TEST(Gfloat8, EveryElementIsBitwiseGfloat) {
  const float special[] = {0.0f, -0.0f, 1.0f, -3.5f, 1e-40f, -1e-40f,
                           3e38f, INFINITY, -INFINITY, NAN};
  Rng rng(11);
  const auto bits = [](float x) {
    std::uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  for (const bool fast : {true, false}) {
    fast_math_enabled() = fast;
    for (int round = 0; round < 40; ++round) {
      gfloat8 a, b, c;
      for (int g = 0; g < kGroupWidth; ++g) {
        const int k = round * kGroupWidth + g;
        a[g] = k < 100 ? special[k % 10] : rng.uniform(-4, 4);
        b[g] = k < 100 ? special[(k / 10) % 10] : rng.uniform(-4, 4);
        c[g] = rng.uniform(-4, 4);
      }
      const gfloat8 r[] = {a + b, a - b, a * b, a / b, -a, gfma(a, b, c),
                           gsqrt(a), select(a > b, a, c)};
      const mask8 eq = a == b, ne = a != b;
      for (int g = 0; g < kGroupWidth; ++g) {
        const gfloat x(a[g]), y(b[g]), z(c[g]);
        const gfloat want[] = {x + y, x - y, x * y, x / y, -x, gfma(x, y, z),
                               gsqrt(x), x > y ? x : z};
        for (int op = 0; op < 8; ++op)
          EXPECT_EQ(bits(r[op][g]), bits(want[op].value()))
              << "op " << op << " element " << g << " fast " << fast;
        EXPECT_EQ(eq.m[g], x == y);
        EXPECT_EQ(ne.m[g], x != y);
      }
    }
  }
  fast_math_enabled() = true;
}

}  // namespace
}  // namespace regla::simt
