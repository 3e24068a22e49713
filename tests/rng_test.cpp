#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "rng/lfsr.h"
#include "rng/normal_clt.h"
#include "rng/xoshiro.h"

namespace qta::rng {
namespace {

// Maximal-length property: an LFSR of width w visits all 2^w - 1 nonzero
// states before repeating. Exhaustive for small widths.
class LfsrPeriodTest : public testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriodTest, IsMaximalLength) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 1);
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  const std::uint64_t start = lfsr.state();
  std::uint64_t steps = 0;
  do {
    lfsr.draw_bits(1);  // one register step
    const std::uint64_t s = lfsr.state();
    ASSERT_NE(s, 0u) << "LFSR reached the absorbing zero state";
    ++steps;
    ASSERT_LE(steps, period);
  } while (lfsr.state() != start);
  EXPECT_EQ(steps, period);
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriodTest,
                         testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                         10u, 11u, 12u, 13u, 14u, 15u, 16u,
                                         17u, 18u));

// Larger widths: verify a long run produces no zero state and no short
// cycle within a window.
class LfsrWideTest : public testing::TestWithParam<unsigned> {};

TEST_P(LfsrWideTest, NoShortCycle) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 0xdeadbeefcafeULL);
  const std::uint64_t start = lfsr.state();
  for (int i = 0; i < 100000; ++i) {
    lfsr.draw_bits(1);
    const std::uint64_t s = lfsr.state();
    ASSERT_NE(s, 0u);
    ASSERT_NE(s, start) << "cycle shorter than 100000 at width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrWideTest,
                         testing::Values(24u, 32u, 40u, 48u, 56u, 64u));

TEST(Lfsr, ZeroSeedIsFixedUp) {
  Lfsr lfsr(16, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, SeedIsMasked) {
  Lfsr lfsr(8, 0xFFFF);
  EXPECT_LE(lfsr.state(), 0xFFu);
}

TEST(Lfsr, DrawBitsWidths) {
  Lfsr lfsr(32, 99);
  for (unsigned n = 1; n <= 64; ++n) {
    const std::uint64_t v = lfsr.draw_bits(n);
    if (n < 64) {
      EXPECT_LT(v, std::uint64_t{1} << n) << n;
    }
  }
}

TEST(Lfsr, DrawBitsRoughlyUniform) {
  Lfsr lfsr(32, 7);
  // Count ones across many 32-bit draws; expect ~50%.
  std::uint64_t ones = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(
        lfsr.draw_bits(32)));
  }
  const double frac =
      static_cast<double>(ones) / (32.0 * static_cast<double>(draws));
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(Lfsr, BelowStaysInBounds) {
  Lfsr lfsr(32, 3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 5ull, 100ull, 262144ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(lfsr.below(bound), bound);
    }
  }
}

TEST(Lfsr, BelowCoversRange) {
  Lfsr lfsr(32, 13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(lfsr.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Lfsr, DeterministicForSeed) {
  Lfsr a(32, 42), b(32, 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.draw_bits(1), b.draw_bits(1));
    EXPECT_EQ(a.state(), b.state());
  }
}

TEST(Lfsr, Period) {
  EXPECT_EQ(Lfsr(16).period(), 65535u);
  EXPECT_EQ(Lfsr(32).period(), 4294967295u);
}

TEST(Lfsr, FlipFlops) { EXPECT_EQ(Lfsr(24).flip_flops(), 24u); }

// The output stream, pinned. Each row is a fresh Lfsr(width, seed)
// drawing 16 n-bit values, then the register it leaves. The constants
// were recorded from a bit-serial LFSR (one register step per output
// bit) and must not be edited: every table, trace and snapshot in the
// system follows from these streams. Width 32 (the RngBank register,
// x^32 + x^22 + x^2 + x + 1) leaps 10 bits per step, so n = 9, 10, 16,
// 32 and 64 end inside, at and past leap boundaries; widths 16 and 64
// have a tap at width - 1 and so leap one bit per step.
struct GoldenStream {
  unsigned width;
  std::uint64_t seed;
  unsigned n;
  std::uint64_t draws[16];
  std::uint64_t state_after;
};

constexpr GoldenStream kGoldenStreams[] = {
    {32, 0x5eed1234u, 1,
     {0x0, 0x1, 0x0, 0x1, 0x1, 0x1, 0x1, 0x0, 0x1, 0x1, 0x1, 0x1, 0x1, 0x0,
      0x1, 0x0},
     0xacb598e6},
    {32, 0x5eed1234u, 2,
     {0x2, 0x2, 0x3, 0x1, 0x3, 0x3, 0x1, 0x1, 0x1, 0x1, 0x3, 0x0, 0x1, 0x2,
      0x3, 0x1},
     0xbf6547da},
    {32, 0x5eed1234u, 9,
     {0x17a, 0xaf, 0x4d, 0x1af, 0x12f, 0x14a, 0xfa, 0x18c, 0xb7, 0x44, 0x1a3,
      0x17c, 0x15, 0x164, 0x179, 0x1b2},
     0x214365c1},
    {32, 0x5eed1234u, 10,
     {0x37a, 0x157, 0x393, 0x3f5, 0x152, 0x3aa, 0x63, 0x2df, 0x88, 0x1a3,
      0x1be, 0x205, 0x26c, 0x257, 0x4d, 0x34a},
     0x3701e6f1},
    {32, 0x5eed1234u, 16,
     {0x5f7a, 0x7935, 0x52fd, 0x3ea9, 0xb7c6, 0x8c88, 0x5be6, 0x6c81, 0xd95e,
      0xd284, 0x30ec, 0x1fa4, 0x58df, 0xa6fc, 0x101c, 0x287d},
     0x2d3b3a6c},
    {32, 0x5eed1234u, 32,
     {0x79355f7a, 0x3ea952fd, 0x8c88b7c6, 0x6c815be6, 0xd284d95e, 0x1fa430ec,
      0xa6fc58df, 0x287d101c, 0x8e6e0cb4, 0x5f4d63fa, 0x3d569b84, 0x88493852,
      0x953ed04e, 0xa036b62e, 0x7a088a32, 0x26cfd04f},
     0x733d83c},
    {32, 0x5eed1234u, 64,
     {0x3ea952fd79355f7a, 0x6c815be68c88b7c6, 0x1fa430ecd284d95e,
      0x287d101ca6fc58df, 0x5f4d63fa8e6e0cb4, 0x884938523d569b84,
      0xa036b62e953ed04e, 0x26cfd04f7a088a32, 0x90d90bdc9d284ce0,
      0x1d53640b1bd9d686, 0x7caf3b77db03eb79, 0xb17ee2530e44e5e3,
      0x229c4c4aaf8a852b, 0xc37d85b6f1e2a5f7, 0xff8619013258110d,
      0x6e51f97ae146c3f},
     0x45eb7420},
    {16, 0xbeefu, 1,
     {0x1, 0x1, 0x0, 0x0, 0x0, 0x1, 0x0, 0x0, 0x0, 0x1, 0x0, 0x0, 0x1, 0x1,
      0x0, 0x0},
     0x8c},
    {16, 0xbeefu, 5,
     {0x3, 0x11, 0xc, 0x0, 0x10, 0x3, 0x0, 0xa, 0xb, 0x16, 0x3, 0x1d, 0x1c,
      0x1b, 0xa, 0xc},
     0xf926},
    {16, 0xbeefu, 16,
     {0x3223, 0x700, 0xcb50, 0xce8e, 0x62b7, 0x10ad, 0x9c85, 0x278, 0x6ced,
      0xc4e0, 0x64f, 0x70e1, 0x5b44, 0xa8fe, 0x959b, 0xf8a5},
     0x94ef},
    {64, 0x0123456789abcdefULL, 1,
     {0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1,
      0x0, 0x1},
     0xb56789abcdef01fd},
    {64, 0x0123456789abcdefULL, 7,
     {0x0, 0x7f, 0xe, 0xc, 0x1d, 0x10, 0x42, 0x2c, 0x50, 0x6d, 0x4c, 0x37,
      0x13, 0x6f, 0x56, 0x36},
     0x3a0b6ccf6c9edab6},
    {64, 0x0123456789abcdefULL, 64,
     {0xd0590881d183bf80, 0x14946d5b7936f336, 0xc6a52088213ae8c5,
      0xf69f91c9c48ca0ea, 0x9962f015a3f158e9, 0xc818d001a733947b,
      0x9b8f149258b4b950, 0x5a63395a947dcb94, 0xdd6902b0d4e65cb9,
      0x2cfb927dbe43c159, 0xc40ba568616a8706, 0x1524588a4daeede3,
      0x1a9536352ca0a2e, 0x2483773c53bf244a, 0x7236fafd2261723f,
      0xe6e18585d8dfe6e1},
     0x9767fb1ba1a18767},
};

TEST(Lfsr, GoldenStreams) {
  for (const GoldenStream& g : kGoldenStreams) {
    Lfsr lfsr(g.width, g.seed);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(lfsr.draw_bits(g.n), g.draws[i])
          << "width " << g.width << " n " << g.n << " draw " << i;
    }
    EXPECT_EQ(lfsr.state(), g.state_after)
        << "width " << g.width << " n " << g.n;
  }
}

// The definition of the output stream: one Galois step per bit, the
// bit leaving at the MSB collected LSB first. Lfsr must reproduce it
// exactly, however many bits it advances per step.
class BitSerialLfsr {
 public:
  BitSerialLfsr(unsigned width, std::uint64_t state)
      : width_(width),
        mask_(width == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width) - 1),
        taps_(lfsr_taps(width)),
        state_(state) {}

  std::uint64_t draw_bits(unsigned n) {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < n; ++i) {
      const std::uint64_t out = (state_ >> (width_ - 1)) & 1u;
      acc |= out << i;
      state_ = ((state_ << 1) & mask_) ^ (out ? taps_ : 0u);
    }
    return acc;
  }

  std::uint64_t state() const { return state_; }

 private:
  unsigned width_;
  std::uint64_t mask_;
  std::uint64_t taps_;
  std::uint64_t state_;
};

// Every width x every draw size, from seeded random registers: each
// draw's value and the register after it, then below() and uniform()
// against their definitions over the reference stream, then a register
// restored through set_state().
TEST(Lfsr, MatchesBitSerialReference) {
  Xoshiro256 seeds(2024);
  for (unsigned width = 2; width <= 64; ++width) {
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (int trial = 0; trial < 8; ++trial) {
      std::uint64_t start = seeds.next() & mask;
      if (start == 0) start = 1;
      Lfsr lfsr(width, start);
      ASSERT_EQ(lfsr.state(), start);
      BitSerialLfsr ref(width, start);
      for (unsigned n = 1; n <= 64; ++n) {
        ASSERT_EQ(lfsr.draw_bits(n), ref.draw_bits(n))
            << "width " << width << " n " << n << " trial " << trial;
        ASSERT_EQ(lfsr.state(), ref.state())
            << "width " << width << " n " << n << " trial " << trial;
      }
      __extension__ typedef unsigned __int128 u128;
      for (const std::uint64_t bound : {2ull, 3ull, 1000ull, 1ull << 40}) {
        const auto want = static_cast<std::uint64_t>(
            (static_cast<u128>(ref.draw_bits(32)) * bound) >> 32);
        ASSERT_EQ(lfsr.below(bound), want) << "width " << width;
      }
      const unsigned bits = width < 53 ? width : 53;
      const double want = static_cast<double>(ref.draw_bits(bits)) /
                          static_cast<double>(std::uint64_t{1} << bits);
      ASSERT_EQ(lfsr.uniform(), want) << "width " << width;
      ASSERT_EQ(lfsr.state(), ref.state()) << "width " << width;
      // set_state() takes the register as published (snapshots store it).
      Lfsr resumed(width, 1);
      resumed.set_state(ref.state());
      ASSERT_EQ(resumed.draw_bits(64), ref.draw_bits(64)) << "width " << width;
    }
  }
}

TEST(NormalClt, MeanAndStddev) {
  NormalClt gen(123);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = gen.sample_standard();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(NormalClt, ScaledSample) {
  NormalClt gen(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += gen.sample(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(NormalClt, BoundedSupport) {
  // Irwin-Hall with k=12: support is +/- sqrt(12)/2 * ... => |x| <= 6.
  NormalClt gen(9, 12);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(std::abs(gen.sample_standard()), 6.001);
  }
}

TEST(NormalClt, FixedPointSample) {
  NormalClt gen(77);
  const fixed::Format f{18, 8};
  for (int i = 0; i < 100; ++i) {
    const fixed::raw_t r = gen.sample_fixed(0.0, 1.0, f);
    EXPECT_GE(r, f.min_raw());
    EXPECT_LE(r, f.max_raw());
  }
}

TEST(NormalClt, RoughlyGaussianShape) {
  // ~68% of samples within one stddev.
  NormalClt gen(31);
  int within = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(gen.sample_standard()) <= 1.0) ++within;
  }
  EXPECT_NEAR(static_cast<double>(within) / n, 0.6827, 0.02);
}

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(1), b(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, BelowUnbiasedCoverage) {
  Xoshiro256 rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Xoshiro, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro, BernoulliFrequency) {
  Xoshiro256 rng(4);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(SplitMix, DistinctStreams) {
  SplitMix64 sm(1);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace qta::rng
