//===----------------------------------------------------------------------===//
///
/// \file
/// BigInt unit and property tests. The property suites check BigInt
/// arithmetic against native __int128 as an oracle on a grid of interesting
/// values (including limb boundaries), ring axioms on wide random values
/// where no native oracle exists, and the Lehmer gcd against a plain
/// Euclidean reference.
///
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using mcnk::BigInt;

namespace {

BigInt fromI128(__int128 Value) {
  bool Neg = Value < 0;
  unsigned __int128 Mag =
      Neg ? ~static_cast<unsigned __int128>(Value) + 1
          : static_cast<unsigned __int128>(Value);
  BigInt Low = BigInt::fromUnsigned(static_cast<uint64_t>(Mag));
  BigInt High = BigInt::fromUnsigned(static_cast<uint64_t>(Mag >> 64));
  BigInt Result = High.shl(64) + Low;
  return Neg ? -Result : Result;
}

std::string i128ToString(__int128 Value) {
  if (Value == 0)
    return "0";
  bool Neg = Value < 0;
  unsigned __int128 Mag =
      Neg ? ~static_cast<unsigned __int128>(Value) + 1
          : static_cast<unsigned __int128>(Value);
  std::string Digits;
  while (Mag) {
    Digits.push_back(static_cast<char>('0' + static_cast<int>(Mag % 10)));
    Mag /= 10;
  }
  if (Neg)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

/// Interesting 64-bit magnitudes around limb and word boundaries.
const std::vector<int64_t> InterestingValues = {
    0,
    1,
    -1,
    2,
    -2,
    7,
    -7,
    42,
    1000000000,
    -1000000000,
    (1LL << 31) - 1,
    1LL << 31,
    (1LL << 32) - 1,
    1LL << 32,
    (1LL << 32) + 1,
    -(1LL << 32),
    (1LL << 52) + 12345,
    (1LL << 62),
    -(1LL << 62),
    INT64_MAX,
    INT64_MIN + 1,
    INT64_MIN,
};

} // namespace

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).toString(), "0");
  EXPECT_EQ(BigInt(-0).toString(), "0");
  EXPECT_EQ(BigInt(123456789).toString(), "123456789");
  EXPECT_EQ(BigInt(-987654321).toString(), "-987654321");
  EXPECT_EQ(BigInt(INT64_MAX).toString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).toString(), "-9223372036854775808");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char *Text :
       {"0", "1", "-1", "99999999999999999999999999999999999999",
        "-340282366920938463463374607431768211456", "123",
        "18446744073709551616"}) {
    BigInt Value;
    ASSERT_TRUE(BigInt::fromString(Text, Value)) << Text;
    EXPECT_EQ(Value.toString(), Text);
  }
}

TEST(BigIntTest, FromStringRejectsMalformed) {
  BigInt Value;
  EXPECT_FALSE(BigInt::fromString("", Value));
  EXPECT_FALSE(BigInt::fromString("-", Value));
  EXPECT_FALSE(BigInt::fromString("12a3", Value));
  EXPECT_FALSE(BigInt::fromString("0x10", Value));
  EXPECT_FALSE(BigInt::fromString(" 1", Value));
}

TEST(BigIntTest, ZeroIsCanonical) {
  BigInt A(5), B(5);
  BigInt Zero = A - B;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_FALSE(Zero.isNegative());
  EXPECT_EQ(Zero, BigInt(0));
  EXPECT_EQ((-Zero), BigInt(0));
  EXPECT_EQ(Zero.hash(), BigInt(0).hash());
}

TEST(BigIntTest, FitsAndToInt64) {
  for (int64_t V : InterestingValues) {
    BigInt B(V);
    ASSERT_TRUE(B.fitsInt64()) << V;
    EXPECT_EQ(B.toInt64(), V);
  }
  BigInt TooBig = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(TooBig.fitsInt64());
  BigInt MinValue = BigInt(INT64_MIN);
  EXPECT_TRUE(MinValue.fitsInt64());
  EXPECT_FALSE((MinValue - BigInt(1)).fitsInt64());
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).bitLength(), 0u);
  EXPECT_EQ(BigInt(1).bitLength(), 1u);
  EXPECT_EQ(BigInt(2).bitLength(), 2u);
  EXPECT_EQ(BigInt(255).bitLength(), 8u);
  EXPECT_EQ(BigInt(256).bitLength(), 9u);
  EXPECT_EQ(BigInt(1).shl(100).bitLength(), 101u);
}

TEST(BigIntTest, ShiftRoundTrip) {
  BigInt Value;
  ASSERT_TRUE(BigInt::fromString("12345678901234567890123456789", Value));
  for (unsigned Bits : {1u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    EXPECT_EQ(Value.shl(Bits).shr(Bits), Value) << Bits;
  }
  EXPECT_EQ(BigInt(5).shr(3), BigInt(0));
  EXPECT_EQ(BigInt(40).shr(3), BigInt(5));
}

TEST(BigIntTest, PowSmallCases) {
  EXPECT_EQ(BigInt::pow(BigInt(2), 0), BigInt(1));
  EXPECT_EQ(BigInt::pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::pow(BigInt(10), 20).toString(), "100000000000000000000");
  EXPECT_EQ(BigInt::pow(BigInt(-3), 3), BigInt(-27));
  EXPECT_EQ(BigInt::pow(BigInt(0), 5), BigInt(0));
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(6)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigInt(0).toDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigInt(1).toDouble(), 1.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).toDouble(), -12345.0);
  BigInt Big = BigInt(1).shl(100);
  EXPECT_DOUBLE_EQ(Big.toDouble(), std::ldexp(1.0, 100));
  BigInt Huge = BigInt::pow(BigInt(10), 30);
  EXPECT_NEAR(Huge.toDouble(), 1e30, 1e30 * 1e-12);
}

/// Pairwise oracle test against __int128 over the interesting-value grid.
class BigIntPairProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(BigIntPairProperty, MatchesInt128Oracle) {
  auto [AV, BV] = GetParam();
  __int128 A128 = AV, B128 = BV;
  BigInt A(AV), B(BV);

  EXPECT_EQ((A + B).toString(), i128ToString(A128 + B128));
  EXPECT_EQ((A - B).toString(), i128ToString(A128 - B128));
  EXPECT_EQ((A * B).toString(), i128ToString(A128 * B128));
  EXPECT_EQ(A.compare(B) < 0, AV < BV);
  EXPECT_EQ(A == B, AV == BV);
  if (BV != 0) {
    auto [Q, R] = BigInt::divMod(A, B);
    EXPECT_EQ(Q.toString(), i128ToString(A128 / B128));
    EXPECT_EQ(R.toString(), i128ToString(A128 % B128));
    // Division identity.
    EXPECT_EQ(Q * B + R, A);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BigIntPairProperty,
    ::testing::Combine(::testing::ValuesIn(InterestingValues),
                       ::testing::ValuesIn(InterestingValues)));

/// Randomized wide-value properties (no native oracle; checks ring axioms
/// and the division identity on multi-limb values).
class BigIntRandomProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntRandomProperty, RingAxiomsAndDivision) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<uint64_t> Word;
  auto RandomBig = [&](unsigned Words) {
    BigInt Value;
    for (unsigned I = 0; I < Words; ++I)
      Value = Value.shl(64) + BigInt::fromUnsigned(Word(Rng));
    if (Word(Rng) & 1)
      Value = -Value;
    return Value;
  };

  for (int Round = 0; Round < 25; ++Round) {
    BigInt A = RandomBig(1 + Round % 5);
    BigInt B = RandomBig(1 + (Round / 2) % 4);
    BigInt C = RandomBig(1 + (Round / 3) % 3);

    // Commutativity / associativity / distributivity.
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A - A, BigInt(0));

    // Division identity with both wide and narrow divisors.
    if (!B.isZero()) {
      auto [Q, R] = BigInt::divMod(A, B);
      EXPECT_EQ(Q * B + R, A);
      EXPECT_TRUE(R.abs() < B.abs());
      // Remainder sign follows dividend (C++ truncated semantics).
      if (!R.isZero()) {
        EXPECT_EQ(R.isNegative(), A.isNegative());
      }
    }

    // String round trip.
    BigInt Parsed;
    ASSERT_TRUE(BigInt::fromString(A.toString(), Parsed));
    EXPECT_EQ(Parsed, A);

    // gcd divides both operands.
    BigInt G = BigInt::gcd(A, B);
    if (!G.isZero()) {
      EXPECT_EQ(A % G, BigInt(0));
      EXPECT_EQ(B % G, BigInt(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(BigIntTest, KnuthDivisionAddBackCase) {
  // A crafted case exercising the rare "add back" branch of Algorithm D:
  // dividend / divisor chosen so the trial quotient digit overestimates.
  BigInt A = BigInt(1).shl(96) - BigInt(1).shl(64) + BigInt(3);
  BigInt B = BigInt(1).shl(64) - BigInt(1);
  auto [Q, R] = BigInt::divMod(A, B);
  EXPECT_EQ(Q * B + R, A);
  EXPECT_TRUE(R.abs() < B.abs());

  BigInt A2 = fromI128((static_cast<__int128>(0x8000000000000000ULL) << 64));
  BigInt B2 = fromI128((static_cast<__int128>(0x8000000000000001ULL)));
  auto [Q2, R2] = BigInt::divMod(A2, B2);
  EXPECT_EQ(Q2 * B2 + R2, A2);
}

TEST(BigIntTest, HashConsistency) {
  BigInt A = BigInt::pow(BigInt(7), 40);
  BigInt B = BigInt::pow(BigInt(7), 40);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(std::hash<BigInt>{}(A), A.hash());
}

//===----------------------------------------------------------------------===//
// gcd: the Lehmer path against a one-division-per-step Euclid reference
//===----------------------------------------------------------------------===//

namespace {

/// Reference gcd: the Euclidean loop BigInt::gcd ran before it gained its
/// Lehmer windows, one full-precision division per step.
BigInt euclidGcd(BigInt X, BigInt Y) {
  X = X.abs();
  Y = Y.abs();
  while (!Y.isZero()) {
    BigInt R = X % Y;
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

/// A nonnegative value of exactly \p Bits significant bits.
BigInt randomBits(std::mt19937_64 &Rng, unsigned Bits) {
  BigInt Value;
  for (unsigned Done = 0; Done < Bits; Done += 64) {
    unsigned Take = std::min(64u, Bits - Done);
    uint64_t Word = Rng();
    if (Take < 64)
      Word &= (uint64_t(1) << Take) - 1;
    Value = Value.shl(Take) + BigInt::fromUnsigned(Word);
  }
  // Force the top bit so the size is exact.
  BigInt Top = BigInt(1).shl(Bits - 1);
  if (Value < Top)
    Value += Top;
  return Value;
}

/// F_0 .. F_N (consecutive Fibonacci numbers are the Euclidean worst case:
/// every quotient is 1).
std::vector<BigInt> fibonacci(unsigned N) {
  std::vector<BigInt> F{BigInt(0), BigInt(1)};
  while (F.size() <= N)
    F.push_back(F[F.size() - 1] + F[F.size() - 2]);
  return F;
}

} // namespace

TEST(BigIntGcdTest, MatchesEuclidAroundTheWordBoundary) {
  // Both operands at 62..65 bits: the inline binary GCD (<= 63 bits), the
  // Lehmer path (both > 62 bits) and the one-big-one-small word tail.
  const unsigned Seed = 0x6C0D;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  for (unsigned ABits : {62u, 63u, 64u, 65u})
    for (unsigned BBits : {62u, 63u, 64u, 65u})
      for (int Round = 0; Round < 50; ++Round) {
        BigInt A = randomBits(Rng, ABits), B = randomBits(Rng, BBits);
        EXPECT_EQ(BigInt::gcd(A, B), euclidGcd(A, B))
            << ABits << "/" << BBits << " round " << Round;
      }
}

TEST(BigIntGcdTest, MatchesEuclidOnMultiLimbOperands) {
  const unsigned Seed = 0x1E4E;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  const unsigned Sizes[] = {63, 64, 65, 96, 127, 128, 129,
                            500, 1024, 2048, 4096, 8192};
  for (unsigned ABits : Sizes)
    for (unsigned BBits : Sizes) {
      if (BBits > ABits)
        continue;
      BigInt A = randomBits(Rng, ABits), B = randomBits(Rng, BBits);
      EXPECT_EQ(BigInt::gcd(A, B), euclidGcd(A, B)) << ABits << "/" << BBits;
      EXPECT_EQ(BigInt::gcd(B, A), euclidGcd(A, B)) << BBits << "/" << ABits;
    }
}

TEST(BigIntGcdTest, RecoversPlantedCommonFactors) {
  const unsigned Seed = 0xFAC7;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  for (unsigned GBits : {1u, 30u, 62u, 63u, 64u, 65u, 200u, 3000u})
    for (unsigned CofBits : {2u, 40u, 63u, 64u, 700u, 4000u}) {
      BigInt G = randomBits(Rng, GBits);
      BigInt A = G * randomBits(Rng, CofBits);
      BigInt B = G * randomBits(Rng, CofBits / 2 + 1);
      BigInt Got = BigInt::gcd(A, B);
      EXPECT_EQ(Got, euclidGcd(A, B)) << GBits << "/" << CofBits;
      EXPECT_EQ(Got % G, BigInt(0)) << GBits << "/" << CofBits;
    }
}

TEST(BigIntGcdTest, MultiplesAndEqualOperands) {
  const unsigned Seed = 0x3A11;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  for (unsigned Bits : {63u, 64u, 65u, 130u, 1000u, 8000u}) {
    BigInt A = randomBits(Rng, Bits);
    // One operand a multiple of the other, by small and huge multipliers.
    for (unsigned KBits : {1u, 2u, 61u, 62u, 63u, 64u, 300u}) {
      BigInt K = randomBits(Rng, KBits);
      EXPECT_EQ(BigInt::gcd(A * K, A), A) << Bits << "/" << KBits;
      EXPECT_EQ(BigInt::gcd(A, A * K), A) << Bits << "/" << KBits;
    }
    EXPECT_EQ(BigInt::gcd(A, A), A) << Bits;
  }
}

TEST(BigIntGcdTest, SignsAndZero) {
  const unsigned Seed = 0x5160;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  for (unsigned Bits : {62u, 64u, 65u, 200u, 2048u}) {
    BigInt A = randomBits(Rng, Bits), B = randomBits(Rng, Bits - 1);
    BigInt Expected = euclidGcd(A, B);
    EXPECT_EQ(BigInt::gcd(-A, B), Expected) << Bits;
    EXPECT_EQ(BigInt::gcd(A, -B), Expected) << Bits;
    EXPECT_EQ(BigInt::gcd(-A, -B), Expected) << Bits;
    EXPECT_EQ(BigInt::gcd(A, BigInt(0)), A) << Bits;
    EXPECT_EQ(BigInt::gcd(BigInt(0), -A), A) << Bits;
  }
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  // INT64_MIN's magnitude is 2^63, one past the inline range.
  BigInt Min(INT64_MIN), TwoTo63 = BigInt(1).shl(63);
  EXPECT_EQ(BigInt::gcd(Min, BigInt(0)), TwoTo63);
  EXPECT_EQ(BigInt::gcd(Min, Min), TwoTo63);
  EXPECT_EQ(BigInt::gcd(Min, BigInt(6)), BigInt(2));
  EXPECT_EQ(BigInt::gcd(Min, TwoTo63.shl(100)), TwoTo63);
  EXPECT_EQ(BigInt::gcd(Min, BigInt(INT64_MAX)), BigInt(1));
}

TEST(BigIntGcdTest, HugeQuotientStallsTheWindow) {
  // R0 = B·2^k + r with k far beyond a window: B's bits lie entirely
  // below R0's leading 62, so the first window certifies no quotient
  // (B == 0 in the cofactor matrix) and the kernel must take an exact
  // division step before windows can resume.
  const unsigned Seed = 0x57A1;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  std::mt19937_64 Rng(Seed);
  for (unsigned BBits : {63u, 64u, 100u, 700u})
    for (unsigned QBits : {61u, 62u, 63u, 64u, 200u, 3000u}) {
      BigInt B = randomBits(Rng, BBits);
      BigInt R0 = B * randomBits(Rng, QBits) + randomBits(Rng, BBits - 1);
      EXPECT_EQ(BigInt::gcd(R0, B), euclidGcd(R0, B))
          << BBits << "/" << QBits;
      // A planted common factor must survive the stalled step.
      BigInt G = randomBits(Rng, 80);
      EXPECT_EQ(BigInt::gcd(R0 * G, B * G), euclidGcd(R0, B) * G)
          << BBits << "/" << QBits;
    }
}

TEST(BigIntGcdTest, FibonacciPairs) {
  // Consecutive Fibonacci numbers are coprime with every quotient 1 (the
  // longest windows), and gcd(F_m, F_n) = F_gcd(m, n) plants a known
  // multi-limb answer. F_11000 has ~7.6k bits.
  std::vector<BigInt> F = fibonacci(11000);
  for (unsigned N : {93u, 94u, 95u, 200u, 1000u, 11000u})
    EXPECT_EQ(BigInt::gcd(F[N], F[N - 1]), BigInt(1)) << N;
  EXPECT_EQ(BigInt::gcd(F[11000], F[8800]), F[2200]);
  EXPECT_EQ(BigInt::gcd(F[9000], F[6000]), F[3000]);
  EXPECT_EQ(BigInt::gcd(F[5000], F[3125]), F[625]);
}
