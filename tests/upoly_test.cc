#include "poly/upoly.h"

#include <random>

#include <gtest/gtest.h>

#include "property_env.h"
#include "upoly_oracle.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

UPoly FromInts(std::initializer_list<std::int64_t> coeffs) {
  std::vector<Rational> c;
  for (std::int64_t v : coeffs) c.emplace_back(BigInt(v));
  return UPoly(std::move(c));
}

TEST(UPolyTest, ConstructionTrimsLeadingZeros) {
  UPoly p({R(1), R(2), R(0), R(0)});
  EXPECT_EQ(p.degree(), 1);
  EXPECT_EQ(UPoly({R(0)}).degree(), -1);
  EXPECT_TRUE(UPoly().is_zero());
  EXPECT_EQ(UPoly::Constant(R(5)).degree(), 0);
  EXPECT_EQ(UPoly::X().degree(), 1);
  EXPECT_EQ(UPoly::Monomial(R(3), 4).degree(), 4);
}

TEST(UPolyTest, FromToPolynomial) {
  // 4x^2 - 20x + 25 in variable 0.
  Polynomial p = Polynomial(4) * Polynomial::Var(0).Pow(2) -
                 Polynomial(20) * Polynomial::Var(0) + Polynomial(25);
  auto u = UPoly::FromPolynomial(p, 0);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->degree(), 2);
  EXPECT_EQ(u->Evaluate(R(5, 2)), R(0));
  EXPECT_EQ(u->ToPolynomial(0), p);

  Polynomial bivariate = p + Polynomial::Var(1);
  EXPECT_FALSE(UPoly::FromPolynomial(bivariate, 0).ok());
}

TEST(UPolyTest, ArithmeticAndEvalHomomorphism) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::int64_t> dist(-9, 9);
  auto random_upoly = [&]() {
    std::vector<Rational> c;
    int deg = static_cast<int>(rng() % 5);
    for (int i = 0; i <= deg; ++i) c.push_back(R(dist(rng)));
    return UPoly(std::move(c));
  };
  for (int i = 0; i < 200; ++i) {
    UPoly a = random_upoly();
    UPoly b = random_upoly();
    Rational x = R(dist(rng), 1 + static_cast<std::int64_t>(rng() % 3));
    EXPECT_EQ((a + b).Evaluate(x), a.Evaluate(x) + b.Evaluate(x));
    EXPECT_EQ((a - b).Evaluate(x), a.Evaluate(x) - b.Evaluate(x));
    EXPECT_EQ((a * b).Evaluate(x), a.Evaluate(x) * b.Evaluate(x));
  }
}

TEST(UPolyTest, DivModInvariant) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<std::int64_t> dist(-9, 9);
  auto random_upoly = [&](int max_deg) {
    std::vector<Rational> c;
    int deg = static_cast<int>(rng() % (max_deg + 1));
    for (int i = 0; i <= deg; ++i) c.push_back(R(dist(rng)));
    return UPoly(std::move(c));
  };
  for (int i = 0; i < 200; ++i) {
    UPoly a = random_upoly(6);
    UPoly b = random_upoly(3);
    if (b.is_zero()) continue;
    auto [q, r] = a.DivMod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.degree(), b.degree());
  }
}

TEST(UPolyTest, DivideExact) {
  UPoly a = FromInts({-1, 0, 1});      // x^2 - 1
  UPoly b = FromInts({1, 1});          // x + 1
  auto q = a.DivideExact(b);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, FromInts({-1, 1}));    // x - 1
  EXPECT_FALSE(a.DivideExact(FromInts({2, 1})).ok());  // x + 2 doesn't divide
}

TEST(UPolyTest, GcdKnownFactors) {
  UPoly a = FromInts({-1, 0, 1});            // (x-1)(x+1)
  UPoly b = FromInts({1, 2, 1});             // (x+1)^2
  EXPECT_EQ(UPoly::Gcd(a, b), FromInts({1, 1}));  // monic x + 1
  EXPECT_EQ(UPoly::Gcd(a, FromInts({2, 1})).degree(), 0);  // coprime -> 1
  EXPECT_EQ(UPoly::Gcd(UPoly(), UPoly()), UPoly());
  EXPECT_EQ(UPoly::Gcd(a, UPoly()), a.MakeMonic());
}

TEST(UPolyTest, SquarefreePart) {
  // f = (x-1)^2 (x+2)^3 x.
  UPoly f = FromInts({-1, 1}) * FromInts({-1, 1}) * FromInts({2, 1}) *
            FromInts({2, 1}) * FromInts({2, 1}) * FromInts({0, 1});
  UPoly sf = f.SquarefreePart();
  // Squarefree part = (x-1)(x+2)x, monic degree 3.
  EXPECT_EQ(sf.degree(), 3);
  EXPECT_EQ(sf, (FromInts({-1, 1}) * FromInts({2, 1}) * FromInts({0, 1})));
}

TEST(UPolyTest, Derivative) {
  UPoly f = FromInts({25, -20, 4});  // 4x^2 - 20x + 25
  EXPECT_EQ(f.Derivative(), FromInts({-20, 8}));
  EXPECT_EQ(UPoly::Constant(R(7)).Derivative(), UPoly());
}

TEST(UPolyTest, CauchyRootBound) {
  UPoly f = FromInts({25, -20, 4});
  Rational bound = f.CauchyRootBound();
  // Roots are 2.5 (double); bound must exceed 2.5.
  EXPECT_GT(bound, R(5, 2));
  // All roots of x^2 - 1 within bound 2.
  EXPECT_GE(FromInts({-1, 0, 1}).CauchyRootBound(), R(1));
}

TEST(UPolyTest, SturmChainCountsRoots) {
  // (x-1)(x-2)(x-3): three real roots.
  UPoly f = FromInts({-1, 1}) * FromInts({-2, 1}) * FromInts({-3, 1});
  auto chain = f.SturmChain();
  EXPECT_EQ(UPoly::SturmCountRoots(chain, R(0), R(4)), 3);
  EXPECT_EQ(UPoly::SturmCountRoots(chain, R(0), R(1)), 1);    // (0,1] has 1
  EXPECT_EQ(UPoly::SturmCountRoots(chain, R(1), R(3)), 2);    // (1,3] has 2,3
  EXPECT_EQ(UPoly::SturmCountRoots(chain, R(4), R(10)), 0);
  // x^2 + 1: no real roots.
  auto chain2 = FromInts({1, 0, 1}).SturmChain();
  EXPECT_EQ(UPoly::SturmCountRoots(chain2, R(-10), R(10)), 0);
}

TEST(UPolyTest, SignVariations) {
  EXPECT_EQ(FromInts({-1, 0, 1}).SignVariations(), 1);   // x^2 - 1
  EXPECT_EQ(FromInts({1, -3, 3, -1}).SignVariations(), 3);
  EXPECT_EQ(FromInts({1, 2, 3}).SignVariations(), 0);
}

TEST(UPolyTest, IntervalEvaluation) {
  UPoly f = FromInts({25, -20, 4});
  Interval enclosure = f.EvaluateInterval(Interval(R(2), R(3)));
  // f on [2,3] attains 0 at 2.5 and values up to f(3)=... containment check:
  for (std::int64_t num = 20; num <= 30; ++num) {
    Rational x = R(num, 10);
    EXPECT_TRUE(enclosure.Contains(f.Evaluate(x)));
  }
}

TEST(UPolyTest, ToString) {
  EXPECT_EQ(FromInts({25, -20, 4}).ToString(), "4*x^2 - 20*x + 25");
  EXPECT_EQ(FromInts({0, 1}).ToString(), "x");
  EXPECT_EQ(UPoly().ToString(), "0");
  EXPECT_EQ(FromInts({-1, -1}).ToString(), "-x - 1");
}

// A random integer: small, word-sized, or spilled past 2^63 (limb form).
BigInt RandomInteger(std::mt19937_64& rng) {
  BigInt magnitude;
  switch (rng() % 3) {
    case 0:
      magnitude = BigInt(static_cast<std::int64_t>(rng() % 10));
      break;
    case 1:
      magnitude = BigInt(static_cast<std::int64_t>((rng() >> 1) >> (rng() % 63)));
      break;
    default:
      magnitude = BigInt(static_cast<std::int64_t>(rng() >> 1))
                      .ShiftLeft(1 + rng() % 8) +
                  BigInt(static_cast<std::int64_t>(rng() >> 1));
      break;
  }
  return rng() % 2 == 0 ? magnitude : -magnitude;
}

Rational RandomRational(std::mt19937_64& rng) {
  BigInt den = RandomInteger(rng).Abs();
  if (den.is_zero() || rng() % 3 == 0) den = BigInt(1);
  return Rational(RandomInteger(rng), den);
}

// Degree 1..max_degree (occasionally lower after trimming). One in four
// has random rational coefficients (small, word-sized or spilled), one in
// four is sparse (about half the coefficients zero, so remainder sequences
// drop more than one degree per step), the rest have small integers.
UPoly RandomUPoly(std::mt19937_64& rng, int max_degree = 8) {
  std::vector<Rational> c;
  int degree = 1 + static_cast<int>(rng() % max_degree);
  int kind = static_cast<int>(rng() % 4);
  for (int i = 0; i <= degree; ++i) {
    if (kind == 3) {
      c.push_back(RandomRational(rng));
    } else if (kind == 2 && i < degree && rng() % 2 == 0) {
      c.push_back(R(0));
    } else {
      c.push_back(R(static_cast<std::int64_t>(rng() % 19) - 9));
    }
  }
  return UPoly(std::move(c));
}

TEST(UPolyDifferentialTest, SignAtMatchesRationalEvaluation) {
  std::mt19937_64 rng(1501);
  const int iters = 200 * ccdb_test::PropertyIterScale();
  for (int i = 0; i < iters; ++i) {
    UPoly f = RandomUPoly(rng);
    std::vector<BigInt> ints = f.IntegerCoefficients();
    ASSERT_EQ(ints.size(), f.coefficients().size());
    for (int k = 0; k < 4; ++k) {
      Rational x = RandomRational(rng);
      int expected = f.Evaluate(x).sign();
      EXPECT_EQ(f.SignAt(x), expected) << f << " at " << x.ToString();
      EXPECT_EQ(UPoly::IntegerSignAt(ints, x), expected);
    }
    // Exact zeros: a root p/q of (q x - p) * f.
    Rational root = RandomRational(rng);
    UPoly g = f * UPoly({-root, Rational(1)});
    EXPECT_EQ(g.SignAt(root), 0) << g;
    EXPECT_EQ(UPoly::IntegerSignAt(g.IntegerCoefficients(), root), 0);
  }
  EXPECT_EQ(UPoly().SignAt(R(3, 7)), 0);
  EXPECT_EQ(UPoly::Constant(R(-2, 3)).SignAt(R(5)), -1);
}

TEST(UPolyDifferentialTest, IntegerCoefficientsArePositiveMultiple) {
  UPoly f({R(1, 6), R(-3, 4), R(2, 3)});
  // lcm of the denominators is 12.
  std::vector<BigInt> expected = {BigInt(2), BigInt(-9), BigInt(8)};
  EXPECT_EQ(f.IntegerCoefficients(), expected);
}

TEST(UPolyDifferentialTest, GcdAndSturmChainMatchRationalReference) {
  std::mt19937_64 rng(1502);
  const int iters = 30 * ccdb_test::PropertyIterScale();
  for (int i = 0; i < iters; ++i) {
    // A small integer common factor of degree 0-2 makes the gcd nontrivial.
    UPoly common({R(static_cast<std::int64_t>(rng() % 19) - 9),
                  R(static_cast<std::int64_t>(rng() % 3) - 1),
                  R(static_cast<std::int64_t>(rng() % 3))});
    if (common.is_zero()) common = UPoly::Constant(R(1));
    UPoly a = common * RandomUPoly(rng, 6);
    UPoly b = common * RandomUPoly(rng, 6);
    EXPECT_EQ(UPoly::Gcd(a, b), ccdb_test::ReferenceGcd(a, b))
        << a << " / " << b;
    EXPECT_EQ(UPoly::Gcd(a, a.Derivative()),
              ccdb_test::ReferenceGcd(a, a.Derivative()));
    // Repeated factors make the chain end early with a nonconstant gcd.
    UPoly f = rng() % 3 == 0 ? a * common : a;
    EXPECT_EQ(f.SturmChain(), ccdb_test::ReferenceSturmChain(f)) << f;
    UPoly h = RandomUPoly(rng);
    EXPECT_EQ(h.SturmChain(), ccdb_test::ReferenceSturmChain(h)) << h;
  }
  EXPECT_EQ(UPoly::Constant(R(-5, 2)).SturmChain(),
            ccdb_test::ReferenceSturmChain(UPoly::Constant(R(-5, 2))));
  // -x^4 + 10x^2 - 1: the derivative's leading coefficient is negative and
  // the first pseudo-remainder takes one elimination step, so a remainder
  // scaled by lc instead of |lc| would come out with the wrong sign.
  UPoly even = FromInts({-1, 0, 10, 0, -1});
  EXPECT_EQ(even.SturmChain(), ccdb_test::ReferenceSturmChain(even));
  EXPECT_EQ(even.SturmChain()[2], FromInts({1, 0, -5}));
}

}  // namespace
}  // namespace ccdb
