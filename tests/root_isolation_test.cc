#include "poly/root_isolation.h"

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

TEST(RootIsolationTest, PaperExampleDoubleRoot) {
  // 4x^2 - 20x + 25 = (2x-5)^2: unique root 2.5, found exactly even though
  // the input is not squarefree.
  UPoly f = FromInts({25, -20, 4});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_TRUE(roots[0].is_exact);
  EXPECT_EQ(roots[0].interval.lo(), R(5, 2));
}

TEST(RootIsolationTest, NoRealRoots) {
  EXPECT_TRUE(IsolateRealRoots(FromInts({1, 0, 1})).empty());   // x^2+1
  EXPECT_TRUE(IsolateRealRoots(FromInts({5})).empty());         // constant
}

TEST(RootIsolationTest, IntegerRootsExact) {
  // (x-1)(x-2)(x-3).
  UPoly f = FromInts({-1, 1}) * FromInts({-2, 1}) * FromInts({-3, 1});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 3u);
  // Sorted order; each either exact or isolating.
  std::vector<Rational> expected = {R(1), R(2), R(3)};
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (roots[i].is_exact) {
      EXPECT_EQ(roots[i].interval.lo(), expected[i]);
    } else {
      EXPECT_TRUE(roots[i].interval.Contains(expected[i]));
    }
  }
}

TEST(RootIsolationTest, IrrationalRootsIsolated) {
  // x^2 - 2: roots ±sqrt(2).
  UPoly f = FromInts({-2, 0, 1});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_FALSE(roots[0].is_exact);
  EXPECT_FALSE(roots[1].is_exact);
  // Intervals are disjoint and correctly ordered.
  EXPECT_LE(roots[0].interval.hi(), roots[1].interval.lo());
  // sqrt(2) ~ 1.41421356 in the second interval.
  EXPECT_LT(roots[1].interval.lo(), R(141422, 100000));
  EXPECT_GT(roots[1].interval.hi(), R(141421, 100000));
}

TEST(RootIsolationTest, RefineRootShrinks) {
  UPoly f = FromInts({-2, 0, 1});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 2u);
  Rational eps(BigInt(1), BigInt::Pow2(40));
  IsolatedRoot refined = RefineRoot(f, roots[1], eps);
  EXPECT_LE(refined.interval.Width(), eps);
  // Still contains sqrt(2): f changes sign across it.
  EXPECT_LT(f.Evaluate(refined.interval.lo()) *
                f.Evaluate(refined.interval.hi()),
            R(0));
}

TEST(RootIsolationTest, ApproximateRealRootsTheorem32) {
  // The NUMERICAL EVALUATION step of the paper: eps-approximation of all
  // solutions.
  UPoly f = FromInts({-2, 0, 1});
  Rational eps(BigInt(1), BigInt(1000000));
  auto values = ApproximateRealRoots(f, eps);
  ASSERT_EQ(values.size(), 2u);
  double sqrt2 = 1.4142135623730951;
  EXPECT_NEAR(values[0].ToDouble(), -sqrt2, 1e-6);
  EXPECT_NEAR(values[1].ToDouble(), sqrt2, 1e-6);
}

TEST(RootIsolationTest, CloseRootsSeparated) {
  // (x - 1)(x - 1001/1000): two roots 0.001 apart.
  UPoly f = FromInts({-1, 1}) * UPoly({R(-1001, 1000), R(1)});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 2u);
  // Disjoint isolating intervals.
  EXPECT_LE(roots[0].interval.hi(), roots[1].interval.lo());
}

TEST(RootIsolationTest, WilkinsonStyleStress) {
  // prod_{i=1..8} (x - i): 8 well-separated integer roots with large
  // coefficients.
  UPoly f = UPoly::Constant(R(1));
  for (std::int64_t i = 1; i <= 8; ++i) f = f * FromInts({-i, 1});
  auto roots = IsolateRealRoots(f);
  ASSERT_EQ(roots.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    Rational expected(static_cast<std::int64_t>(i + 1));
    if (roots[i].is_exact) {
      EXPECT_EQ(roots[i].interval.lo(), expected);
    } else {
      EXPECT_TRUE(roots[i].interval.Contains(expected));
    }
  }
}

TEST(RootIsolationTest, RandomizedRootRecovery) {
  std::mt19937_64 rng(57);
  for (int trial = 0; trial < 40; ++trial) {
    // Random distinct integer roots.
    std::vector<std::int64_t> chosen;
    int count = 1 + static_cast<int>(rng() % 5);
    while (static_cast<int>(chosen.size()) < count) {
      std::int64_t r = static_cast<std::int64_t>(rng() % 21) - 10;
      bool duplicate = false;
      for (std::int64_t c : chosen) {
        if (c == r) duplicate = true;
      }
      if (!duplicate) chosen.push_back(r);
    }
    std::sort(chosen.begin(), chosen.end());
    UPoly f = UPoly::Constant(R(1));
    for (std::int64_t r : chosen) f = f * FromInts({-r, 1});
    auto roots = IsolateRealRoots(f);
    ASSERT_EQ(roots.size(), chosen.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      Rational expected(chosen[i]);
      EXPECT_TRUE(roots[i].is_exact
                      ? roots[i].interval.lo() == expected
                      : roots[i].interval.Contains(expected))
          << "trial " << trial;
    }
  }
}

TEST(RootIsolationTest, ApproximateRealRootsOfNonSquarefreeInput) {
  // (x-1)^2 (x-2) (x^2-2): the double root must not confuse refinement,
  // which trusts a squarefree polynomial.
  UPoly f = FromInts({-1, 1}) * FromInts({-1, 1}) * FromInts({-2, 1}) *
            FromInts({-2, 0, 1});
  Rational eps(BigInt(1), BigInt::Pow2(30));
  auto values = ApproximateRealRoots(f, eps);
  ASSERT_EQ(values.size(), 4u);
  const double sqrt2 = 1.4142135623730951;
  const double expected[] = {-sqrt2, 1.0, sqrt2, 2.0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(values[i].ToDouble(), expected[i], eps.ToDouble());
  }
  EXPECT_EQ(values[1], R(1));
  EXPECT_EQ(values[3], R(2));
}

// A product of random factors of total degree at most 8: rational roots
// (dyadic ones land on bisection midpoints, spilled ones do not snap),
// irrational pairs, random quadratics, and now and then a repeated factor.
UPoly RandomFactoredUPoly(std::mt19937_64& rng) {
  UPoly f = UPoly::Constant(R(static_cast<std::int64_t>(rng() % 5) + 1,
                              static_cast<std::int64_t>(rng() % 3) + 1));
  if (rng() % 2 == 0) f = -f;
  int target = 1 + static_cast<int>(rng() % 8);
  while (f.degree() < target) {
    UPoly factor;
    switch (rng() % 5) {
      case 0:
        factor = UPoly({R(static_cast<std::int64_t>(rng() % 21) - 10,
                          std::int64_t{1} << (rng() % 4)),
                        R(1)});
        break;
      case 1: {
        BigInt num = BigInt(static_cast<std::int64_t>(rng() >> 1))
                         .ShiftLeft(1 + rng() % 4);
        BigInt den = BigInt(static_cast<std::int64_t>(rng() >> 1) | 1)
                         .ShiftLeft(1 + rng() % 4);
        factor = UPoly({Rational(rng() % 2 == 0 ? num : -num, den), R(1)});
        break;
      }
      case 2:
        factor = FromInts({-static_cast<std::int64_t>(2 + rng() % 30), 0, 1});
        break;
      case 3:
        factor = FromInts({static_cast<std::int64_t>(rng() % 21) - 10,
                           static_cast<std::int64_t>(rng() % 21) - 10,
                           static_cast<std::int64_t>(rng() % 9) + 1});
        break;
      default:
        factor = FromInts({0, 1});
        break;
    }
    if (f.degree() + factor.degree() > 8) break;
    f = f * factor;
    if (rng() % 6 == 0 && f.degree() + factor.degree() <= 8) f = f * factor;
  }
  return f;
}

void ExpectSameRoots(const std::vector<IsolatedRoot>& actual,
                     const std::vector<IsolatedRoot>& expected,
                     const UPoly& p) {
  ASSERT_EQ(actual.size(), expected.size()) << p;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].is_exact, expected[i].is_exact) << p << " root " << i;
    EXPECT_EQ(actual[i].interval.lo(), expected[i].interval.lo())
        << p << " root " << i;
    EXPECT_EQ(actual[i].interval.hi(), expected[i].interval.hi())
        << p << " root " << i;
  }
}

TEST(RootIsolationDifferentialTest, IntervalsMatchRationalReference) {
  std::mt19937_64 rng(1503);
  const int iters = 20 * ccdb_test::PropertyIterScale();
  for (int trial = 0; trial < iters; ++trial) {
    UPoly p = RandomFactoredUPoly(rng);
    if (p.degree() < 1) continue;
    std::vector<IsolatedRoot> expected = ccdb_test::ReferenceIsolateRealRoots(p);
    ExpectSameRoots(IsolateRealRoots(p), expected, p);
    UPoly f = p.SquarefreePart();
    auto squarefree = IsolateSquarefreeRoots(f, nullptr);
    ASSERT_TRUE(squarefree.ok());
    ExpectSameRoots(*squarefree, expected, p);
    for (const IsolatedRoot& root : expected) {
      Rational width(BigInt(1), BigInt::Pow2(1 + rng() % 40));
      IsolatedRoot refined = RefineRoot(f, root, width);
      IsolatedRoot reference = ccdb_test::ReferenceRefineRoot(p, root, width);
      EXPECT_EQ(refined.is_exact, reference.is_exact) << p;
      EXPECT_EQ(refined.interval.lo(), reference.interval.lo()) << p;
      EXPECT_EQ(refined.interval.hi(), reference.interval.hi()) << p;
    }
  }
}

TEST(RootIsolationDifferentialTest, DenseRandomPolynomialsMatchReference) {
  std::mt19937_64 rng(1504);
  const int iters = 40 * ccdb_test::PropertyIterScale();
  for (int trial = 0; trial < iters; ++trial) {
    std::vector<Rational> c;
    int degree = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i <= degree; ++i) {
      c.push_back(R(static_cast<std::int64_t>(rng() % 2001) - 1000,
                    static_cast<std::int64_t>(rng() % 7) + 1));
    }
    UPoly p(std::move(c));
    if (p.degree() < 1) continue;
    ExpectSameRoots(IsolateRealRoots(p),
                    ccdb_test::ReferenceIsolateRealRoots(p), p);
  }
}

}  // namespace
}  // namespace ccdb
