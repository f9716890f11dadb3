// Differential tests for AlgebraicPoint::SignAt at sample points with two
// irrational coordinates, where the sign is decided by the exact zero test
// over Q(alpha) (gcd with beta's defining polynomial, then a Sturm count).
// The oracle is ValueAt(q).Sign(): the value q(alpha, beta) as a real
// algebraic number from iterated resultants, identified by refinement — a
// different algorithm over the same exact data.
//
// The corpora put exact zeros in on purpose: circle–circle and
// conic–conic intersection points, the section's own factor, tangencies
// (q(alpha, .) with a double root at beta) and an alpha whose defining
// polynomial is reducible, which forces a D5 split in
// NumberField::Inverse. CCDB_PROPERTY_ITERS scales the seeded sweeps.

#include "qe/algebraic_point.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/metrics.h"
#include "poly/resultant.h"
#include "property_env.h"

namespace ccdb {
namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }
Polynomial C(std::int64_t v) { return Polynomial(v); }

std::uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// The irrational real roots of p, a polynomial in the single variable var.
std::vector<AlgebraicNumber> IrrationalRoots(const Polynomial& p, int var) {
  auto u = UPoly::FromPolynomial(p, var);
  EXPECT_TRUE(u.ok());
  std::vector<AlgebraicNumber> out;
  if (!u.ok() || u->degree() < 1) return out;
  std::vector<AlgebraicNumber> roots = AlgebraicNumber::RootsOf(*u).value();
  for (AlgebraicNumber& root : roots) {
    if (!root.is_rational()) out.push_back(std::move(root));
  }
  return out;
}

AlgebraicPoint Point(const AlgebraicNumber& alpha,
                     const AlgebraicNumber& beta) {
  AlgebraicPoint point;
  point.Append(alpha);
  point.Append(beta);
  return point;
}

// Compares SignAt against the ValueAt oracle on separate copies of the
// point (refinement state is not shared), checks that a point with at most
// two irrational coordinates never reaches the ValueAt fallback, and
// returns the sign.
int ExpectSignMatchesOracle(const AlgebraicPoint& point, const Polynomial& q) {
  AlgebraicPoint for_sign = point;
  AlgebraicPoint for_oracle = point;
  const std::uint64_t fallbacks = CounterValue("cad.value_at_fallbacks");
  const int sign = for_sign.SignAt(q);
  EXPECT_EQ(CounterValue("cad.value_at_fallbacks"), fallbacks)
      << "q=" << q.ToString() << " at " << point.ToString();
  EXPECT_EQ(sign, for_oracle.ValueAt(q).Sign())
      << "q=" << q.ToString() << " at " << point.ToString();
  return sign;
}

// Random integer in [lo, hi].
std::int64_t Draw(std::mt19937_64* rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(*rng);
}

Polynomial RandomCircle(std::mt19937_64* rng) {
  Polynomial dx = X() - C(Draw(rng, -2, 2));
  Polynomial dy = Y() - C(Draw(rng, -2, 2));
  return dx * dx + dy * dy - C(Draw(rng, 2, 16));
}

// a*y^2 + b*x*y + c*x^2 + d*x + e*y + f with a != 0.
Polynomial RandomConic(std::mt19937_64* rng) {
  std::int64_t a = Draw(rng, 1, 3) * (Draw(rng, 0, 1) == 0 ? 1 : -1);
  return C(a) * Y().Pow(2) + C(Draw(rng, -3, 3)) * X() * Y() +
         C(Draw(rng, -3, 3)) * X().Pow(2) + C(Draw(rng, -3, 3)) * X() +
         C(Draw(rng, -3, 3)) * Y() + C(Draw(rng, -3, 3));
}

// Random polynomial of total degree <= 2 with small coefficients.
Polynomial RandomQuadratic(std::mt19937_64* rng) {
  return C(Draw(rng, -2, 2)) * Y().Pow(2) + C(Draw(rng, -2, 2)) * X() * Y() +
         C(Draw(rng, -2, 2)) * X().Pow(2) + C(Draw(rng, -2, 2)) * X() +
         C(Draw(rng, -2, 2)) * Y() + C(Draw(rng, -2, 2));
}

struct Tally {
  int points = 0;
  int zeros = 0;
};

// Every (alpha, beta) with alpha an irrational root of Res_y(f, g) and
// beta one of Res_x(f, g): the intersection points of f = g = 0 are among
// them, next to points where f and g do not vanish together. Checks f, g
// and a few combinations at each, tallying points and exact zeros.
void CheckIntersectionCandidates(const Polynomial& f, const Polynomial& g,
                                 std::mt19937_64* rng, Tally* tally) {
  Polynomial in_x = Resultant(f, g, 1).value();
  Polynomial in_y = Resultant(f, g, 0).value();
  if (in_x.is_zero() || in_y.is_zero()) return;
  for (const AlgebraicNumber& alpha : IrrationalRoots(in_x, 0)) {
    for (const AlgebraicNumber& beta : IrrationalRoots(in_y, 1)) {
      AlgebraicPoint point = Point(alpha, beta);
      ++tally->points;
      for (const Polynomial& q : {f, g, f - g, f + RandomQuadratic(rng)}) {
        if (ExpectSignMatchesOracle(point, q) == 0) ++tally->zeros;
      }
    }
  }
}

// Draws seeded pairs from `make` until `target` points were checked (the
// ValueAt oracle dominates the cost, so the sweep is sized in points).
template <typename Make>
Tally SweepIntersections(std::uint64_t base, int target, Make make) {
  Tally tally;
  for (std::uint64_t k = 0; tally.points < target && k < 400; ++k) {
    std::mt19937_64 rng(base + k);
    Polynomial f = make(&rng);
    Polynomial g = make(&rng);
    CheckIntersectionCandidates(f, g, &rng, &tally);
  }
  EXPECT_GE(tally.points, target);
  return tally;
}

TEST(AlgebraicPointSignTest, CircleCircleIntersectionPoints) {
  Tally tally = SweepIntersections(
      100, 12 * ccdb_test::PropertyIterScale(), RandomCircle);
  // x^2 + y^2 = 3 meets (x - 1)^2 + (y - 1)^2 = 3 at two points with two
  // irrational coordinates each.
  std::mt19937_64 rng(7);
  CheckIntersectionCandidates(X().Pow(2) + Y().Pow(2) - C(3),
                              (X() - C(1)).Pow(2) + (Y() - C(1)).Pow(2) - C(3),
                              &rng, &tally);
  EXPECT_GT(tally.zeros, 0);
}

TEST(AlgebraicPointSignTest, ConicConicIntersectionPoints) {
  Tally tally = SweepIntersections(
      200, 8 * ccdb_test::PropertyIterScale(), RandomConic);
  EXPECT_GT(tally.zeros, 0);
}

TEST(AlgebraicPointSignTest, SectionOfItsOwnFactorIsZero) {
  const std::uint64_t field_tests = CounterValue("cad.field_zero_tests");
  int sections = 0;
  for (int k = 0; k < 8 * ccdb_test::PropertyIterScale(); ++k) {
    std::mt19937_64 rng(300 + k);
    Polynomial factor = RandomConic(&rng);
    Polynomial base = C(Draw(&rng, 1, 2)) * X().Pow(2) - C(Draw(&rng, 2, 7));
    for (const AlgebraicNumber& alpha : IrrationalRoots(base, 0)) {
      AlgebraicPoint column;
      column.Append(alpha);
      auto roots = column.StackRoots(factor);
      ASSERT_TRUE(roots.ok()) << roots.status().ToString();
      for (const AlgebraicNumber& beta : *roots) {
        if (beta.is_rational()) continue;
        AlgebraicPoint section = column.Extended(beta);
        EXPECT_EQ(ExpectSignMatchesOracle(section, factor), 0);
        ExpectSignMatchesOracle(section, factor + C(1));
        ExpectSignMatchesOracle(section, RandomQuadratic(&rng));
        ++sections;
      }
    }
  }
  EXPECT_GT(sections, 0);
  EXPECT_GT(CounterValue("cad.field_zero_tests"), field_tests);
}

TEST(AlgebraicPointSignTest, TangencyDoubleRootAtBeta) {
  // alpha = ±sqrt(m), beta = c ± sqrt(m): ((y - c)^2 - x^2) vanishes at
  // every such pair, and its square has a double root in y at beta.
  for (int k = 0; k < 6 * ccdb_test::PropertyIterScale(); ++k) {
    std::mt19937_64 rng(400 + k);
    const std::int64_t m = std::vector<std::int64_t>{2, 3, 5, 6, 7}[k % 5];
    const std::int64_t c = Draw(&rng, -3, 3);
    Polynomial shifted = (Y() - C(c)).Pow(2) - X().Pow(2);
    Polynomial tangent = shifted * shifted;
    for (const AlgebraicNumber& alpha : IrrationalRoots(X().Pow(2) - C(m), 0)) {
      for (const AlgebraicNumber& beta :
           IrrationalRoots((Y() - C(c)).Pow(2) - C(m), 1)) {
        AlgebraicPoint point = Point(alpha, beta);
        EXPECT_EQ(ExpectSignMatchesOracle(point, tangent), 0);
        EXPECT_EQ(ExpectSignMatchesOracle(point, tangent * RandomQuadratic(&rng)),
                  0);
        EXPECT_EQ(ExpectSignMatchesOracle(point, tangent + C(1)), 1);
        ExpectSignMatchesOracle(point, tangent - RandomQuadratic(&rng));
      }
    }
  }
}

TEST(AlgebraicPointSignTest, ReducibleDefiningPolynomialSplitsTheField) {
  // alpha = sqrt(2) defined by (x^2 - 2)(x^2 - 3): x^2 - 3 is a zero
  // divisor modulo that product but not zero at alpha, so inverting the
  // leading coefficient of (x^2 - 3)(y - x) splits the field (D5).
  std::vector<AlgebraicNumber> alphas =
      IrrationalRoots((X().Pow(2) - C(2)) * (X().Pow(2) - C(3)), 0);
  ASSERT_EQ(alphas.size(), 4u);
  const AlgebraicNumber& sqrt2 = alphas[2];
  ASSERT_EQ(sqrt2.defining_polynomial().degree(), 4);
  std::vector<AlgebraicNumber> betas = IrrationalRoots(Y().Pow(2) - C(2), 1);
  ASSERT_EQ(betas.size(), 2u);
  Polynomial zero_divisor = X().Pow(2) - C(3);
  // beta = sqrt(2) = alpha: zero; beta = -sqrt(2): nonzero.
  EXPECT_EQ(ExpectSignMatchesOracle(Point(sqrt2, betas[1]),
                                    zero_divisor * (Y() - X())),
            0);
  EXPECT_NE(ExpectSignMatchesOracle(Point(sqrt2, betas[0]),
                                    zero_divisor * (Y() - X())),
            0);
  EXPECT_EQ(ExpectSignMatchesOracle(Point(sqrt2, betas[0]),
                                    zero_divisor * (Y() + X()) +
                                        (Y().Pow(2) - C(2))),
            0);
  for (const AlgebraicNumber& alpha : alphas) {
    for (const AlgebraicNumber& beta : betas) {
      AlgebraicPoint point = Point(alpha, beta);
      ExpectSignMatchesOracle(point, zero_divisor * (Y() - X()));
      ExpectSignMatchesOracle(point, zero_divisor * Y().Pow(2) - X() * Y());
      ExpectSignMatchesOracle(point, (X().Pow(2) - C(2)) * Y() + X() - Y());
    }
  }
}

TEST(AlgebraicPointSignTest, RandomPolynomialsAtRandomPoints) {
  for (int k = 0; k < 10 * ccdb_test::PropertyIterScale(); ++k) {
    std::mt19937_64 rng(500 + k);
    Polynomial px = C(Draw(&rng, 1, 3)) * X().Pow(2) +
                    C(Draw(&rng, -3, 3)) * X() - C(Draw(&rng, 1, 5));
    Polynomial py = C(Draw(&rng, 1, 3)) * Y().Pow(3) +
                    C(Draw(&rng, -3, 3)) * Y() - C(Draw(&rng, 1, 5));
    for (const AlgebraicNumber& alpha : IrrationalRoots(px, 0)) {
      for (const AlgebraicNumber& beta : IrrationalRoots(py, 1)) {
        AlgebraicPoint point = Point(alpha, beta);
        ExpectSignMatchesOracle(point, RandomQuadratic(&rng));
        ExpectSignMatchesOracle(point, RandomConic(&rng) * RandomQuadratic(&rng));
        // Exact zeros: the defining polynomials themselves, combined.
        EXPECT_EQ(ExpectSignMatchesOracle(
                      point, px * RandomQuadratic(&rng) + py * X()),
                  0);
      }
    }
  }
}

TEST(AlgebraicPointSignTest, ThreeIrrationalCoordinatesFallBackToValueAt) {
  AlgebraicPoint point;
  point.Append(IrrationalRoots(X().Pow(2) - C(2), 0)[1]);
  point.Append(IrrationalRoots(Y().Pow(2) - C(3), 1)[1]);
  point.Append(IrrationalRoots(Z().Pow(2) - C(5), 2)[1]);
  const std::uint64_t fallbacks = CounterValue("cad.value_at_fallbacks");
  EXPECT_EQ(point.SignAt(X().Pow(2) + Y().Pow(2) + Z().Pow(2) - C(10)), 0);
  EXPECT_EQ(CounterValue("cad.value_at_fallbacks"), fallbacks + 1);
  // Two of the three coordinates: the field test, no fallback.
  EXPECT_EQ(point.SignAt(X().Pow(2) * Z().Pow(2) - C(10)), 0);
  EXPECT_EQ(CounterValue("cad.value_at_fallbacks"), fallbacks + 1);
}

}  // namespace
}  // namespace ccdb
