// Differential property tests for quantifier elimination: for random
// queries, the quantifier-free output must agree with a direct semantic
// evaluation (substituting grid points and deciding the quantified body
// by brute force over a witness grid — valid for the piecewise-linear
// workloads used here, whose truth on the grid is determined by the grid).

#include <algorithm>
#include <functional>
#include <random>

#include <gtest/gtest.h>

#include "qe/qe.h"

namespace ccdb {
namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

// Random linear formula over x (free) and y (quantified): conjunctions /
// disjunctions of halfplane atoms with small integer coefficients.
Formula RandomLinearBody(std::mt19937_64* rng) {
  std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
  auto random_atom = [&]() {
    Polynomial p;
    std::int64_t a = coeff(*rng), b = coeff(*rng), c = coeff(*rng);
    if (a == 0 && b == 0) a = 1;
    p = Polynomial(a) * X() + Polynomial(b) * Y() + Polynomial(c);
    RelOp ops[] = {RelOp::kLe, RelOp::kLt, RelOp::kEq, RelOp::kGe};
    return Formula::MakeAtom(Atom(p, ops[(*rng)() % 4]));
  };
  Formula conj1 = Formula::And(random_atom(), random_atom());
  Formula conj2 = Formula::And(random_atom(), random_atom());
  return Formula::Or(conj1, conj2);
}

// Exact brute-force truth of exists y body(x0, y): the body restricted to
// x = x0 is a boolean combination of linear atoms in y, so its truth
// regions are delimited by the atoms' breakpoints. Testing every
// breakpoint, every midpoint between consecutive breakpoints, and points
// beyond the extremes decides the existential exactly.
bool BruteForceExists(const Formula& body, const Rational& x0) {
  Formula restricted = body.SubstituteValue(0, x0);
  // Collect breakpoints of atoms in y (variable 1).
  std::vector<Rational> breakpoints;
  std::function<void(const Formula&)> collect = [&](const Formula& f) {
    if (f.kind() == Formula::Kind::kAtom) {
      const Polynomial& p = f.atom().poly;
      if (p.DegreeIn(1) == 1) {
        auto coeffs = p.CoefficientsIn(1);
        if (coeffs[1].is_constant() && coeffs[0].is_constant()) {
          breakpoints.push_back(-coeffs[0].constant_value() /
                                coeffs[1].constant_value());
        }
      }
      return;
    }
    for (const Formula& child : f.children()) collect(child);
  };
  collect(restricted);
  std::sort(breakpoints.begin(), breakpoints.end());
  std::vector<Rational> candidates;
  if (breakpoints.empty()) {
    candidates.push_back(Rational(0));
  } else {
    candidates.push_back(breakpoints.front() - Rational(1));
    for (std::size_t i = 0; i < breakpoints.size(); ++i) {
      candidates.push_back(breakpoints[i]);
      if (i + 1 < breakpoints.size()) {
        candidates.push_back(
            Rational::Midpoint(breakpoints[i], breakpoints[i + 1]));
      }
    }
    candidates.push_back(breakpoints.back() + Rational(1));
  }
  for (const Rational& y : candidates) {
    if (restricted.EvaluateAt({x0, y})) return true;
  }
  return false;
}

class QeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(QeDifferentialTest, ExistsAgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  Formula body = RandomLinearBody(&rng);
  Formula query = Formula::Exists(1, body);
  auto result = EliminateQuantifiers(query, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Compare on a grid of x values (including breakpoint-adjacent points).
  for (std::int64_t num = -30; num <= 30; ++num) {
    Rational x0(BigInt(num), BigInt(6));
    bool qe_truth = result->Contains({x0});
    bool brute = BruteForceExists(body, x0);
    // The brute-force witness grid can only MISS witnesses (never invent
    // them): brute => qe must hold. For the reverse direction the grid is
    // fine enough for these coefficient ranges; check both and report.
    EXPECT_EQ(qe_truth, brute)
        << "x = " << x0.ToString() << " body " << body.ToString({"x", "y"});
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLinear, QeDifferentialTest,
                         ::testing::Range(0, 24));

class QeNonlinearDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(QeNonlinearDifferentialTest, ConicExistsAgreesOnSamples) {
  // exists y (C(x,y) <= 0) for a random conic C: compare against direct
  // y-root analysis: for fixed x, C(x, y) is a quadratic in y; the exists
  // holds iff min_y C(x, y) <= 0 (upward parabola), or always when
  // downward/linear with nonzero slope... handled by sampling the
  // y-extremum exactly.
  std::mt19937_64 rng(1000 + GetParam());
  std::uniform_int_distribution<std::int64_t> coeff(-2, 2);
  // C = a*y^2 + (b*x + c)*y + (d*x^2 + e*x + f) with a > 0.
  std::int64_t a = 1 + static_cast<std::int64_t>(rng() % 2);
  std::int64_t b = coeff(rng), c = coeff(rng), d = coeff(rng),
               e = coeff(rng), f = coeff(rng);
  Polynomial conic = Polynomial(a) * Y().Pow(2) +
                     (Polynomial(b) * X() + Polynomial(c)) * Y() +
                     Polynomial(d) * X().Pow(2) + Polynomial(e) * X() +
                     Polynomial(f);
  Formula query =
      Formula::Exists(1, Formula::MakeAtom(Atom(conic, RelOp::kLe)));
  auto result = EliminateQuantifiers(query, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (std::int64_t num = -12; num <= 12; ++num) {
    Rational x0(BigInt(num), BigInt(4));
    // min over y of a*y^2 + B*y + C at y* = -B/(2a):
    Rational big_b = Rational(b) * x0 + Rational(c);
    Rational big_c =
        Rational(d) * x0 * x0 + Rational(e) * x0 + Rational(f);
    Rational min_value = big_c - big_b * big_b / (Rational(4) * Rational(a));
    bool expected = min_value.sign() <= 0;
    EXPECT_EQ(result->Contains({x0}), expected)
        << "x = " << x0.ToString() << " conic "
        << conic.ToString({"x", "y"});
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConics, QeNonlinearDifferentialTest,
                         ::testing::Range(0, 12));

TEST(QeRoundTripTest, DoubleNegationStable) {
  // not not Q == Q semantically: QE of both must agree pointwise.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    Formula body = RandomLinearBody(&rng);
    Formula query = Formula::Exists(1, body);
    Formula doubled = Formula::Not(Formula::Not(query));
    auto r1 = EliminateQuantifiers(query, 1);
    auto r2 = EliminateQuantifiers(doubled, 1);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    for (std::int64_t num = -20; num <= 20; ++num) {
      Rational x0(BigInt(num), BigInt(4));
      EXPECT_EQ(r1->Contains({x0}), r2->Contains({x0}))
          << "x = " << x0.ToString();
    }
  }
}

TEST(QeRoundTripTest, ForallIsNotExistsNot) {
  // forall y phi == not exists y not phi: the two elimination routes must
  // agree pointwise.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    Formula body = RandomLinearBody(&rng);
    Formula forall_query = Formula::Forall(1, body);
    Formula dual_query =
        Formula::Not(Formula::Exists(1, Formula::Not(body)));
    auto r1 = EliminateQuantifiers(forall_query, 1);
    auto r2 = EliminateQuantifiers(dual_query, 1);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    for (std::int64_t num = -20; num <= 20; ++num) {
      Rational x0(BigInt(num), BigInt(4));
      EXPECT_EQ(r1->Contains({x0}), r2->Contains({x0}))
          << "trial " << trial << " x = " << x0.ToString();
    }
  }
}

}  // namespace
}  // namespace ccdb
