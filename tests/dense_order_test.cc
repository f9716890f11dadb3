// Dense-order constraint databases — the class DO of the paper's Theorem
// 4.8 ("defined without the symbols + and ·"), after Grumbach & Su's
// dense-order constraint databases [GS95a] — have no engine of their own:
// a dense-order matrix is linear and Fourier-Motzkin answers it. What makes
// the finite-precision results exact on DO is a closure fact: crossing a
// lower bound l and an upper bound u of x yields l θ u, again a dense-order
// atom, so elimination never leaves the order language and the active
// domain never grows. These tests check that fact on EliminateExistsLinear
// round by round, and check its answers against a witness-point oracle.

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "qe/fourier_motzkin.h"
#include "qe/qe.h"
#include "test_pool.h"

namespace ccdb {
namespace {

using ccdb_test::ProcessPool;

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

GeneralizedTuple Tuple(std::initializer_list<Atom> atoms) {
  GeneralizedTuple t;
  for (const Atom& a : atoms) t.atoms.push_back(a);
  return t;
}

// The dense-order language: a unit-coefficient difference of at most two
// variables, with a rational constant only in the one-variable case (an
// offset on a two-variable difference would encode addition).
bool IsDenseOrderAtom(const Atom& atom) {
  const Polynomial& p = atom.poly;
  if (p.TotalDegree() > 1) return false;
  int vars = 0;
  Rational coeff_sum(0);
  bool has_constant = false;
  for (const auto& [monomial, coeff] : p.terms()) {
    if (monomial.is_one()) {
      has_constant = true;
      continue;
    }
    ++vars;
    if (!(coeff == Rational(1) || coeff == Rational(-1))) return false;
    coeff_sum += coeff;
  }
  if (vars > 2) return false;
  if (vars == 2) return coeff_sum.is_zero() && !has_constant;
  return true;
}

bool IsDenseOrderSystem(const std::vector<GeneralizedTuple>& tuples) {
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      if (!IsDenseOrderAtom(atom)) return false;
    }
  }
  return true;
}

bool Holds(const std::vector<GeneralizedTuple>& tuples,
           const std::vector<Rational>& point) {
  for (const GeneralizedTuple& tuple : tuples) {
    if (tuple.SatisfiedAt(point)) return true;
  }
  return false;
}

// Oracle for exists x_var over dense-order tuples at `point` (x_var's own
// entry ignored): with the other coordinates fixed, every atom bounds x_var
// by a constant or another coordinate, so x_var's solution set is a union
// of intervals with endpoints among those values. It is nonempty iff it
// holds at an endpoint, between two consecutive endpoints, or beyond the
// extreme ones.
bool ExistsOracle(const std::vector<GeneralizedTuple>& tuples, int var,
                  std::vector<Rational> point) {
  std::vector<Rational> ends;
  for (std::size_t i = 0; i < point.size(); ++i) {
    if (static_cast<int>(i) != var) ends.push_back(point[i]);
  }
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      for (const auto& [monomial, coeff] : atom.poly.terms()) {
        if (monomial.is_one()) ends.push_back(coeff);
        if (monomial.is_one()) ends.push_back(-coeff);
      }
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::vector<Rational> witnesses;
  if (ends.empty()) ends.push_back(R(0));
  witnesses.push_back(ends.front() - R(1));
  for (std::size_t i = 0; i < ends.size(); ++i) {
    witnesses.push_back(ends[i]);
    if (i + 1 < ends.size()) {
      witnesses.push_back((ends[i] + ends[i + 1]) / R(2));
    }
  }
  witnesses.push_back(ends.back() + R(1));
  for (const Rational& w : witnesses) {
    point[static_cast<std::size_t>(var)] = w;
    if (Holds(tuples, point)) return true;
  }
  return false;
}

// Random dense-order tuples over variables 0..2 with constants in [-5, 5].
std::vector<GeneralizedTuple> RandomDenseOrderSystem(std::mt19937_64* rng) {
  std::uniform_int_distribution<std::int64_t> constant(-5, 5);
  const RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq, RelOp::kNeq};
  std::vector<GeneralizedTuple> tuples;
  for (int t = 0; t < 2; ++t) {
    GeneralizedTuple tuple;
    for (int a = 0; a < 3; ++a) {
      int mode = static_cast<int>((*rng)() % 3);
      RelOp op = ops[(*rng)() % 4];
      int v1 = static_cast<int>((*rng)() % 3);
      int v2 = static_cast<int>((*rng)() % 3);
      if (mode == 0 && v1 != v2) {
        tuple.atoms.emplace_back(Polynomial::Var(v1) - Polynomial::Var(v2),
                                 op);
      } else {
        tuple.atoms.emplace_back(
            Polynomial::Var(v1) - Polynomial(constant(*rng)), op);
      }
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

TEST(DenseOrderTest, RecognizesDenseOrderAtoms) {
  EXPECT_TRUE(IsDenseOrderAtom(Atom(X() - Y(), RelOp::kLe)));  // x <= y
  EXPECT_TRUE(IsDenseOrderAtom(Atom(Y() - X(), RelOp::kLt)));
  EXPECT_TRUE(IsDenseOrderAtom(Atom(X() - Polynomial(3), RelOp::kLe)));
  EXPECT_TRUE(IsDenseOrderAtom(Atom(-X() + Polynomial(7), RelOp::kEq)));
  EXPECT_TRUE(IsDenseOrderAtom(Atom(Polynomial(1), RelOp::kGt)));  // constant
  // An offset on a two-variable difference encodes addition.
  EXPECT_FALSE(IsDenseOrderAtom(Atom(X() - Y() + Polynomial(1), RelOp::kLt)));
  // Non-unit coefficients encode addition (x + x).
  EXPECT_FALSE(IsDenseOrderAtom(Atom(Polynomial(2) * X() - Y(), RelOp::kLt)));
  // Same-sign coefficients (x + y) are not an order comparison.
  EXPECT_FALSE(IsDenseOrderAtom(Atom(X() + Y(), RelOp::kLt)));
  // Three variables cannot be a single comparison.
  EXPECT_FALSE(IsDenseOrderAtom(Atom(X() + Y() - Z(), RelOp::kLe)));
  EXPECT_FALSE(IsDenseOrderAtom(Atom(X() * Y(), RelOp::kEq)));
}

TEST(DenseOrderTest, BetweennessElimination) {
  // exists y (x < y and y < z): by density, equivalent to x < z.
  GeneralizedTuple tuple = Tuple(
      {Atom(X() - Y(), RelOp::kLt), Atom(Y() - Z(), RelOp::kLt)});
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].SatisfiedAt({R(0), R(0), R(1)}));
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(1), R(0), R(0)}));
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(1), R(0), R(1)}));  // x = z
  EXPECT_TRUE(IsDenseOrderSystem(*result));
}

TEST(DenseOrderTest, FourierMotzkinIsClosedOverDenseOrderEveryRound) {
  // Theorem 4.8's closure: every round of Fourier-Motzkin over dense-order
  // input yields dense-order output, and each round's answer matches the
  // witness-point oracle on a grid with half-integer points.
  std::mt19937_64 rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<GeneralizedTuple> tuples = RandomDenseOrderSystem(&rng);
    ASSERT_TRUE(IsDenseOrderSystem(tuples));
    auto round1 = EliminateExistsLinear(tuples, 2, nullptr, ProcessPool());
    ASSERT_TRUE(round1.ok()) << "trial " << trial;
    EXPECT_TRUE(IsDenseOrderSystem(*round1)) << "trial " << trial;
    auto round2 = EliminateExistsLinear(*round1, 1, nullptr, ProcessPool());
    ASSERT_TRUE(round2.ok()) << "trial " << trial;
    EXPECT_TRUE(IsDenseOrderSystem(*round2)) << "trial " << trial;
    for (int a = -13; a <= 13; a += 2) {
      for (int b = -13; b <= 13; b += 3) {
        std::vector<Rational> point = {R(a, 2), R(b, 2), R(0)};
        EXPECT_EQ(Holds(*round1, point), ExistsOracle(tuples, 2, point))
            << "trial " << trial << " at (" << a << "/2, " << b << "/2)";
      }
    }
  }
}

TEST(DenseOrderTest, DenseOrderQueryRunsTheLinearPlan) {
  // exists y (x < y and y < 10): one whole-matrix Fourier-Motzkin node,
  // whose answer stays inside the dense-order language.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::MakeAtom(Atom(X() - Y(), RelOp::kLt)),
                      Formula::MakeAtom(
                          Atom(Y() - Polynomial(10), RelOp::kLt))));
  QeOptions options;
  options.pool = ProcessPool();
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.used_linear_path);
  EXPECT_EQ(stats.plan, "monolithic[fourier_motzkin]");
  EXPECT_EQ(stats.cad_cells, 0u);
  EXPECT_TRUE(IsDenseOrderSystem(result->tuples()));
  EXPECT_TRUE(result->Contains({R(5)}));
  EXPECT_FALSE(result->Contains({R(10)}));
}

TEST(DenseOrderTest, OrderInsensitivityToExactValues) {
  // The paper's Theorem 4.2 argument: order-only queries depend only on
  // the relative order of the constants. Scale all constants by a huge
  // factor; the query's answer pattern (relative to the scaled grid) is
  // unchanged.
  for (std::int64_t scale : {1ll, 1000ll, 1000000ll}) {
    GeneralizedTuple tuple = Tuple(
        {Atom(X() - Y(), RelOp::kLt),
         Atom(Y() - Polynomial(2 * scale), RelOp::kLt)});
    auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
    ASSERT_TRUE(result.ok());
    // Answer: x < 2*scale.
    EXPECT_TRUE(Holds(*result, {R(scale), R(0)})) << scale;
    EXPECT_FALSE(Holds(*result, {R(3 * scale), R(0)})) << scale;
  }
}

}  // namespace
}  // namespace ccdb
