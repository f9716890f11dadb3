// Oracle and determinism tests for quantifier elimination over seeded
// corpora of exists-y queries (x free, y quantified): linear, dense-order,
// conic, and mixed-fragment unions, which exercise both plan shapes — the
// whole-matrix node of a linear matrix and the miniscoped union of a
// polynomial one.
//
// Oracle (independent of the engine): ∃ distributes over ∨, so at a
// rational x the query holds iff one disjunct is satisfiable in y. A
// disjunct is either a conjunction of atoms linear in y, which reduces to
// exact rational bounds and equalities on y, a single conic
// a*y^2 + ... <= 0 with a > 0, which holds iff its value at the rational
// vertex y = -(b*x + c) / 2a is <= 0, or a conjunction of two conics.
// For two conics every atom's sign is constant between consecutive real
// roots in y of their product, which the test-side reference kernel
// (upoly_oracle.h) isolates: one rational sample per sector plus every
// root decides the conjunction. The engine's quantifier-free answer is
// evaluated exactly at the same x: seeded points, the answer atoms' rational
// roots and isolating-interval endpoints, and the midpoints between them.
//
// Determinism: the rendering is byte-identical at every thread count
// (1, 2, 8), cached and uncached. Every corpus here has two
// variables, so no sample point has three irrational coordinates and the
// ValueAt fallback (`cad.value_at_fallbacks`) must never run.
// CCDB_PROPERTY_ITERS scales the corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/resource.h"
#include "base/thread_pool.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "property_env.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"
#include "upoly_oracle.h"

namespace ccdb {
namespace {

const int kThreadCounts[] = {1, 2, 8};

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

// The body of exists y: a disjunction of conjunctions of atoms over x
// (variable 0) and y (variable 1), kept as data so the oracle reads the
// atoms the query was built from.
using Conjunction = std::vector<Atom>;
using Body = std::vector<Conjunction>;

Formula ExistsY(const Body& body) {
  std::vector<Formula> disjuncts;
  for (const Conjunction& conjunction : body) {
    std::vector<Formula> atoms;
    for (const Atom& atom : conjunction) {
      atoms.push_back(Formula::MakeAtom(atom));
    }
    disjuncts.push_back(Formula::And(atoms));
  }
  return Formula::Exists(1, Formula::Or(disjuncts));
}

std::string Render(const Body& body) {
  return ExistsY(body).ToString({"x", "y"});
}

const RelOp kOps[] = {RelOp::kLe, RelOp::kLt, RelOp::kEq, RelOp::kGe};

// Random linear body: two conjunctions of two halfplane atoms with small
// integer coefficients (no disequalities).
Body RandomLinearBody(std::mt19937_64* rng) {
  std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
  auto random_atom = [&]() {
    std::int64_t a = coeff(*rng), b = coeff(*rng), c = coeff(*rng);
    if (a == 0 && b == 0) a = 1;
    Polynomial p = Polynomial(a) * X() + Polynomial(b) * Y() + Polynomial(c);
    return Atom(p, kOps[(*rng)() % 4]);
  };
  return {{random_atom(), random_atom()}, {random_atom(), random_atom()}};
}

// Random dense-order body: unit-coefficient comparisons between x, y, and
// small constants — stays inside FO(<=).
Body RandomDenseOrderBody(std::mt19937_64* rng) {
  std::uniform_int_distribution<std::int64_t> constant(-2, 2);
  auto random_atom = [&]() {
    RelOp op = kOps[(*rng)() % 4];
    switch ((*rng)() % 4) {
      case 0:
        return Atom(X() - Y(), op);
      case 1:
        return Atom(Y() - X(), op);
      case 2:
        return Atom(Y() - Polynomial(constant(*rng)), op);
      default:
        return Atom(X() - Polynomial(constant(*rng)), op);
    }
  };
  return {{random_atom(), random_atom()}, {random_atom(), random_atom()}};
}

// Random conic atom a*y^2 + (b*x + c)*y + d*x^2 + e*x + f <= 0 with a > 0:
// genuinely polynomial, so it goes through CAD.
Atom RandomConicAtom(std::mt19937_64* rng) {
  std::uniform_int_distribution<std::int64_t> coeff(-2, 2);
  std::int64_t a = 1 + static_cast<std::int64_t>((*rng)() % 2);
  std::int64_t b = coeff(*rng), c = coeff(*rng), d = coeff(*rng),
               e = coeff(*rng), f = coeff(*rng);
  Polynomial conic = Polynomial(a) * Y().Pow(2) +
                     (Polynomial(b) * X() + Polynomial(c)) * Y() +
                     Polynomial(d) * X().Pow(2) + Polynomial(e) * X() +
                     Polynomial(f);
  return Atom(conic, RelOp::kLe);
}

bool HoldsSign(int sign, RelOp op) {
  switch (op) {
    case RelOp::kEq:
      return sign == 0;
    case RelOp::kNeq:
      return sign != 0;
    case RelOp::kLt:
      return sign < 0;
    case RelOp::kLe:
      return sign <= 0;
    case RelOp::kGt:
      return sign > 0;
    case RelOp::kGe:
      return sign >= 0;
  }
  return false;
}

bool Holds(const Rational& value, RelOp op) {
  return HoldsSign(value.sign(), op);
}

// Evaluates a polynomial in x alone (variable 0) at x0.
Rational AtX(const Polynomial& p, const Rational& x0) {
  return p.Evaluate({x0});
}

// Exact truth of exists y (conjunction) at x = x0 for atoms of any degree
// in y. The atoms' signs are constant on each sector between consecutive
// real roots of their product, so the conjunction holds somewhere iff it
// holds at one rational sample per sector or at one of the roots.
bool SectorSatisfiable(const Conjunction& conjunction, const Rational& x0) {
  std::vector<UPoly> in_y;
  UPoly product = UPoly::Constant(Rational(1));
  for (const Atom& atom : conjunction) {
    auto u = UPoly::FromPolynomial(atom.poly.Substitute(0, x0), 1);
    EXPECT_TRUE(u.ok());
    in_y.push_back(*u);
    if (!u->is_zero()) product = product * *u;
  }
  auto holds_with = [&](auto sign_of) {
    for (std::size_t i = 0; i < conjunction.size(); ++i) {
      if (!HoldsSign(sign_of(i), conjunction[i].op)) return false;
    }
    return true;
  };
  auto holds_at = [&](const Rational& y) {
    return holds_with([&](std::size_t i) {
      return ccdb_test::ReferenceSign(in_y[i], y);
    });
  };
  std::vector<IsolatedRoot> roots = ccdb_test::ReferenceIsolateRealRoots(product);
  if (roots.empty()) return holds_at(Rational(0));
  // Sector samples. Disjoint isolating intervals can only touch at a point
  // that is no root (an open interval's endpoints are not roots).
  if (holds_at(roots.front().interval.lo() - Rational(1))) return true;
  if (holds_at(roots.back().interval.hi() + Rational(1))) return true;
  for (std::size_t r = 0; r + 1 < roots.size(); ++r) {
    if (holds_at(Rational::Midpoint(roots[r].interval.hi(),
                                    roots[r + 1].interval.lo()))) {
      return true;
    }
  }
  // The roots. At an irrational root rho isolated by (lo, hi), an atom
  // vanishes iff its own Sturm count on (lo, hi] is positive; otherwise it
  // has no root in the interval and its sign at lo is its sign at rho.
  for (const IsolatedRoot& root : roots) {
    if (root.is_exact) {
      if (holds_at(root.interval.lo())) return true;
      continue;
    }
    const Rational& lo = root.interval.lo();
    const Rational& hi = root.interval.hi();
    if (holds_with([&](std::size_t i) {
          if (in_y[i].is_zero()) return 0;
          std::vector<UPoly> chain = ccdb_test::ReferenceSturmChain(in_y[i]);
          if (ccdb_test::ReferenceSturmCount(chain, lo, hi) > 0) return 0;
          return ccdb_test::ReferenceSign(in_y[i], lo);
        })) {
      return true;
    }
  }
  return false;
}

// Exact truth of exists y (conjunction) at x = x0.
bool ConjunctionSatisfiable(const Conjunction& conjunction,
                            const Rational& x0) {
  if (conjunction.size() > 1 && conjunction[0].poly.DegreeIn(1) == 2) {
    return SectorSatisfiable(conjunction, x0);
  }
  if (conjunction.size() == 1 && conjunction[0].poly.DegreeIn(1) == 2) {
    // A single conic with a > 0 attains its minimum over y at the vertex.
    const Atom& conic = conjunction[0];
    EXPECT_EQ(conic.op, RelOp::kLe);
    std::vector<Polynomial> c = conic.poly.CoefficientsIn(1);
    Rational a = AtX(c[2], x0);
    EXPECT_GT(a.sign(), 0);
    Rational vertex = -AtX(c[1], x0) / (Rational(2) * a);
    return Holds(conic.poly.Evaluate({x0, vertex}), conic.op);
  }
  // Every atom is linear in y: b*y + k op 0 bounds y by the root -k/b.
  bool have_lower = false, lower_strict = false;
  bool have_upper = false, upper_strict = false;
  bool have_equal = false;
  Rational lower, upper, equal;
  for (const Atom& atom : conjunction) {
    EXPECT_LE(atom.poly.DegreeIn(1), 1u);
    std::vector<Polynomial> c = atom.poly.CoefficientsIn(1);
    Rational k = AtX(c[0], x0);
    Rational b = c.size() > 1 ? AtX(c[1], x0) : Rational(0);
    if (b.is_zero()) {
      if (!Holds(k, atom.op)) return false;
      continue;
    }
    Rational root = -k / b;
    // b*(y - root) op 0, i.e. (y - root) op' 0 with op' flipped for b < 0.
    RelOp op = atom.op;
    if (b.sign() < 0) {
      if (op == RelOp::kLt) op = RelOp::kGt;
      else if (op == RelOp::kLe) op = RelOp::kGe;
      else if (op == RelOp::kGt) op = RelOp::kLt;
      else if (op == RelOp::kGe) op = RelOp::kLe;
    }
    switch (op) {
      case RelOp::kEq:
        if (have_equal && equal != root) return false;
        have_equal = true;
        equal = root;
        break;
      case RelOp::kLt:
      case RelOp::kLe:
        if (!have_upper || root < upper ||
            (root == upper && op == RelOp::kLt)) {
          upper = root;
          upper_strict = op == RelOp::kLt;
        }
        have_upper = true;
        break;
      case RelOp::kGt:
      case RelOp::kGe:
        if (!have_lower || root > lower ||
            (root == lower && op == RelOp::kGt)) {
          lower = root;
          lower_strict = op == RelOp::kGt;
        }
        have_lower = true;
        break;
      case RelOp::kNeq:
        ADD_FAILURE() << "disequalities are outside the corpus";
        return false;
    }
  }
  if (have_equal) {
    for (const Atom& atom : conjunction) {
      if (!Holds(atom.poly.Evaluate({x0, equal}), atom.op)) return false;
    }
    return true;
  }
  if (!have_lower || !have_upper) return true;
  if (lower < upper) return true;
  return lower == upper && !lower_strict && !upper_strict;
}

bool OracleHolds(const Body& body, const Rational& x0) {
  for (const Conjunction& conjunction : body) {
    if (ConjunctionSatisfiable(conjunction, x0)) return true;
  }
  return false;
}

bool AnswerHolds(const ConstraintRelation& answer, const Rational& x0) {
  for (const GeneralizedTuple& tuple : answer.tuples()) {
    bool all = true;
    for (const Atom& atom : tuple.atoms) {
      if (!Holds(AtX(atom.poly, x0), atom.op)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

// Seeded points plus, for every atom of the answer, its rational roots
// and the endpoints of its irrational roots' isolating intervals (from the
// reference kernel), the midpoints between consecutive such points and one
// step past either end: where a wrong bound or operator would show.
std::vector<Rational> TestPoints(const ConstraintRelation& answer,
                                 std::mt19937_64* rng) {
  std::vector<Rational> roots;
  for (const GeneralizedTuple& tuple : answer.tuples()) {
    for (const Atom& atom : tuple.atoms) {
      auto u = UPoly::FromPolynomial(atom.poly, 0);
      if (!u.ok()) continue;
      for (const IsolatedRoot& root :
           ccdb_test::ReferenceIsolateRealRoots(*u)) {
        roots.push_back(root.interval.lo());
        if (!root.is_exact) roots.push_back(root.interval.hi());
      }
    }
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  std::vector<Rational> points = roots;
  for (std::size_t i = 0; i + 1 < roots.size(); ++i) {
    points.push_back(Rational::Midpoint(roots[i], roots[i + 1]));
  }
  if (!roots.empty()) {
    points.push_back(roots.front() - Rational(1));
    points.push_back(roots.back() + Rational(1));
  }
  std::uniform_int_distribution<std::int64_t> numerator(-40, 40);
  std::uniform_int_distribution<std::int64_t> denominator(1, 8);
  for (int i = 0; i < 16; ++i) {
    points.push_back(
        Rational(BigInt(numerator(*rng)), BigInt(denominator(*rng))));
  }
  return points;
}

// Eliminates exists y (body) at every (threads, cached) combination — the
// uncached runs go under an unlimited governor, which skips every memo
// lookup — checks the renderings agree byte-for-byte, and checks the
// answer against the oracle at the test points.
void ExpectExactAndDeterministic(const Body& body, std::uint64_t seed) {
  Formula query = ExistsY(body);
  Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("cad.value_at_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks->value();
  std::string reference;
  StatusOr<ConstraintRelation> answer = Status::Internal("not run");
  ResourceGovernor unlimited{ResourceLimits{}};
  for (bool cached : {false, true}) {
    for (int threads : kThreadCounts) {
      QeResultCache().Clear();
      ThreadPool pool(threads);
      QeOptions options;
      options.governor = cached ? nullptr : &unlimited;
      options.pool = &pool;
      auto result = EliminateQuantifiers(query, 1, options);
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << " threads=" << threads
          << " query " << Render(body);
      if (!answer.ok()) {
        answer = *result;
        reference = result->ToString();
        continue;
      }
      EXPECT_EQ(result->ToString(), reference)
          << "cached=" << (cached ? "yes" : "no")
          << " threads=" << threads << " query " << Render(body);
    }
  }
  EXPECT_EQ(fallbacks->value(), fallbacks_before) << "query " << Render(body);
  std::mt19937_64 rng(seed);
  for (const Rational& x0 : TestPoints(*answer, &rng)) {
    EXPECT_EQ(AnswerHolds(*answer, x0), OracleHolds(body, x0))
        << "x=" << x0.ToString() << " query " << Render(body) << " answer "
        << reference;
  }
}

// Runs `make` for PropertyIterScale() seeds derived from `base`.
template <typename Make>
void SweepSeeds(std::uint64_t base, Make make) {
  for (int k = 0; k < ccdb_test::PropertyIterScale(); ++k) {
    const std::uint64_t seed = base + 7919u * static_cast<std::uint64_t>(k);
    std::mt19937_64 rng(seed);
    ExpectExactAndDeterministic(make(&rng), seed);
  }
}

class LinearOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearOracleTest, AnswerMatchesTheOracleAtEveryThreadAndMemo) {
  SweepSeeds(GetParam(), RandomLinearBody);
}

INSTANTIATE_TEST_SUITE_P(RandomLinear, LinearOracleTest,
                         ::testing::Range(0, 16));

class DenseOrderOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseOrderOracleTest, AnswerMatchesTheOracleAtEveryThreadAndMemo) {
  SweepSeeds(100 + GetParam(), RandomDenseOrderBody);
}

INSTANTIATE_TEST_SUITE_P(RandomDenseOrder, DenseOrderOracleTest,
                         ::testing::Range(0, 12));

class ConicOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConicOracleTest, AnswerMatchesTheOracleAtEveryThreadAndMemo) {
  SweepSeeds(1000 + GetParam(), [](std::mt19937_64* rng) -> Body {
    return {{RandomConicAtom(rng)}};
  });
}

INSTANTIATE_TEST_SUITE_P(RandomConics, ConicOracleTest, ::testing::Range(0, 8));

// Two conic atoms in one conjunction under random operators.
Conjunction RandomTwoConics(std::mt19937_64* rng) {
  const RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                       RelOp::kGt, RelOp::kGe, RelOp::kNeq};
  std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
  auto random_conic = [&]() {
    std::int64_t a = 1 + static_cast<std::int64_t>((*rng)() % 3);
    if ((*rng)() % 2 == 0) a = -a;
    Polynomial conic = Polynomial(a) * Y().Pow(2) +
                       (Polynomial(coeff(*rng)) * X() +
                        Polynomial(coeff(*rng))) * Y() +
                       Polynomial(coeff(*rng)) * X().Pow(2) +
                       Polynomial(coeff(*rng)) * X() + Polynomial(coeff(*rng));
    return Atom(conic, ops[(*rng)() % 6]);
  };
  return {random_conic(), random_conic()};
}

class TwoConicOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoConicOracleTest, AnswerMatchesTheSectorOracle) {
  SweepSeeds(2000 + GetParam(), [](std::mt19937_64* rng) -> Body {
    return {RandomTwoConics(rng)};
  });
}

INSTANTIATE_TEST_SUITE_P(RandomTwoConics, TwoConicOracleTest,
                         ::testing::Range(0, 12));

// The probe exists y (3y^2 - 3xy + 3y - 3x^2 - 2x - 3 < 0 and
// 2y^2 + 3xy - 2y - 3x + 3 > 0): 110 CAD cells whose sections have two
// irrational coordinates.
TEST(TwoConicOracleTest, ConicProbeMatchesTheSectorOracle) {
  Polynomial first = Polynomial(3) * Y().Pow(2) - Polynomial(3) * X() * Y() +
                     Polynomial(3) * Y() - Polynomial(3) * X().Pow(2) -
                     Polynomial(2) * X() - Polynomial(3);
  Polynomial second = Polynomial(2) * Y().Pow(2) + Polynomial(3) * X() * Y() -
                      Polynomial(2) * Y() - Polynomial(3) * X() +
                      Polynomial(3);
  ExpectExactAndDeterministic(
      {{Atom(first, RelOp::kLt), Atom(second, RelOp::kGt)}}, 77);
}

// Mixed-fragment union with a free-variable-only conjunct guarding the
// dense-order disjuncts: a polynomial matrix, so the planner miniscopes
// it and dispatches each member to its own engine.
TEST(MixedOracleTest, MixedFragmentUnionMatchesTheOracle) {
  for (int trial = 0; trial < 6; ++trial) {
    SweepSeeds(42 + trial, [trial](std::mt19937_64* rng) {
      Atom guard(X() - Polynomial(trial + 3), RelOp::kLe);
      Body body;
      for (Conjunction conjunction : RandomDenseOrderBody(rng)) {
        conjunction.push_back(guard);
        body.push_back(std::move(conjunction));
      }
      for (Conjunction& conjunction : RandomLinearBody(rng)) {
        body.push_back(std::move(conjunction));
      }
      body.push_back({RandomConicAtom(rng)});
      return body;
    });
  }
}

}  // namespace
}  // namespace ccdb
