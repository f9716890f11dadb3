#include "qe/qe.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "numeric/numerical_eval.h"
#include "qe/algebraic_point.h"
#include "qe/cad.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe_cache.h"
#include "test_pool.h"

namespace ccdb {
namespace {

using ccdb_test::ProcessPool;

// QeOptions on the test pool (test_pool.h).
QeOptions Pooled() {
  QeOptions options;
  options.pool = ProcessPool();
  return options;
}

// CadOptions on the test pool (test_pool.h).
CadOptions PooledCad() {
  CadOptions options;
  options.pool = ProcessPool();
  return options;
}

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

UPoly FromInts(std::initializer_list<std::int64_t> coeffs) {
  std::vector<Rational> c;
  for (std::int64_t v : coeffs) c.emplace_back(BigInt(v));
  return UPoly(std::move(c));
}

// ---------------------------------------------------------------- points

TEST(AlgebraicPointTest, RationalFastPath) {
  AlgebraicPoint p;
  p.Append(AlgebraicNumber(R(2)));
  p.Append(AlgebraicNumber(R(-1)));
  EXPECT_TRUE(p.AllRational());
  EXPECT_EQ(p.SignAt(X() * Y() + Polynomial(2)), 0);   // 2*(-1)+2 = 0
  EXPECT_EQ(p.SignAt(X() + Y()), 1);
  EXPECT_EQ(p.SignAt(Y()), -1);
}

TEST(AlgebraicPointTest, SingleAlgebraicCoordinate) {
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  AlgebraicPoint p;
  p.Append(roots[1]);  // sqrt2
  EXPECT_EQ(p.SignAt(X().Pow(2) - Polynomial(2)), 0);
  EXPECT_EQ(p.SignAt(X() - Polynomial(1)), 1);
  EXPECT_EQ(p.SignAt(X() - Polynomial(2)), -1);
}

TEST(AlgebraicPointTest, TwoAlgebraicCoordinatesSign) {
  // (sqrt2, sqrt3): sign of x*y - 2 must be + (sqrt6 > 2), x*y - 3 is -.
  auto r2 = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  auto r3 = AlgebraicNumber::RootsOf(FromInts({-3, 0, 1})).value();
  AlgebraicPoint p;
  p.Append(r2[1]);
  p.Append(r3[1]);
  EXPECT_EQ(p.SignAt(X() * Y() - Polynomial(2)), 1);
  EXPECT_EQ(p.SignAt(X() * Y() - Polynomial(3)), -1);
  // Exact zero across two algebraic coordinates: x^2*y^2 - 6 = 0.
  EXPECT_EQ(p.SignAt(X().Pow(2) * Y().Pow(2) - Polynomial(6)), 0);
  // x^2 + y^2 - 5 = 0 exactly.
  EXPECT_EQ(p.SignAt(X().Pow(2) + Y().Pow(2) - Polynomial(5)), 0);
}

TEST(AlgebraicPointTest, ValueAtIdentifiesAlgebraicValue) {
  auto r2 = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  AlgebraicPoint p;
  p.Append(r2[1]);
  // Value of x + 1 at sqrt2 is sqrt2 + 1 ~ 2.4142.
  AlgebraicNumber v = p.ValueAt(X() + Polynomial(1));
  EXPECT_NEAR(v.ToDouble(), 2.414213562373095, 1e-9);
  // Its defining data is exact: v - 1 squares to 2.
  EXPECT_EQ(v.SignOfPolyAt(FromInts({-1, -2, 1})), 0);  // x^2-2x-1 at 1+sqrt2
}

TEST(AlgebraicPointTest, StackRootsOverRationalBase) {
  // Circle x^2 + y^2 - 1 over x = 0: roots y = ±1.
  AlgebraicPoint p;
  p.Append(AlgebraicNumber(R(0)));
  auto roots = p.StackRoots(X().Pow(2) + Y().Pow(2) - Polynomial(1));
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 2u);
  EXPECT_EQ((*roots)[0].CompareRational(R(-1)), 0);
  EXPECT_EQ((*roots)[1].CompareRational(R(1)), 0);
}

TEST(AlgebraicPointTest, StackRootsOverAlgebraicBase) {
  // Circle over x = sqrt(2)/2: y = ±sqrt(1/2).
  // x^2 = 1/2
  auto r = AlgebraicNumber::RootsOf(FromInts({-1, 0, 2})).value();
  AlgebraicPoint p;
  p.Append(r[1]);
  auto roots = p.StackRoots(X().Pow(2) + Y().Pow(2) - Polynomial(1));
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 2u);
  EXPECT_NEAR((*roots)[1].ToDouble(), 0.7071067811865476, 1e-9);
  // Exactness: the root satisfies y^2 = 1/2.
  EXPECT_EQ((*roots)[1].SignOfPolyAt(FromInts({-1, 0, 2})), 0);
}

TEST(AlgebraicPointTest, StackRootsTangentCase) {
  // Circle over x = 1 (tangent): unique root y = 0.
  AlgebraicPoint p;
  p.Append(AlgebraicNumber(R(1)));
  auto roots = p.StackRoots(X().Pow(2) + Y().Pow(2) - Polynomial(1));
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 1u);
  EXPECT_EQ((*roots)[0].CompareRational(R(0)), 0);
}

TEST(AlgebraicPointTest, StackRootsOutsideCircle) {
  AlgebraicPoint p;
  p.Append(AlgebraicNumber(R(2)));
  auto roots = p.StackRoots(X().Pow(2) + Y().Pow(2) - Polynomial(1));
  ASSERT_TRUE(roots.ok());
  EXPECT_TRUE(roots->empty());
}

// ---------------------------------------------------------------- CAD

TEST(CadTest, CircleDecomposition) {
  // Unit circle: base factors should include x^2-1 (discriminant zeros at
  // x = ±1); base stack has 5 cells, full CAD 13 cells.
  auto cad = Cad::Build({X().Pow(2) + Y().Pow(2) - Polynomial(1)}, 2,
                        PooledCad());
  ASSERT_TRUE(cad.ok());
  EXPECT_EQ(cad->roots().size(), 5u);  // (-inf,-1), -1, (-1,1), 1, (1,inf)
  // Stacks: 1 + 3 + 5 + 3 + 1 = 13.
  EXPECT_EQ(cad->CountLeafCells(), 13u);
}

TEST(CadTest, PaperExampleDecomposition) {
  // Parabola boundary p = 4x^2 - y - 20x + 25 and the line y = 0.
  Polynomial p = Polynomial(4) * X().Pow(2) - Y() - Polynomial(20) * X() +
                 Polynomial(25);
  auto cad = Cad::Build({p, Y()}, 2, PooledCad());
  ASSERT_TRUE(cad.ok());
  // Base: root x = 5/2 (where parabola touches y=0): 3 cells.
  EXPECT_EQ(cad->roots().size(), 3u);
  // Signs of p on cells are well defined and exact.
  std::size_t leaves = cad->CountLeafCells();
  EXPECT_GT(leaves, 6u);
}

TEST(CadTest, SignInvarianceSpotCheck) {
  // For the circle CAD, on each leaf cell the circle polynomial's sign at
  // the sample matches the sign at a nearby interior point of the cell.
  Polynomial circle = X().Pow(2) + Y().Pow(2) - Polynomial(1);
  auto cad = Cad::Build({circle}, 2, PooledCad());
  ASSERT_TRUE(cad.ok());
  int checked = 0;
  cad->ForEachCellAtDimension(2, [&](const CadCell& cell) {
    int sign = cell.sample.SignAt(circle);
    // The sample itself must satisfy the claimed sign trivially; sanity
    // check that an epsilon-approximation agrees for open cells.
    if (cell.index[0] % 2 == 1 && cell.index[1] % 2 == 1) {
      auto approx = cell.sample.Approximate(R(1, 1000000));
      Rational value = circle.Evaluate(approx);
      EXPECT_EQ(value.sign(), sign);
      ++checked;
    }
  });
  EXPECT_GT(checked, 3);
}

TEST(CadTest, RationalBetweenSeparates) {
  // ±sqrt2
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  Rational between = RationalBetween(roots[0], roots[1]);
  EXPECT_EQ(roots[0].CompareRational(between), -1);
  EXPECT_EQ(roots[1].CompareRational(between), 1);

  // Adjacent close roots.
  UPoly f = FromInts({-1, 1}) * UPoly({R(-1001, 1000), R(1)});
  auto close_roots = AlgebraicNumber::RootsOf(f).value();
  ASSERT_EQ(close_roots.size(), 2u);
  Rational mid = RationalBetween(close_roots[0], close_roots[1]);
  EXPECT_GT(mid, R(1));
  EXPECT_LT(mid, R(1001, 1000));
}

// ---------------------------------------------------------------- FM

TEST(FourierMotzkinTest, IntervalProjection) {
  // exists y: x <= y and y <= 5 and y >= x-3 -> x <= 5 (plus redundancy).
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X() - Y(), RelOp::kLe);
  tuple.atoms.emplace_back(Y() - Polynomial(5), RelOp::kLe);
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  // Resulting constraint: x - 5 <= 0.
  Formula f = Formula::MakeAtom((*result)[0].atoms[0]);
  EXPECT_TRUE(f.EvaluateAt({R(5)}));
  EXPECT_TRUE(f.EvaluateAt({R(-100)}));
  EXPECT_FALSE(f.EvaluateAt({R(6)}));
}

TEST(FourierMotzkinTest, EquationSubstitution) {
  // exists y: y = 2x + 1 and y <= 7 -> 2x + 1 <= 7.
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(Y() - Polynomial(2) * X() - Polynomial(1),
                           RelOp::kEq);
  tuple.atoms.emplace_back(Y() - Polynomial(7), RelOp::kLe);
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  ASSERT_EQ((*result)[0].atoms.size(), 1u);
  EXPECT_TRUE((*result)[0].SatisfiedAt({R(3)}));
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(4)}));
}

TEST(FourierMotzkinTest, StrictnessPropagation) {
  // exists y: x < y and y <= 3 -> x < 3 (strict).
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X() - Y(), RelOp::kLt);
  tuple.atoms.emplace_back(Y() - Polynomial(3), RelOp::kLe);
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(3)}));
  EXPECT_TRUE((*result)[0].SatisfiedAt({R(29, 10)}));
}

TEST(FourierMotzkinTest, DisequalitySplit) {
  // exists y: y != x and 0 <= y <= 1: always true (pick y != x in [0,1]).
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(Y() - X(), RelOp::kNeq);
  tuple.atoms.emplace_back(-Y(), RelOp::kLe);
  tuple.atoms.emplace_back(Y() - Polynomial(1), RelOp::kLe);
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok());
  // Union of results covers every x.
  for (std::int64_t xi = -5; xi <= 5; ++xi) {
    bool any = false;
    for (const GeneralizedTuple& t : *result) {
      if (t.SatisfiedAt({R(xi)})) any = true;
    }
    EXPECT_TRUE(any) << "x=" << xi;
  }
}

TEST(FourierMotzkinTest, UnboundedElimination) {
  // exists y: y >= x: always true.
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X() - Y(), RelOp::kLe);
  auto result = EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].atoms.empty());
}

TEST(FourierMotzkinTest, RejectsNonlinear) {
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X() * Y(), RelOp::kLe);
  EXPECT_FALSE(EliminateExistsLinear({tuple}, 1, nullptr, ProcessPool())
                   .ok());
}

// ---------------------------------------------------------------- QE

// The paper's Figure 1 pipeline: Q(x) = exists y (S(x,y) and y <= 0)
// reduces to 4x^2 - 20x + 25 = 0.
TEST(QeTest, PaperFigure1Query) {
  Polynomial s_poly = Polynomial(4) * X().Pow(2) - Y() -
                      Polynomial(20) * X() + Polynomial(25);
  Formula query = Formula::Exists(
      1, Formula::And(Formula::MakeAtom(Atom(s_poly, RelOp::kLe)),
                      Formula::MakeAtom(Atom(Y(), RelOp::kLe))));
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, Pooled(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.used_linear_path);
  // The answer is exactly {2.5}.
  EXPECT_TRUE(result->Contains({R(5, 2)}));
  EXPECT_FALSE(result->Contains({R(0)}));
  EXPECT_FALSE(result->Contains({R(249, 100)}));
  EXPECT_FALSE(result->Contains({R(251, 100)}));
  EXPECT_FALSE(result->Contains({R(3)}));
}

TEST(QeTest, ExistsPointOnCircle) {
  // exists y (x^2 + y^2 = 1): answer -1 <= x <= 1.
  Formula query = Formula::Exists(
      1, Formula::MakeAtom(Atom(X().Pow(2) + Y().Pow(2) - Polynomial(1),
                                RelOp::kEq)));
  auto result = EliminateQuantifiers(query, 1, Pooled());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Contains({R(0)}));
  EXPECT_TRUE(result->Contains({R(1)}));
  EXPECT_TRUE(result->Contains({R(-1)}));
  EXPECT_TRUE(result->Contains({R(1, 2)}));
  EXPECT_FALSE(result->Contains({R(2)}));
  EXPECT_FALSE(result->Contains({R(-101, 100)}));
}

TEST(QeTest, ForallParabolaNonNegative) {
  // forall y (y^2 - x >= 0)? Holds iff x <= 0.
  Formula query = Formula::Forall(
      1, Formula::MakeAtom(Atom(Y().Pow(2) - X(), RelOp::kGe)));
  auto result = EliminateQuantifiers(query, 1, Pooled());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Contains({R(0)}));
  EXPECT_TRUE(result->Contains({R(-5)}));
  EXPECT_FALSE(result->Contains({R(1, 100)}));
  EXPECT_FALSE(result->Contains({R(4)}));
}

TEST(QeTest, SentenceDecision) {
  // exists x (x^2 = 2): true.
  auto r1 = DecideSentence(
      Formula::Exists(0, Formula::MakeAtom(
                             Atom(X().Pow(2) - Polynomial(2), RelOp::kEq))),
      Pooled());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  // forall x (x^2 >= 0): true.
  auto r2 = DecideSentence(
      Formula::Forall(0, Formula::MakeAtom(Atom(X().Pow(2), RelOp::kGe))),
      Pooled());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
  // exists x (x^2 < 0): false.
  auto r3 = DecideSentence(
      Formula::Exists(0, Formula::MakeAtom(Atom(X().Pow(2), RelOp::kLt))),
      Pooled());
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(*r3);
  // exists x forall y ((y - x)^2 + 1 > 0): true.
  Polynomial d = (Y() - X()) * (Y() - X()) + Polynomial(1);
  auto r4 = DecideSentence(
      Formula::Exists(0, Formula::Forall(1, Formula::MakeAtom(
                                                Atom(d, RelOp::kGt)))),
      Pooled());
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(*r4);
  // The paper's F_k anomaly sentence: exists x forall y (y <= x) is FALSE
  // over the reals (no biggest element) — the exact semantics gets it right.
  auto r5 = DecideSentence(
      Formula::Exists(0, Formula::Forall(1, Formula::MakeAtom(Atom(
                                                Y() - X(), RelOp::kLe)))),
      Pooled());
  ASSERT_TRUE(r5.ok());
  EXPECT_FALSE(*r5);
}

TEST(QeTest, LinearPathUsedForLinearQueries) {
  // exists y (x <= y and y <= 10): linear, should use Fourier-Motzkin.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(10))));
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, Pooled(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.used_linear_path);
  EXPECT_TRUE(result->Contains({R(10)}));
  EXPECT_TRUE(result->Contains({R(-100)}));
  EXPECT_FALSE(result->Contains({R(11)}));
}

TEST(QeTest, LinearForallViaComplement) {
  // forall y (0 <= y <= 1 implies y <= x)  ==  x >= 1.
  // Encoded as forall y (not(0<=y and y<=1) or y<=x).
  Formula inside = Formula::Or(
      Formula::Not(Formula::And(
          Formula::Compare(Polynomial(0), RelOp::kLe, Y()),
          Formula::Compare(Y(), RelOp::kLe, Polynomial(1)))),
      Formula::Compare(Y(), RelOp::kLe, X()));
  Formula query = Formula::Forall(1, inside);
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, Pooled(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.used_linear_path);
  EXPECT_TRUE(result->Contains({R(1)}));
  EXPECT_TRUE(result->Contains({R(5)}));
  EXPECT_FALSE(result->Contains({R(99, 100)}));
}

TEST(QeTest, QuantifierFreeInputPassesThrough) {
  Formula f = Formula::Compare(X(), RelOp::kLe, Polynomial(3));
  auto result = EliminateQuantifiers(f, 1, Pooled());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Contains({R(3)}));
  EXPECT_FALSE(result->Contains({R(4)}));
}

TEST(QeTest, TwoFreeVariablesCircleInterior) {
  // exists z (z = x^2 + y^2 and z <= 1): the closed unit disk in (x, y).
  Formula query = Formula::Exists(
      2, Formula::And(
             Formula::MakeAtom(
                 Atom(Z() - X().Pow(2) - Y().Pow(2), RelOp::kEq)),
             Formula::MakeAtom(Atom(Z() - Polynomial(1), RelOp::kLe))));
  auto result = EliminateQuantifiers(query, 2, Pooled());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Contains({R(0), R(0)}));
  EXPECT_TRUE(result->Contains({R(1), R(0)}));
  EXPECT_TRUE(result->Contains({R(1, 2), R(1, 2)}));
  EXPECT_FALSE(result->Contains({R(1), R(1)}));
  EXPECT_FALSE(result->Contains({R(0), R(2)}));
}

TEST(QeTest, NestedAlternatingQuantifiers) {
  // forall x exists y (y > x): true sentence.
  auto r = DecideSentence(
      Formula::Forall(0, Formula::Exists(1, Formula::MakeAtom(Atom(
                                                X() - Y(), RelOp::kLt)))),
      Pooled());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(QeTest, WorkMetricsCountEachCadOnceAndEachPublicCallOnce) {
  // exists y (x < 5 and x^2 + y^2 <= 4): a planned CAD block (the x < 5
  // conjunct is a miniscoped leaf). CAD cells and projection factors are
  // counted where the CAD is built, qe.calls once per public call.
  Counter* cells = MetricsRegistry::Global().GetCounter("qe.cad.cells");
  Counter* factors =
      MetricsRegistry::Global().GetCounter("qe.cad.projection_factors");
  Counter* calls = MetricsRegistry::Global().GetCounter("qe.calls");
  Counter* hits = MetricsRegistry::Global().GetCounter("qe_cache_hits");
  Formula query = Formula::Exists(
      1, Formula::And(Formula::MakeAtom(Atom(X() - Polynomial(5), RelOp::kLt)),
                      Formula::MakeAtom(Atom(X() * X() + Y() * Y() -
                                                 Polynomial(4),
                                             RelOp::kLe))));
  QeResultCache().Clear();
  QeOptions options = Pooled();

  std::uint64_t cells_before = cells->value();
  std::uint64_t factors_before = factors->value();
  std::uint64_t calls_before = calls->value();
  QeStats cold;
  auto cold_result = EliminateQuantifiers(query, 1, options, &cold);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  EXPECT_EQ(cold.cad_cells, 18u);
  EXPECT_EQ(cells->value() - cells_before, cold.cad_cells);
  EXPECT_EQ(factors->value() - factors_before, cold.projection_factors);
  EXPECT_EQ(calls->value() - calls_before, 1u);

  // A warm replay reports the same stats but builds nothing.
  cells_before = cells->value();
  factors_before = factors->value();
  calls_before = calls->value();
  const std::uint64_t hits_before = hits->value();
  QeStats warm;
  auto warm_result = EliminateQuantifiers(query, 1, options, &warm);
  ASSERT_TRUE(warm_result.ok());
  EXPECT_EQ(warm.cad_cells, cold.cad_cells);
  EXPECT_EQ(hits->value() - hits_before, 1u);
  EXPECT_EQ(cells->value() - cells_before, 0u);
  EXPECT_EQ(factors->value() - factors_before, 0u);
  EXPECT_EQ(calls->value() - calls_before, 1u);
}

// exists y (y^2 = 2 and x = y + y^2 and y > 0) is the single point
// x = 2 + sqrt2. Its conjugate 2 - sqrt2 is a false cell on the same
// projection factor x^2 - 4x + 2, so the plain sign vectors collide and
// only the derivative-closed (Thom) CAD separates the two roots.
TEST(QeTest, ThomRetrySeparatesConjugateRoots) {
  Formula query = Formula::Exists(
      1, Formula::And(
             Formula::MakeAtom(Atom(Y().Pow(2) - Polynomial(2), RelOp::kEq)),
             Formula::And(
                 Formula::MakeAtom(Atom(X() - Y() - Y().Pow(2), RelOp::kEq)),
                 Formula::MakeAtom(Atom(Y(), RelOp::kGt)))));
  QeResultCache().Clear();
  Counter* cells = MetricsRegistry::Global().GetCounter("qe.cad.cells");
  const std::uint64_t cells_before = cells->value();
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, Pooled(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.used_thom_augmentation);
  ASSERT_EQ(result->tuples().size(), 1u);
  // Both CADs are counted; the stats describe the one that answered.
  EXPECT_GT(cells->value() - cells_before, stats.cad_cells);
  auto points =
      ApproximateSolutions(*result, Rational(BigInt(1), BigInt::Pow2(40)),
                           nullptr, ProcessPool());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 1u);
  EXPECT_NEAR((*points)[0][0].ToDouble(), 2.0 + std::sqrt(2.0),
              std::ldexp(1.0, -30));
}

}  // namespace
}  // namespace ccdb
