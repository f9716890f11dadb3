#include "poly/resultant.h"

#include <gtest/gtest.h>

#include "poly/upoly.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

TEST(DivideExactMvTest, ExactAndInexact) {
  Polynomial p = (X() + Y()) * (X() - Y());
  auto q = DivideExactMv(p, X() + Y());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, X() - Y());
  EXPECT_FALSE(DivideExactMv(p, X() + Polynomial(1)).ok());
  auto zero = DivideExactMv(Polynomial(), X());
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->is_zero());
}

TEST(PseudoRemTest, MatchesDefinition) {
  // prem(a, b) = lc(b)^{da-db+1} a mod b.
  Polynomial a = X().Pow(3) + Y() * X() + Polynomial(1);
  Polynomial b = Polynomial(2) * X() + Y();
  Polynomial prem = PseudoRem(a, b, 0).value();
  // lc(b)^3 * a = q*b + prem with prem free of x.
  EXPECT_EQ(prem.DegreeIn(0), 0u);
  // Verify by evaluating both sides at x = -y/2 (the root of b):
  // prem(y) = 8 * a(-y/2, y).
  for (std::int64_t yi = -3; yi <= 3; ++yi) {
    Rational yv(yi);
    Rational expected = a.Evaluate({-yv / R(2), yv}) * R(8);
    EXPECT_EQ(prem.Evaluate({R(0), yv}), expected) << "y=" << yi;
  }
}

TEST(ResultantTest, UnivariateAgainstRootProducts) {
  // res(x^2-1, x^2-4) with roots {±1}, {±2}:
  // lc^... = prod (a_i - b_j) = (1-2)(1+2)(-1-2)(-1+2) = (-1)(3)(-3)(1) = 9.
  Polynomial a = X().Pow(2) - Polynomial(1);
  Polynomial b = X().Pow(2) - Polynomial(4);
  Polynomial res = Resultant(a, b, 0).value();
  ASSERT_TRUE(res.is_constant());
  EXPECT_EQ(res.constant_value(), R(9));
}

TEST(ResultantTest, SharedRootGivesZero) {
  Polynomial a = (X() - Polynomial(1)) * (X() - Polynomial(2));
  Polynomial b = (X() - Polynomial(1)) * (X() + Polynomial(5));
  EXPECT_TRUE(Resultant(a, b, 0).value().is_zero());
}

TEST(ResultantTest, SwapSignRule) {
  Polynomial a = X().Pow(3) - X() + Polynomial(1);
  Polynomial b = X().Pow(2) + Polynomial(2);
  Polynomial r1 = Resultant(a, b, 0).value();
  Polynomial r2 = Resultant(b, a, 0).value();
  // res(a,b) = (-1)^{3*2} res(b,a) = res(b,a).
  EXPECT_EQ(r1, r2);

  Polynomial c = X() + Polynomial(1);
  Polynomial r3 = Resultant(a, c, 0).value();
  Polynomial r4 = Resultant(c, a, 0).value();
  // (-1)^{3*1} = -1.
  EXPECT_EQ(r3, -r4);
}

TEST(ResultantTest, BivariateEliminatesVariable) {
  // p = y - x^2, q = y - 2x: res_y = 2x - x^2 (up to sign), roots x=0,2 are
  // exactly the x-coordinates of the intersection points.
  Polynomial p = Y() - X().Pow(2);
  Polynomial q = Y() - Polynomial(2) * X();
  Polynomial res = Resultant(p, q, 1).value();
  EXPECT_EQ(res.max_var(), 0);
  EXPECT_EQ(res.Evaluate({R(0), R(0)}), R(0));
  EXPECT_EQ(res.Evaluate({R(2), R(0)}), R(0));
  EXPECT_NE(res.Evaluate({R(1), R(0)}), R(0));
}

TEST(ResultantTest, PaperExampleProjection) {
  // The paper's query: exists y (4x^2 - y - 20x + 25 <= 0 and y <= 0).
  // The boundary interaction is res_y(4x^2-y-20x+25, y) = 4x^2-20x+25.
  Polynomial p = Polynomial(4) * X().Pow(2) - Y() - Polynomial(20) * X() +
                 Polynomial(25);
  Polynomial res = Resultant(p, Y(), 1).value();
  Polynomial expected =
      Polynomial(4) * X().Pow(2) - Polynomial(20) * X() + Polynomial(25);
  // res is ± the expected polynomial.
  EXPECT_TRUE(res == expected || res == -expected)
      << res.ToString({"x", "y"});
}

TEST(DiscriminantTest, Quadratic) {
  // disc(ax^2+bx+c) = b^2 - 4ac; here 4x^2 - 20x + 25: 400 - 400 = 0.
  Polynomial p =
      Polynomial(4) * X().Pow(2) - Polynomial(20) * X() + Polynomial(25);
  EXPECT_TRUE(Discriminant(p, 0).value().is_zero());

  Polynomial q = X().Pow(2) - Polynomial(1);  // disc = 4
  Polynomial d = Discriminant(q, 0).value();
  ASSERT_TRUE(d.is_constant());
  EXPECT_EQ(d.constant_value(), R(4));

  // Bivariate: disc_y(y^2 - x) = 4x (up to convention disc = 4x).
  Polynomial circle = Y().Pow(2) - X();
  Polynomial dy = Discriminant(circle, 1).value();
  EXPECT_EQ(dy, Polynomial(4) * X());
}

TEST(DiscriminantTest, CubicKnownValue) {
  // disc(x^3 + px + q) = -4p^3 - 27q^2; for x^3 - x: -4(-1)^3 = 4... with
  // p=-1,q=0: disc = 4.
  Polynomial f = X().Pow(3) - X();
  Polynomial d = Discriminant(f, 0).value();
  ASSERT_TRUE(d.is_constant());
  EXPECT_EQ(d.constant_value(), R(4));
}

TEST(MvGcdTest, UnivariateAgreesWithUPoly) {
  Polynomial a = (X() - Polynomial(1)).Pow(2) * (X() + Polynomial(3));
  Polynomial b = (X() - Polynomial(1)) * (X() - Polynomial(7));
  Polynomial g = MvGcd(a, b).value();
  EXPECT_EQ(g, X() - Polynomial(1));
}

TEST(MvGcdTest, BivariateCommonFactor) {
  Polynomial common = X() * Y() - Polynomial(1);
  Polynomial a = common * (X() + Y());
  Polynomial b = common * (X() - Y() + Polynomial(2));
  Polynomial g = MvGcd(a, b).value();
  EXPECT_EQ(g, common);
}

TEST(MvGcdTest, CoprimeGivesOne) {
  EXPECT_EQ(MvGcd(X() + Y(), X() - Y()).value(), Polynomial(1));
  EXPECT_EQ(MvGcd(X().Pow(2) + Polynomial(1), X()).value(), Polynomial(1));
}

TEST(MvGcdTest, ZeroCases) {
  EXPECT_TRUE(MvGcd(Polynomial(), Polynomial()).value().is_zero());
  EXPECT_EQ(MvGcd(Polynomial(), Polynomial(2) * X()).value(), X());
  EXPECT_EQ(MvGcd(Polynomial(3), X()).value(), Polynomial(1));
}

// A governed call bypasses the memo entirely: it neither reads nor fills
// it, so an ungoverned call never reuses work whose budget was charged to
// someone else's governor.
TEST(MvGcdTest, GovernedCallLeavesTheMemoUnchanged) {
  Polynomial a = (X() + Y() + Polynomial(7)) * (X() - Polynomial(3));
  Polynomial b = (X() + Y() + Polynomial(7)) * (Y() + Polynomial(5));
  ResourceGovernor unlimited{ResourceLimits{}};
  const std::size_t before = ResultantCacheSize();
  StatusOr<Polynomial> governed = MvGcd(a, b, &unlimited);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(ResultantCacheSize(), before);
  // Control: the same gcd ungoverned fills the memo.
  EXPECT_EQ(MvGcd(a, b).value(), *governed);
  EXPECT_GT(ResultantCacheSize(), before);
}

TEST(ContentTest, ContentAndPrimitivePart) {
  // p = y*(x^2) + y*(x) = y*x*(x+1): content in x is y (times units).
  Polynomial p = Y() * X().Pow(2) + Y() * X();
  Polynomial content = ContentIn(p, 0).value();
  EXPECT_EQ(content, Y());
  Polynomial pp = PrimitivePartIn(p, 0).value();
  EXPECT_EQ(pp * content, p);
  EXPECT_EQ(pp, X().Pow(2) + X());
}

TEST(SquarefreeTest, SquarefreePartIn) {
  Polynomial p = (Y() - X().Pow(2)).Pow(2) * (Y() + X());
  Polynomial sf = SquarefreePartIn(p, 1).value();
  Polynomial expected = ((Y() - X().Pow(2)) * (Y() + X())).IntegerNormalized();
  EXPECT_EQ(sf, expected);
}

TEST(SquarefreeBasisTest, SplitsCommonFactors) {
  Polynomial f = (X() - Polynomial(1)) * (X() - Polynomial(2));
  Polynomial g = (X() - Polynomial(2)) * (X() - Polynomial(3));
  auto basis = SquarefreeBasis({f, g}).value();
  // Finest basis: {x-1, x-2, x-3}.
  ASSERT_EQ(basis.size(), 3u);
  std::vector<Polynomial> expected = {X() - Polynomial(1), X() - Polynomial(2),
                                      X() - Polynomial(3)};
  for (const Polynomial& e : expected) {
    bool found = false;
    for (const Polynomial& b : basis) {
      if (b == e) found = true;
    }
    EXPECT_TRUE(found) << e.ToString();
  }
}

TEST(SquarefreeBasisTest, DropsConstantsAndDuplicates) {
  Polynomial f = X() + Y();
  auto basis = SquarefreeBasis(
      {f, f.Scale(R(3)), Polynomial(5), Polynomial(), f.Pow(2)}).value();
  ASSERT_EQ(basis.size(), 1u);
  EXPECT_EQ(basis[0], f);
}

TEST(SquarefreeBasisTest, PairwiseCoprimeOutput) {
  Polynomial f = (Y() - X()) * (Y() + X());
  Polynomial g = (Y() - X()) * (Y() - Polynomial(1));
  auto basis = SquarefreeBasis({f, g}).value();
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      EXPECT_TRUE(MvGcd(basis[i], basis[j]).value().is_constant())
          << basis[i].ToString() << " vs " << basis[j].ToString();
    }
  }
}

}  // namespace
}  // namespace ccdb
