#include "poly/algebraic_number.h"
#include "poly/number_field.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/metrics.h"

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

AlgebraicNumber Sqrt2() {
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  return roots[1];  // positive root
}

TEST(AlgebraicNumberTest, RationalConstruction) {
  AlgebraicNumber a(R(5, 2));
  EXPECT_TRUE(a.is_rational());
  EXPECT_EQ(a.rational_value(), R(5, 2));
  EXPECT_EQ(a.Sign(), 1);
  EXPECT_EQ(AlgebraicNumber(R(0)).Sign(), 0);
  EXPECT_EQ(AlgebraicNumber(R(-3)).Sign(), -1);
}

TEST(AlgebraicNumberTest, RootsOfOrderedAndSigned) {
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].Sign(), -1);
  EXPECT_EQ(roots[1].Sign(), 1);
  EXPECT_LT(roots[0], roots[1]);
  EXPECT_NEAR(roots[1].ToDouble(), 1.4142135623730951, 1e-12);
}

TEST(AlgebraicNumberTest, SignOfPolyAtExactZero) {
  AlgebraicNumber sqrt2 = Sqrt2();
  // sqrt(2)^2 - 2 == 0, decided exactly.
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-2, 0, 1})), 0);
  // sqrt(2)^2 - 1 = 1 > 0.
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-1, 0, 1})), 1);
  // sqrt(2) - 2 < 0.
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-2, 1})), -1);
  // Multiple of the minimal polynomial also vanishes.
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-2, 0, 1}) * FromInts({7, 1})), 0);
}

TEST(AlgebraicNumberTest, CompareDistinctRootsOfSamePoly) {
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1})).value();
  EXPECT_EQ(roots[0].Compare(roots[1]), -1);
  EXPECT_EQ(roots[1].Compare(roots[0]), 1);
  EXPECT_EQ(roots[0].Compare(roots[0]), 0);
}

TEST(AlgebraicNumberTest, CompareEqualFromDifferentPolynomials) {
  // sqrt(2) as a root of x^2-2 and of (x^2-2)(x-5).
  AlgebraicNumber a = Sqrt2();
  auto roots_b = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1}) *
                                          FromInts({-5, 1})).value();
  ASSERT_EQ(roots_b.size(), 3u);
  EXPECT_EQ(a.Compare(roots_b[1]), 0) << roots_b[1].ToString();
  EXPECT_EQ(a.Compare(roots_b[0]), 1);
  EXPECT_EQ(a.Compare(roots_b[2]), -1);
}

TEST(AlgebraicNumberTest, CompareRational) {
  AlgebraicNumber sqrt2 = Sqrt2();
  EXPECT_EQ(sqrt2.CompareRational(R(1)), 1);
  EXPECT_EQ(sqrt2.CompareRational(R(2)), -1);
  EXPECT_EQ(sqrt2.CompareRational(R(141421356, 100000000)), 1);
  EXPECT_EQ(sqrt2.CompareRational(R(141421357, 100000000)), -1);
  AlgebraicNumber half(R(1, 2));
  EXPECT_EQ(half.CompareRational(R(1, 2)), 0);
}

TEST(AlgebraicNumberTest, ApproximateWithinEpsilon) {
  AlgebraicNumber sqrt2 = Sqrt2();
  Rational eps(BigInt(1), BigInt::Pow2(50));
  Rational approx = sqrt2.Approximate(eps);
  Rational err = approx * approx - R(2);
  // |approx - sqrt2| <= eps implies |approx^2 - 2| <= eps * (2*sqrt2+eps).
  EXPECT_LE(err.Abs(), eps * R(4));
}

TEST(AlgebraicNumberTest, GoldenRatioCubicMix) {
  // x^2 - x - 1: roots phi and 1-phi.
  auto roots = AlgebraicNumber::RootsOf(FromInts({-1, -1, 1})).value();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(roots[1].ToDouble(), 1.618033988749895, 1e-12);
  // phi satisfies phi^2 = phi + 1.
  EXPECT_EQ(roots[1].SignOfPolyAt(FromInts({-1, -1, 1})), 0);
  // phi^3 - 2phi - 1 = 0 as well (since x^3-2x-1 = (x^2-x-1)(x+1)).
  EXPECT_EQ(roots[1].SignOfPolyAt(FromInts({-1, -2, 0, 1})), 0);
}

std::uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(AlgebraicNumberTest, RootsOfTakesTheSquarefreePartOnce) {
  // x^4 - 10x^2 + 1: four irrational roots +-sqrt2 +-sqrt3. Root isolation
  // and all four numbers share the one squarefree part RootsOf takes.
  const std::uint64_t gcds = CounterValue("poly.squarefree_gcds");
  const std::uint64_t bisections = CounterValue("poly.refine_bisections");
  auto roots = AlgebraicNumber::RootsOf(FromInts({1, 0, -10, 0, 1})).value();
  ASSERT_EQ(roots.size(), 4u);
  EXPECT_EQ(CounterValue("poly.squarefree_gcds") - gcds, 1u);

  // Refinement trusts the squarefree defining polynomial: no further gcd.
  const std::uint64_t after_roots = CounterValue("poly.squarefree_gcds");
  roots[2].RefineTo(Rational(BigInt(1), BigInt::Pow2(20)));
  EXPECT_EQ(CounterValue("poly.squarefree_gcds") - after_roots, 0u);
  EXPECT_GT(CounterValue("poly.refine_bisections") - bisections, 0u);
  EXPECT_LE(roots[2].isolating_interval().Width(),
            Rational(BigInt(1), BigInt::Pow2(20)));
}

TEST(NumberFieldTest, RationalFieldDegenerate) {
  NumberField field((AlgebraicNumber(R(3))));
  // Elements reduce to constants: t ≡ 3.
  UPoly t = UPoly::X();
  UPoly reduced = field.Reduce(t);
  EXPECT_EQ(reduced, UPoly::Constant(R(3)));
  EXPECT_EQ(field.Sign(t - UPoly::Constant(R(3))), 0);
  EXPECT_EQ(field.Sign(t), 1);
}

TEST(NumberFieldTest, ArithmeticInQSqrt2) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();  // represents sqrt(2)
  // t*t = 2.
  EXPECT_EQ(field.Mul(t, t), UPoly::Constant(R(2)));
  // (1+t)(1-t) = 1 - t^2 = -1.
  UPoly one = UPoly::Constant(R(1));
  EXPECT_EQ(field.Mul(one + t, one - t), UPoly::Constant(R(-1)));
  EXPECT_EQ(field.Sign(t - one), 1);       // sqrt2 > 1
  EXPECT_EQ(field.Sign(t - UPoly::Constant(R(2))), -1);
  EXPECT_TRUE(field.IsZero(field.Sub(field.Mul(t, t), UPoly::Constant(R(2)))));
}

TEST(NumberFieldTest, InverseInQSqrt2) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  // 1/sqrt2 = sqrt2/2.
  UPoly inv = field.Inverse(t);
  EXPECT_EQ(inv, t.Scale(R(1, 2)));
  // 1/(1+sqrt2) = sqrt2 - 1.
  UPoly one = UPoly::Constant(R(1));
  UPoly inv2 = field.Inverse(one + t);
  EXPECT_EQ(inv2, t - one);
  // a * a^{-1} = 1.
  EXPECT_EQ(field.Mul(one + t, inv2), one);
}

TEST(NumberFieldTest, D5SplitOnReducibleModulus) {
  // alpha = sqrt(2) presented as a root of (x^2-2)(x^2-3) — reducible.
  UPoly reducible = FromInts({-2, 0, 1}) * FromInts({-3, 0, 1});
  auto roots = AlgebraicNumber::RootsOf(reducible).value();
  ASSERT_EQ(roots.size(), 4u);
  // roots sorted: -sqrt3, -sqrt2, sqrt2, sqrt3. Take sqrt2.
  AlgebraicNumber alpha = roots[2];
  NumberField field(alpha);
  EXPECT_EQ(field.degree(), 4);
  UPoly t = UPoly::X();
  // Inverting x^2 - 3 (which vanishes at ±sqrt3 but not at alpha) forces a
  // D5 split down to the factor containing sqrt2.
  UPoly element = field.Reduce(FromInts({-3, 0, 1}));
  EXPECT_FALSE(field.IsZero(element));
  UPoly inv = field.Inverse(element);
  // After the split the modulus divides x^2-2... the element ≡ 2-3 = -1,
  // so its inverse is -1.
  EXPECT_EQ(field.Mul(element, inv), UPoly::Constant(R(1)));
  EXPECT_LE(field.degree(), 2);
  // Field still knows alpha^2 = 2.
  EXPECT_TRUE(field.IsZero(field.Sub(field.Mul(t, t), UPoly::Constant(R(2)))));
}

TEST(NumberFieldTest, EncloseConverges) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  Interval e = field.Enclose(t + UPoly::Constant(R(1)),
                             Rational(BigInt(1), BigInt(1000000)));
  EXPECT_LE(e.Width(), R(1, 1000000));
  EXPECT_TRUE(e.Contains(R(2414214, 1000000)) ||
              e.Contains(R(2414213, 1000000)));
}

TEST(FieldPolyTest, NormalizeDropsZeroLeading) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  // Leading coefficient t^2 - 2 is zero in the field.
  FieldPoly p({UPoly::Constant(R(1)), t, FromInts({-2, 0, 1})});
  p.Normalize(field);
  EXPECT_EQ(p.degree(), 1);
}

TEST(FieldPolyTest, RootsOfYSquaredMinusAlpha) {
  // y^2 - sqrt2 = 0: roots ±2^{1/4}.
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  FieldPoly p({-t, UPoly(), UPoly::Constant(R(1))});
  FieldPoly sf = p.SquarefreePart(field);
  auto roots = sf.IsolateRealRoots(field);
  ASSERT_EQ(roots.size(), 2u);
  double fourth_root = std::pow(2.0, 0.25);
  EXPECT_LT(roots[0].lo().ToDouble(), -fourth_root + 0.5);
  EXPECT_GT(roots[1].hi().ToDouble(), fourth_root - 0.5);
  // Sign tests at rational points bracket the positive root.
  EXPECT_EQ(p.SignAtRational(R(0), field), -1);   // -sqrt2 < 0
  EXPECT_EQ(p.SignAtRational(R(2), field), 1);    // 4 - sqrt2 > 0
}

TEST(FieldPolyTest, GcdDetectsCommonRootOverField) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  UPoly one = UPoly::Constant(R(1));
  // p = (y - sqrt2)(y + 1), q = (y - sqrt2)(y - 3).
  FieldPoly y_minus_alpha({-t, one});
  FieldPoly p = y_minus_alpha.Mul(FieldPoly({one, one}), field);
  FieldPoly q = y_minus_alpha.Mul(
      FieldPoly({UPoly::Constant(R(-3)), one}), field);
  FieldPoly g = FieldPoly::Gcd(p, q, field);
  EXPECT_EQ(g.degree(), 1);
  // Monic gcd = y - sqrt2: constant coefficient ≡ -sqrt2.
  EXPECT_TRUE(field.IsZero(field.Add(g.coefficients()[0], t)));
}

TEST(FieldPolyTest, SquarefreePartOverField) {
  NumberField field(Sqrt2());
  UPoly t = UPoly::X();
  UPoly one = UPoly::Constant(R(1));
  FieldPoly y_minus_alpha({-t, one});
  FieldPoly squared = y_minus_alpha.Mul(y_minus_alpha, field);
  FieldPoly sf = squared.SquarefreePart(field);
  EXPECT_EQ(sf.degree(), 1);
  auto roots = sf.IsolateRealRoots(field);
  ASSERT_EQ(roots.size(), 1u);
}

}  // namespace
}  // namespace ccdb
