#include "numeric/numerical_eval.h"

#include <cmath>

#include <gtest/gtest.h>

#include "numeric/approx.h"
#include "numeric/quadrature.h"
#include "test_pool.h"

namespace ccdb {
namespace {

using ccdb_test::ProcessPool;

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

ConstraintRelation SingleAtomRelation(int arity, Polynomial p, RelOp op) {
  ConstraintRelation rel(arity);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(std::move(p), op);
  rel.AddTuple(std::move(tuple));
  return rel;
}

// -------------------------------------------------- numerical evaluation

TEST(NumericalEvalTest, PaperPipelineRoot) {
  // Step 3 of Figure 1: 4x^2 - 20x + 25 = 0 evaluates numerically to 2.5.
  ConstraintRelation rel = SingleAtomRelation(
      1,
      Polynomial(4) * X().Pow(2) - Polynomial(20) * X() + Polynomial(25),
      RelOp::kEq);
  auto solutions =
      ApproximateSolutions(rel, R(1, 1000000), nullptr, ProcessPool());
  ASSERT_TRUE(solutions.ok()) << solutions.status().ToString();
  ASSERT_EQ(solutions->size(), 1u);
  EXPECT_EQ((*solutions)[0][0], R(5, 2));  // exact rational root
}

TEST(NumericalEvalTest, IrrationalRootsApproximated) {
  ConstraintRelation rel =
      SingleAtomRelation(1, X().Pow(2) - Polynomial(2), RelOp::kEq);
  auto solutions =
      ApproximateSolutions(rel, R(1, 1000000), nullptr, ProcessPool());
  ASSERT_TRUE(solutions.ok());
  ASSERT_EQ(solutions->size(), 2u);
  EXPECT_NEAR((*solutions)[0][0].ToDouble(), -std::sqrt(2.0), 1e-6);
  EXPECT_NEAR((*solutions)[1][0].ToDouble(), std::sqrt(2.0), 1e-6);
}

TEST(NumericalEvalTest, InfiniteSetDetected) {
  ConstraintRelation rel =
      SingleAtomRelation(1, X().Pow(2) - Polynomial(2), RelOp::kLe);
  auto eval = EvaluateNumerically(rel, nullptr, ProcessPool());
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->finite);
  EXPECT_FALSE(
      ApproximateSolutions(rel, R(1, 100), nullptr, ProcessPool()).ok());
}

TEST(NumericalEvalTest, TwoDimensionalFiniteSet) {
  // x^2 + y^2 = 1 and y = x: two intersection points.
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X().Pow(2) + Y().Pow(2) - Polynomial(1), RelOp::kEq);
  tuple.atoms.emplace_back(Y() - X(), RelOp::kEq);
  rel.AddTuple(std::move(tuple));
  auto eval = EvaluateNumerically(rel, nullptr, ProcessPool());
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  ASSERT_TRUE(eval->finite);
  ASSERT_EQ(eval->points.size(), 2u);
  double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  auto approx = eval->points[1].Approximate(R(1, 1000000));
  EXPECT_NEAR(approx[0].ToDouble(), inv_sqrt2, 1e-6);
  EXPECT_NEAR(approx[1].ToDouble(), inv_sqrt2, 1e-6);
}

TEST(NumericalEvalTest, EmptySet) {
  ConstraintRelation rel =
      SingleAtomRelation(1, X().Pow(2) + Polynomial(1), RelOp::kEq);
  auto eval = EvaluateNumerically(rel, nullptr, ProcessPool());
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->finite);
  EXPECT_TRUE(eval->points.empty());
}

TEST(DecomposeUnaryTest, IntervalAndPoints) {
  // (x >= 0 and x <= 1) or x = 3.
  ConstraintRelation rel(1);
  GeneralizedTuple interval;
  interval.atoms.emplace_back(-X(), RelOp::kLe);
  interval.atoms.emplace_back(X() - Polynomial(1), RelOp::kLe);
  rel.AddTuple(std::move(interval));
  GeneralizedTuple point;
  point.atoms.emplace_back(X() - Polynomial(3), RelOp::kEq);
  rel.AddTuple(std::move(point));

  auto decomposition = DecomposeUnary(rel);
  ASSERT_TRUE(decomposition.ok());
  // Pieces: {0}, (0,1), {1}, {3}.
  ASSERT_EQ(decomposition->pieces.size(), 4u);
  EXPECT_TRUE(decomposition->pieces[0].is_point);
  EXPECT_FALSE(decomposition->pieces[1].is_point);
  EXPECT_TRUE(decomposition->pieces[2].is_point);
  EXPECT_TRUE(decomposition->pieces[3].is_point);
  EXPECT_EQ(decomposition->pieces[3].lower.rational_value(), R(3));
}

TEST(DecomposeUnaryTest, UnboundedPieces) {
  ConstraintRelation rel = SingleAtomRelation(1, X(), RelOp::kGe);
  auto decomposition = DecomposeUnary(rel);
  ASSERT_TRUE(decomposition.ok());
  ASSERT_EQ(decomposition->pieces.size(), 2u);  // {0} and (0, +inf)
  EXPECT_TRUE(decomposition->pieces[0].is_point);
  EXPECT_FALSE(decomposition->pieces[1].has_upper);
}

// -------------------------------------------------- quadrature

TEST(QuadratureTest, PolynomialExactIntegral) {
  // ∫_1^4 (-4x^2 + 20x - 25) dx = -9 (the paper's F(4)-F(1) computation).
  UPoly primitive = AntiDerivative(UPoly({R(-25), R(20), R(-4)}));
  Rational integral = primitive.Evaluate(R(4)) - primitive.Evaluate(R(1));
  EXPECT_EQ(integral, R(-9));
  // The paper's surface: 27 + (-9) = 18.
  EXPECT_EQ(R(27) + integral, R(18));
}

TEST(QuadratureTest, AntiDerivative) {
  UPoly p({R(-25), R(20), R(-4)});
  UPoly primitive = AntiDerivative(p);
  // F(x) = -4/3 x^3 + 10 x^2 - 25 x.
  EXPECT_EQ(primitive.coefficient(3), R(-4, 3));
  EXPECT_EQ(primitive.coefficient(2), R(10));
  EXPECT_EQ(primitive.coefficient(1), R(-25));
  EXPECT_EQ(primitive.coefficient(0), R(0));
}

TEST(QuadratureTest, GaussLegendreExactOnPolynomialsOfDegreeBelow2n) {
  // The n-point rule integrates x^k over [-1, 1] exactly for k <= 2n - 1:
  // 2/(k + 1) for even k, 0 for odd k.
  for (int n : {1, 2, 3, 8, 16, 32, 64, 128}) {
    GaussLegendreRule rule = GaussLegendre(n);
    ASSERT_EQ(rule.nodes.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(rule.weights.size(), static_cast<std::size_t>(n));
    for (int i = 0; i + 1 < n; ++i) {
      EXPECT_LT(rule.nodes[i], rule.nodes[i + 1]) << "n=" << n;
    }
    for (int k = 0; k <= 2 * n - 1; ++k) {
      double sum = 0.0;
      for (int i = 0; i < n; ++i) {
        sum += rule.weights[i] * std::pow(rule.nodes[i], k);
      }
      double exact = k % 2 == 1 ? 0.0 : 2.0 / (k + 1);
      EXPECT_NEAR(sum, exact, 1e-13) << "n=" << n << " k=" << k;
    }
  }
  // Degree 2n is the first the n-point rule misses: x^4 with n = 2.
  GaussLegendreRule two = GaussLegendre(2);
  double sum = 0.0;
  for (int i = 0; i < 2; ++i) sum += two.weights[i] * std::pow(two.nodes[i], 4);
  EXPECT_GT(std::abs(sum - 2.0 / 5.0), 1e-3);
}

TEST(QuadratureTest, CosineSubstitutionIntegratesSquareRootEndpoints) {
  // ∫_{-1}^{1} √(1 − x²) dx = π/2: the integrand has square-root
  // endpoints, which x = −1 + 2s, s = (1 − cos θ)/2 makes smooth in θ
  // (√(1 − x²) = sin θ): 8 nodes are good to 1e-9, 16 to rounding.
  auto half_disk = [](double s) -> StatusOr<double> {
    double x = -1.0 + 2.0 * s;
    return std::sqrt(std::max(0.0, 1.0 - x * x));
  };
  for (int n : {8, 16, 32}) {
    auto value = CosineGaussLegendre(half_disk, 2.0, n, nullptr);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_NEAR(*value, M_PI / 2.0, n == 8 ? 1e-9 : 1e-13) << "n=" << n;
  }
  // A smooth integrand stays accurate too: ∫_0^π sin x dx = 2.
  auto sine = [](double s) -> StatusOr<double> { return std::sin(M_PI * s); };
  auto value = CosineGaussLegendre(sine, M_PI, 16, nullptr);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(*value, 2.0, 1e-12);
}

TEST(QuadratureTest, CosineSubstitutionChargesTheGovernorAndForwardsErrors) {
  ResourceGovernor starved{ResourceLimits::Steps(5)};
  auto one = [](double) -> StatusOr<double> { return 1.0; };
  auto tripped = CosineGaussLegendre(one, 1.0, 16, &starved);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  auto failing = [](double s) -> StatusOr<double> {
    if (s > 0.5) return Status::NumericalFailure("no value here");
    return 1.0;
  };
  auto failed = CosineGaussLegendre(failing, 1.0, 8, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNumericalFailure);
}

// -------------------------------------------------- approximation modules

TEST(ApproxTest, ExpChebyshevAccuracy) {
  ApproxModule module(8);
  auto result = module.Approximate(AnalyticKind::kExp, Interval(R(0), R(1)));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->poly.degree(), 8);
  EXPECT_LT(result->max_error_estimate, 1e-8);
  // Spot check at x = 1/2.
  double approx = result->poly.Evaluate(R(1, 2)).ToDouble();
  EXPECT_NEAR(approx, std::exp(0.5), 1e-8);
  EXPECT_EQ(module.call_count(), 1u);
}

TEST(ApproxTest, HigherOrderReducesError) {
  Interval domain(R(-2), R(2));
  double previous = 1e9;
  for (int order : {2, 4, 8, 12}) {
    ApproxModule module(order);
    auto result = module.Approximate(AnalyticKind::kSin, domain);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->max_error_estimate, previous);
    previous = result->max_error_estimate;
  }
  EXPECT_LT(previous, 1e-7);
}

TEST(ApproxTest, SingularDomainRejected) {
  ApproxModule module(6);
  // log undefined on [-1, 1] (the paper's log(x-3) at x=3 caveat).
  EXPECT_FALSE(
      module.Approximate(AnalyticKind::kLog, Interval(R(-1), R(1))).ok());
  EXPECT_TRUE(
      module.Approximate(AnalyticKind::kLog, Interval(R(1), R(2))).ok());
  EXPECT_FALSE(
      module.Approximate(AnalyticKind::kSqrt, Interval(R(-1), R(1))).ok());
}

TEST(ApproxTest, ABaseUniform) {
  ABase base = ABase::Uniform(R(0), R(10), 5);
  ASSERT_EQ(base.breakpoints.size(), 6u);
  auto intervals = base.Intervals();
  ASSERT_EQ(intervals.size(), 5u);
  EXPECT_EQ(intervals[0].lo(), R(0));
  EXPECT_EQ(intervals[0].hi(), R(2));
  EXPECT_EQ(intervals[4].hi(), R(10));
}

TEST(ApproxTest, AnalyticNames) {
  EXPECT_TRUE(AnalyticKindFromName("exp").ok());
  EXPECT_TRUE(AnalyticKindFromName("atan").ok());
  EXPECT_FALSE(AnalyticKindFromName("gamma").ok());
  EXPECT_STREQ(AnalyticKindName(AnalyticKind::kSqrt), "sqrt");
}

}  // namespace
}  // namespace ccdb
