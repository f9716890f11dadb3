#include "query/calcf.h"

#include <cmath>

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "query/parser.h"
#include "test_pool.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

// Evaluator options on the test pool (test_pool.h).
CalcFOptions Pooled() {
  CalcFOptions options;
  options.qe.pool = ccdb_test::ProcessPool();
  return options;
}

// Database with the paper's relation S and a couple of others.
CalcFEvaluator::RelationLookup PaperDatabase() {
  auto s = ParseRelationDef("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0");
  auto segment = ParseRelationDef("Seg(t) := 0 <= t and t <= 10");
  auto disk = ParseRelationDef("Disk(x, y) := x^2 + y^2 <= 1");
  CCDB_CHECK(s.ok() && segment.ok() && disk.ok());
  auto relations = std::make_shared<std::map<std::string, ConstraintRelation>>();
  relations->emplace("S", s->relation);
  relations->emplace("Seg", segment->relation);
  relations->emplace("Disk", disk->relation);
  return [relations](const std::string& name) -> StatusOr<RelationBody> {
    auto it = relations->find(name);
    if (it == relations->end()) return Status::NotFound("no relation " + name);
    return RelationBody(it->second);
  };
}

TEST(CalcFTest, PaperFigure1QueryEndToEnd) {
  // Q(x) = exists y (S(x,y) and y <= 0): answer {2.5}.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result = evaluator.EvaluateText("exists y (S(x, y) and y <= 0)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names, std::vector<std::string>{"x"});
  EXPECT_TRUE(result->relation.Contains({R(5, 2)}));
  EXPECT_FALSE(result->relation.Contains({R(2)}));
  EXPECT_FALSE(result->relation.Contains({R(3)}));
  EXPECT_EQ(result->stats.qe_rounds, 1u);
}

TEST(CalcFTest, PaperExample51SurfaceIs18) {
  // Example 5.1/5.4: SURFACE[x,y](S(x,y) and y <= 9)(z) = {18}.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result =
      evaluator.EvaluateText("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_scalar);
  EXPECT_TRUE(result->scalar.exact);
  EXPECT_EQ(result->scalar.exact_value, R(18));
  // Closed form: the result is itself a constraint relation {z = 18}.
  EXPECT_TRUE(result->relation.Contains({R(18)}));
  EXPECT_FALSE(result->relation.Contains({R(17)}));
  EXPECT_EQ(result->stats.aggregate_calls, 1u);
}

TEST(CalcFTest, MinMaxAvgOverSegment) {
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto min = evaluator.EvaluateText("MIN[t](Seg(t))(m)");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->scalar.exact_value, R(0));
  auto max = evaluator.EvaluateText("MAX[t](Seg(t))(m)");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->scalar.exact_value, R(10));
  auto avg = evaluator.EvaluateText("AVG[t](Seg(t))(m)");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->scalar.exact_value, R(5));
  auto length = evaluator.EvaluateText("LENGTH[t](Seg(t))(m)");
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(length->scalar.exact_value, R(10));
}

TEST(CalcFTest, AggregateOverDerivedSet) {
  // MAX over the x-projection of S restricted to y = 9: x in [1,4].
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result =
      evaluator.EvaluateText("MAX[x](exists y (S(x, y) and y = 9))(m)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scalar.exact_value, R(4));
}

TEST(CalcFTest, NestedAggregates) {
  // LENGTH of the interval [0, MAX(Seg)] = 10: the outer aggregate consumes
  // the inner one's output.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result = evaluator.EvaluateText(
      "LENGTH[t](exists m (MAX[s](Seg(s))(m) and 0 <= t and t <= m))(len)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scalar.exact_value, R(10));
  EXPECT_EQ(result->stats.aggregate_calls, 2u);
}

TEST(CalcFTest, SurfaceOfDiskApproximate) {
  CalcFOptions options = Pooled();
  options.tolerance = 1e-4;
  CalcFEvaluator evaluator(PaperDatabase(), options);
  auto result = evaluator.EvaluateText("SURFACE[x, y](Disk(x, y))(a)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_scalar);
  EXPECT_NEAR(result->scalar.approx_value, M_PI, 5e-3);
}

TEST(CalcFTest, AnalyticFunctionInQuery) {
  // exists x (Seg(x) and y = exp(x) and x = 1): y ≈ e.
  CalcFOptions options = Pooled();
  options.approx_order = 10;
  options.abase = ABase::Uniform(R(0), R(4), 8);
  CalcFEvaluator evaluator(PaperDatabase(), options);
  auto result = evaluator.EvaluateText(
      "exists x (Seg(x) and y = exp(x) and x = 1)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.approximation_calls, 0u);
  // The answer set is a singleton near e = 2.71828...
  bool found = false;
  for (std::int64_t milli = 2715; milli <= 2722; ++milli) {
    if (result->relation.Contains({R(milli, 1000)})) found = true;
  }
  // The set is tiny; instead check non-membership far away and membership
  // via the solution of the defining equation.
  EXPECT_FALSE(result->relation.Contains({R(1)}));
  EXPECT_FALSE(result->relation.Contains({R(4)}));
  (void)found;
  // x = 1 is an a-base breakpoint, so one tuple per adjacent piece may
  // appear; every tuple must pin y to a value within the approximation
  // error of e.
  ASSERT_GE(result->relation.tuples().size(), 1u);
  for (const GeneralizedTuple& tuple : result->relation.tuples()) {
    ASSERT_EQ(tuple.atoms.size(), 1u);
    auto coeffs = tuple.atoms[0].poly.CoefficientsIn(0);
    ASSERT_EQ(coeffs.size(), 2u);
    double value = (-coeffs[0].constant_value() /
                    coeffs[1].constant_value()).ToDouble();
    EXPECT_NEAR(value, std::exp(1.0), 1e-6);
  }
}

TEST(CalcFTest, FunctionCompositionSinOfPoly) {
  // y = sin(0) must give y = 0 (sin(0) is exactly 0 under Chebyshev
  // interpolation only approximately; accept small error).
  CalcFOptions options = Pooled();
  options.approx_order = 12;
  options.abase = ABase::Uniform(R(-4), R(4), 8);
  CalcFEvaluator evaluator(PaperDatabase(), options);
  auto result = evaluator.EvaluateText("exists x (x = 0 and y = sin(x))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Answer: y = h(0) with |h(0) - 0| small. The atom is canonicalized to
  // primitive integer form a*y - b = 0, so read the root b/a, not the raw
  // constant coefficient.
  ASSERT_GE(result->relation.tuples().size(), 1u);
  const Atom& atom = result->relation.tuples()[0].atoms[0];
  auto coeffs = atom.poly.CoefficientsIn(0);
  ASSERT_EQ(coeffs.size(), 2u);
  double value = (-coeffs[0].constant_value() /
                  coeffs[1].constant_value()).ToDouble();
  EXPECT_NEAR(value, 0.0, 1e-6);
}

TEST(CalcFTest, ArgumentOutsideABaseRejectedOrEmpty) {
  CalcFOptions options = Pooled();
  options.abase = ABase::Uniform(R(0), R(1), 2);
  CalcFEvaluator evaluator(PaperDatabase(), options);
  // exp(5) is outside the a-base [0,1]: the constraint set is empty.
  auto result = evaluator.EvaluateText("exists x (x = 5 and y = exp(x))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relation.is_empty_syntactically());
}

TEST(CalcFTest, ParameterizedAggregateNonSeparableUndefined) {
  // The paper's step 4 requires each tuple to split into x-only and y-only
  // constraints ("the query is undefined otherwise"); S mixes x and y in
  // one atom.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result =
      evaluator.EvaluateText("LENGTH[y](S(x, y) and y <= 9)(len)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUndefined);
}

TEST(CalcFTest, ParameterizedAggregateSeparable) {
  // Piece(x, y): height-2 slab over x in [0,1], height-5 slab over
  // x in [1,3]. MAX[y](Piece(x,y))(m) is a function of the parameter x.
  auto piece = ParseRelationDef(
      "Piece(x, y) := (0 <= x and x <= 1 and 0 <= y and y <= 2) or "
      "(1 <= x and x <= 3 and 0 <= y and y <= 5)");
  ASSERT_TRUE(piece.ok());
  ConstraintRelation rel = piece->relation;
  auto lookup = [&rel](const std::string& name) -> StatusOr<RelationBody> {
    if (name == "Piece") return RelationBody(rel);
    return Status::NotFound("no relation " + name);
  };
  CalcFEvaluator evaluator(lookup, Pooled());
  auto result = evaluator.EvaluateText("MAX[y](Piece(x, y))(m)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Columns: x then m.
  EXPECT_TRUE(result->relation.Contains({R(1, 2), R(2)}));
  EXPECT_FALSE(result->relation.Contains({R(1, 2), R(5)}));
  EXPECT_TRUE(result->relation.Contains({R(2), R(5)}));
  EXPECT_FALSE(result->relation.Contains({R(2), R(2)}));
  // At the seam x = 1 both slabs are active: max of the union is 5.
  EXPECT_TRUE(result->relation.Contains({R(1), R(5)}));
  // Outside the pieces the aggregate is undefined: no tuple matches.
  EXPECT_FALSE(result->relation.Contains({R(4), R(5)}));
  EXPECT_FALSE(result->relation.Contains({R(4), R(2)}));
  // The exact rendering: one tuple per distinct sign vector of a defined
  // parameter cell, each with its value atom x1 - m = 0.
  EXPECT_EQ(result->relation.ToString(),
            "(x1 - 5 = 0 and x0 - 3 = 0 and x0 - 1 > 0 and x0 > 0) or "
            "(x1 - 5 = 0 and x0 - 3 < 0 and x0 - 1 = 0 and x0 > 0) or "
            "(x1 - 5 = 0 and x0 - 3 < 0 and x0 - 1 > 0 and x0 > 0) or "
            "(x0 - 3 < 0 and x1 - 2 = 0 and x0 - 1 < 0 and x0 = 0) or "
            "(x0 - 3 < 0 and x1 - 2 = 0 and x0 - 1 < 0 and x0 > 0)");
}

TEST(CalcFTest, ParameterizedLengthOfSlabs) {
  auto piece = ParseRelationDef(
      "Slab(x, y) := (0 <= x and x <= 2 and 0 <= y and y <= 3) or "
      "(0 <= x and x <= 1 and 4 <= y and y <= 6)");
  ASSERT_TRUE(piece.ok());
  ConstraintRelation rel = piece->relation;
  auto lookup = [&rel](const std::string& name) -> StatusOr<RelationBody> {
    if (name == "Slab") return RelationBody(rel);
    return Status::NotFound("no relation " + name);
  };
  CalcFEvaluator evaluator(lookup, Pooled());
  auto result = evaluator.EvaluateText("LENGTH[y](Slab(x, y))(len)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // x in (0,1): both slabs: length 3 + 2 = 5. x in (1,2): length 3.
  EXPECT_TRUE(result->relation.Contains({R(1, 2), R(5)}));
  EXPECT_TRUE(result->relation.Contains({R(3, 2), R(3)}));
  EXPECT_FALSE(result->relation.Contains({R(3, 2), R(5)}));
  EXPECT_EQ(result->relation.ToString(),
            "(x1 - 5 = 0 and x0 - 2 < 0 and x0 - 1 = 0 and x0 > 0) or "
            "(x1 - 5 = 0 and x0 - 2 < 0 and x0 - 1 < 0 and x0 = 0) or "
            "(x1 - 5 = 0 and x0 - 2 < 0 and x0 - 1 < 0 and x0 > 0) or "
            "(x1 - 3 = 0 and x0 - 2 = 0 and x0 - 1 > 0 and x0 > 0) or "
            "(x1 - 3 = 0 and x0 - 2 < 0 and x0 - 1 > 0 and x0 > 0)");
}

TEST(CalcFTest, EvalAggregate) {
  // EVAL[x](4x^2-20x+25 = 0)(r): finite solution {2.5}.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result = evaluator.EvaluateText(
      "EVAL[x](4*x^2 - 20*x + 25 = 0)(r)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relation.Contains({R(5, 2)}));
  EXPECT_FALSE(result->relation.Contains({R(2)}));
}

TEST(CalcFTest, UnknownRelation) {
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto result = evaluator.EvaluateText("Nope(x)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CalcFTest, ClosedFormComposability) {
  // Theorem 5.5's closed-form property: the output of a CALC_F query is a
  // constraint relation usable as input again.
  CalcFEvaluator evaluator(PaperDatabase(), Pooled());
  auto first = evaluator.EvaluateText("exists y (S(x, y) and y <= 0)");
  ASSERT_TRUE(first.ok());
  // Register the output and query it.
  ConstraintRelation derived = first->relation;
  auto lookup =
      [&derived](const std::string& name) -> StatusOr<RelationBody> {
    if (name == "D") return RelationBody(derived);
    return Status::NotFound("no relation " + name);
  };
  CalcFEvaluator second(lookup, Pooled());
  auto final_result = second.EvaluateText("EVAL[x](D(x))(r)");
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_TRUE(final_result->relation.Contains({R(5, 2)}));
}

}  // namespace
}  // namespace ccdb
