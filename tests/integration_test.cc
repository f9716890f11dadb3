// End-to-end integration tests across the whole engine: multi-relation
// databases, joins, nested CALC_F queries, three-variable quantifier
// elimination, persistence round trips, and performance regression
// fences for the algebraic kernel.

#include <chrono>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/metrics.h"
#include "engine/database.h"
#include "poly/resultant.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(IntegrationTest, MultiRelationJoin) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("A(x) := 0 <= x and x <= 10").ok());
  ASSERT_TRUE(db.Define("B(x) := 5 <= x and x <= 15").ok());
  // Intersection.
  auto both = db.Query("A(x) and B(x)");
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->relation.Contains({R(7)}));
  EXPECT_FALSE(both->relation.Contains({R(3)}));
  EXPECT_FALSE(both->relation.Contains({R(12)}));
  // Difference (A minus B).
  auto diff = db.Query("A(x) and not B(x)");
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->relation.Contains({R(3)}));
  EXPECT_FALSE(diff->relation.Contains({R(7)}));
  // Join through a shared variable.
  ASSERT_TRUE(db.Define("Pair(x, y) := y = 2*x and 0 <= x and x <= 4").ok());
  auto joined = db.Query("exists y (Pair(x, y) and B(y))");
  ASSERT_TRUE(joined.ok());
  // y = 2x in [5,15] -> x in [5/2, 4] (clipped by x <= 4).
  EXPECT_TRUE(joined->relation.Contains({R(3)}));
  EXPECT_TRUE(joined->relation.Contains({R(5, 2)}));
  EXPECT_FALSE(joined->relation.Contains({R(2)}));
  EXPECT_FALSE(joined->relation.Contains({R(5)}));
}

TEST(IntegrationTest, ThreeVariableSphereProjection) {
  // exists z (x^2 + y^2 + z^2 = 1): the closed unit disk — exercises
  // 3-variable CAD with lifting over algebraic base samples.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("Sphere(x, y, z) := x^2 + y^2 + z^2 = 1").ok());
  auto disk = db.Query("exists z (Sphere(x, y, z))");
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_TRUE(disk->relation.Contains({R(0), R(0)}));
  EXPECT_TRUE(disk->relation.Contains({R(1), R(0)}));
  EXPECT_TRUE(disk->relation.Contains({R(3, 5), R(4, 5)}));  // on the rim
  EXPECT_TRUE(disk->relation.Contains({R(1, 2), R(1, 2)}));
  EXPECT_FALSE(disk->relation.Contains({R(1), R(1)}));
  EXPECT_FALSE(disk->relation.Contains({R(0), R(11, 10)}));
}

TEST(IntegrationTest, QueryRecordsPipelineMetrics) {
  // A nonlinear existential query must go down the CAD path and move the
  // observability counters: cells constructed, resultants/discriminants
  // computed during projection.
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto before = registry.SnapshotValues();
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("Circle(x, y) := x^2 + y^2 <= 1").ok());
  auto shadow = db.Query("exists y (Circle(x, y))");
  ASSERT_TRUE(shadow.ok()) << shadow.status().ToString();
  auto after = registry.SnapshotValues();
  auto delta = [&](const std::string& name) {
    auto it_before = before.find(name);
    std::uint64_t base = it_before == before.end() ? 0 : it_before->second;
    auto it_after = after.find(name);
    return (it_after == after.end() ? 0 : it_after->second) - base;
  };
  EXPECT_GT(delta("cad.cells"), 0u);
  EXPECT_GT(delta("cad.resultants") + delta("cad.discriminants"), 0u);
  EXPECT_GT(delta("qe.calls"), 0u);
  EXPECT_GT(delta("catalog.lookups"), 0u);
  EXPECT_GT(delta("db.queries"), 0u);
}

TEST(IntegrationTest, ExplainReportsStagesAndMetricDeltas) {
  // The README surface example: EXPLAIN must attribute wall time to the
  // Figure-1 stages and report the metric movement of this query alone.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto explained = db.Explain("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(explained->result.has_scalar);
  EXPECT_EQ(explained->result.scalar.exact_value, R(18));
  EXPECT_GT(explained->profile.total_seconds, 0.0);
  EXPECT_GT(explained->result.stats.qe_seconds, 0.0);
  // At least five distinct meters must have moved (acceptance criterion).
  EXPECT_GE(explained->profile.metric_deltas.size(), 5u);
  EXPECT_GT(explained->profile.metric_deltas.count("qe.calls"), 0u);
  std::string rendered = explained->ToString();
  EXPECT_NE(rendered.find("INSTANTIATION"), std::string::npos);
  EXPECT_NE(rendered.find("QUANTIFIER ELIMINATION"), std::string::npos);
  EXPECT_NE(rendered.find("NUMERICAL EVALUATION"), std::string::npos);
  EXPECT_NE(rendered.find("AGGREGATE EVALUATION"), std::string::npos);
}

TEST(IntegrationTest, ThreeVariableDoubleProjection) {
  // exists y exists z (x = y + z and y^2 <= 1 and z^2 <= 4): x in [-3, 3].
  ConstraintDatabase db;
  ASSERT_TRUE(
      db.Define("W(x, y, z) := x = y + z and y^2 <= 1 and z^2 <= 4").ok());
  auto range = db.Query("exists y (exists z (W(x, y, z)))");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_TRUE(range->relation.Contains({R(0)}));
  EXPECT_TRUE(range->relation.Contains({R(3)}));
  EXPECT_TRUE(range->relation.Contains({R(-3)}));
  EXPECT_FALSE(range->relation.Contains({R(31, 10)}));
  EXPECT_FALSE(range->relation.Contains({R(-31, 10)}));
}

TEST(IntegrationTest, FinancialScenarioExactNumbers) {
  // The financial_timeseries example's numbers, asserted exactly.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define(
                    "Bond(t, v) := (0 <= t and t <= 4 and v = 100 + 2*t) or "
                    "(4 <= t and t <= 8 and v = 108 - (t - 4)^2) or "
                    "(8 <= t and t <= 10 and v = 92 + 3*(t - 8))")
                  .ok());
  auto area = db.Query(
      "SURFACE[t, u](exists v (Bond(t, v) and 0 <= u and u <= v))(a)");
  ASSERT_TRUE(area.ok()) << area.status().ToString();
  ASSERT_TRUE(area->scalar.exact);
  // Integral: [0,4]: 400+16=416; [4,8]: 432 - 64/3; [8,10]: 184+6=190.
  // Total = 416 + 432 - 64/3 + 190 = 1038 - 64/3 = 3050/3.
  EXPECT_EQ(area->scalar.exact_value, R(3050, 3));
  auto len = db.Query("LENGTH[t](exists v (Bond(t, v)))(len)");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len->scalar.exact_value, R(10));
  // Time above par: 4 + 2*sqrt(2).
  auto above = db.Query("LENGTH[t](exists v (Bond(t, v) and v >= 100))(len)");
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  EXPECT_NEAR(above->scalar.Value(), 4.0 + 2.0 * std::sqrt(2.0), 1e-6);
  // MIN/MAX of attained values.
  auto max = db.Query("MAX[v](exists t (Bond(t, v)))(m)");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->scalar.exact_value, R(108));
  auto min = db.Query("MIN[v](exists t (Bond(t, v)))(m)");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->scalar.exact_value, R(92));
}

TEST(IntegrationTest, QueryOutputFeedsBackAsRelation) {
  // Closed-form composability across THREE stages.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto stage1 = db.Query("exists y (S(x, y) and y <= 9)");  // x in [1,4]
  ASSERT_TRUE(stage1.ok());
  ASSERT_TRUE(db.Register("Stage1", stage1->relation).ok());
  auto stage2 = db.Query("Stage1(x) and x >= 2");  // [2,4]
  ASSERT_TRUE(stage2.ok());
  ASSERT_TRUE(db.Register("Stage2", stage2->relation).ok());
  auto stage3 = db.Query("LENGTH[x](Stage2(x))(len)");
  ASSERT_TRUE(stage3.ok()) << stage3.status().ToString();
  EXPECT_EQ(stage3->scalar.exact_value, R(2));
}

TEST(IntegrationTest, PersistenceOfDerivedRelations) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto derived = db.Query("exists y (S(x, y) and y <= 0)");
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(db.Register("Answer", derived->relation).ok());
  std::string path = "/tmp/ccdb_integration_catalog.txt";
  ASSERT_TRUE(db.Save(path).ok());
  ConstraintDatabase reloaded;
  ASSERT_TRUE(reloaded.Load(path).ok());
  auto contains = reloaded.Contains("Answer", {R(5, 2)});
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  std::remove(path.c_str());
}

TEST(IntegrationTest, MixedAggregateAndQuantifierQuery) {
  // Does there exist a point of S below the centroid height? Combines an
  // aggregate predicate inside a first-order query.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("Seg(t) := 2 <= t and t <= 6").ok());
  // avg = 4; query: exists t (Seg(t) and t < avg): true.
  auto result = db.Query(
      "exists t (exists m (Seg(t) and AVG[s](Seg(s))(m) and t < m))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->relation.is_empty_syntactically());
  // And the dual with t < min is false.
  auto empty = db.Query(
      "exists t (exists m (Seg(t) and MIN[s](Seg(s))(m) and t < m))");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->relation.is_empty_syntactically());
}

// Performance regression fences: these operations were once exponential
// (content removal missing in the pseudo-remainder sequences; divisor
// enumeration in rational root snapping). Generous wall-clock bounds, but
// they fail loudly if the kernels regress to exponential behaviour.
TEST(IntegrationTest, PerformanceFenceDegree16Kernel) {
  std::mt19937_64 rng(2016);
  std::uniform_int_distribution<std::int64_t> dist(-255, 255);
  std::vector<Rational> coeffs;
  for (int i = 0; i <= 16; ++i) coeffs.emplace_back(BigInt(dist(rng)));
  UPoly p(std::move(coeffs));
  Polynomial poly = p.ToPolynomial(0);

  auto start = std::chrono::steady_clock::now();
  Polynomial g = MvGcd(poly, poly.Derivative(0));
  auto basis = SquarefreeBasis({poly});
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(g.is_constant());
  ASSERT_EQ(basis.size(), 1u);
  EXPECT_LT(seconds, 5.0) << "degree-16 gcd/basis kernel regressed";
}

TEST(IntegrationTest, PerformanceFenceDegree16Solve) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define(
                    "P(x) := x^16 - 3*x^11 + 7*x^6 - x - 120 = 0")
                  .ok());
  auto start = std::chrono::steady_clock::now();
  auto solutions = db.Solve("P(x)", R(1, 1 << 30));
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(solutions.ok()) << solutions.status().ToString();
  EXPECT_GE(solutions->size(), 1u);
  EXPECT_LT(seconds, 10.0) << "degree-16 numerical evaluation regressed";
}

}  // namespace
}  // namespace ccdb
