#include "engine/database.h"

#include <cmath>

#include "base/logging.h"
#include "base/metrics.h"

#include <gtest/gtest.h>

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

ConstraintDatabase PaperDb() {
  ConstraintDatabase db;
  CCDB_CHECK(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  return db;
}

TEST(DatabaseTest, EndToEndPaperPipeline) {
  // The complete Figure 1 run: instantiate -> QE -> numerical evaluation.
  ConstraintDatabase db = PaperDb();
  auto solutions =
      db.Solve("exists y (S(x, y) and y <= 0)", R(1, 1000000));
  ASSERT_TRUE(solutions.ok()) << solutions.status().ToString();
  ASSERT_EQ(solutions->size(), 1u);
  EXPECT_EQ((*solutions)[0][0], R(5, 2));
}

TEST(DatabaseTest, SurfaceQueryScalar) {
  ConstraintDatabase db = PaperDb();
  auto result = db.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_scalar);
  EXPECT_EQ(result->scalar.exact_value, R(18));
}

TEST(DatabaseTest, NumericSurfaceScalarKeepsItsErrorEstimate) {
  // A disk's area comes from quadrature: the scalar is the module's
  // approximate value with its error estimate, not the dyadic answer
  // relation read back as an exact number.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("D(x, y) := x^2 + y^2 <= 9").ok());
  auto result = db.Query("SURFACE[x, y](D(x, y))(a)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_scalar);
  EXPECT_FALSE(result->scalar.exact);
  EXPECT_GT(result->scalar.error_estimate, 0.0);
  EXPECT_LE(std::abs(result->scalar.Value() - 9.0 * M_PI),
            result->scalar.error_estimate);
  // The paper's area stays exact.
  auto exact = PaperDb().Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->scalar.exact);
  EXPECT_EQ(exact->scalar.exact_value, R(18));
}

TEST(DatabaseTest, NumericVolumeIsOneModuleCallAndKeepsItsErrorEstimate) {
  // VOLUME integrates the one 3-D CAD's z-extents: one module call (no
  // inner SURFACE per quadrature node), and the scalar keeps its error
  // estimate.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("B(x, y, z) := x^2 + y^2 + z^2 <= 1").ok());
  Counter* calls = MetricsRegistry::Global().GetCounter("agg.module_calls");
  std::uint64_t before = calls->value();
  auto result = db.Query("VOLUME[x, y, z](B(x, y, z))(v)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(calls->value() - before, 1u);
  ASSERT_TRUE(result->has_scalar);
  EXPECT_FALSE(result->scalar.exact);
  EXPECT_GT(result->scalar.error_estimate, 0.0);
  EXPECT_LE(std::abs(result->scalar.Value() - 4.0 * M_PI / 3.0),
            result->scalar.error_estimate);
}

TEST(DatabaseTest, RegisterQueryOutput) {
  ConstraintDatabase db = PaperDb();
  auto q = db.Query("exists y (S(x, y) and y <= 0)");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(db.Register("Answer", q->relation).ok());
  auto contains = db.Contains("Answer", {R(5, 2)});
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  auto reuse = db.Query("EVAL[x](Answer(x))(r)");
  ASSERT_TRUE(reuse.ok()) << reuse.status().ToString();
  EXPECT_TRUE(reuse->relation.Contains({R(5, 2)}));
}

TEST(DatabaseTest, FinitePrecisionQuery) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("T(x, y) := 100*x - y <= 0 and y <= 200").ok());
  FpQeStats stats;
  auto generous = db.QueryFp("exists y (T(x, y))", 64, &stats);
  ASSERT_TRUE(generous.ok()) << generous.status().ToString();
  EXPECT_TRUE(stats.defined);
  EXPECT_TRUE(generous->relation.Contains({R(2)}));
  EXPECT_FALSE(generous->relation.Contains({R(3)}));

  auto starved = db.QueryFp("exists y (T(x, y))", 2, &stats);
  EXPECT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kUndefined);
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  ConstraintDatabase db = PaperDb();
  std::string path = "/tmp/ccdb_database_test.txt";
  ASSERT_TRUE(db.Save(path).ok());
  ConstraintDatabase loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  auto result = loaded.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->scalar.exact_value, R(18));
  std::remove(path.c_str());
}

TEST(DatabaseTest, Errors) {
  ConstraintDatabase db = PaperDb();
  EXPECT_FALSE(db.Define("S(x) := x = 0").ok());  // duplicate
  EXPECT_FALSE(db.Drop("Nope").ok());
  EXPECT_FALSE(db.Query("Unknown(x)").ok());
  EXPECT_FALSE(db.Relation("Unknown").ok());
  EXPECT_TRUE(db.Relation("S").ok());
  EXPECT_EQ(db.RelationNames().size(), 1u);
}

TEST(DatabaseTest, InfiniteAnswerSetSolveFails) {
  ConstraintDatabase db = PaperDb();
  auto result = db.Solve("exists y (S(x, y))", R(1, 100));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccdb
