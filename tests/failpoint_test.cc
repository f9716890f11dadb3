#include "base/failpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/query_log.h"
#include "base/status.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "engine/session.h"
#include "test_pool.h"

namespace ccdb {
namespace {

class FailpointRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().ClearAll(); }
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }
};

TEST_F(FailpointRegistryTest, ConfigureParsesMultipleEntries) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("cad.lift=error@3,qe.drive=exhaust").ok());
  std::vector<std::string> armed = reg.ArmedSites();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_NE(std::find(armed.begin(), armed.end(), "cad.lift"), armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "qe.drive"), armed.end());
}

TEST_F(FailpointRegistryTest, ConfigureRejectsMalformedSpecs) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  EXPECT_EQ(reg.Configure("cad.lift").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("site=bogus").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("site=error@zero").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Configure("=error").code(), StatusCode::kInvalidArgument);
  // Nothing armed from any bad spec.
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST_F(FailpointRegistryTest, KindsMapToStatusCodes) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("a=error,b=exhaust,c=undefined,d=numfail").ok());
  EXPECT_EQ(reg.Hit("a").code(), StatusCode::kInternal);
  EXPECT_EQ(reg.Hit("b").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(reg.Hit("c").code(), StatusCode::kUndefined);
  EXPECT_EQ(reg.Hit("d").code(), StatusCode::kNumericalFailure);
}

TEST_F(FailpointRegistryTest, FiresOnNthHitExactlyOnce) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.Set("site", FailpointSpec{FailpointSpec::Kind::kError, 3});
  EXPECT_TRUE(reg.Hit("site").ok());
  EXPECT_TRUE(reg.Hit("site").ok());
  EXPECT_EQ(reg.Hit("site").code(), StatusCode::kInternal);  // 3rd hit fires
  EXPECT_TRUE(reg.Hit("site").ok());  // one-shot: disarmed after firing
  EXPECT_EQ(reg.HitCount("site"), 4u);
}

TEST_F(FailpointRegistryTest, HitCountsUnarmedSites) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  EXPECT_TRUE(reg.Hit("never.armed").ok());
  EXPECT_TRUE(reg.Hit("never.armed").ok());
  EXPECT_EQ(reg.HitCount("never.armed"), 2u);
  EXPECT_EQ(reg.HitCount("never.passed"), 0u);
}

TEST_F(FailpointRegistryTest, ClearDisarmsButKeepsCount) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.Set("site", FailpointSpec{FailpointSpec::Kind::kError, 1});
  reg.Clear("site");
  EXPECT_TRUE(reg.Hit("site").ok());
  EXPECT_EQ(reg.HitCount("site"), 1u);
  EXPECT_TRUE(reg.ArmedSites().empty());
}

// Fault injection through the full engine: every planted site must surface
// the injected status as a clean error — never a crash, never a half-built
// relation in the catalog.

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

ConstraintDatabase PaperDb() {
  ConstraintDatabase db;
  EXPECT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  EXPECT_TRUE(db.Define("L(x, y) := x + y <= 4 and 0 <= x and 0 <= y").ok());
  return db;
}

class FailpointInjectionTest : public FailpointRegistryTest {};

void ExpectInjected(const ConstraintDatabase& db, const std::string& site,
                    const std::string& query) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.ClearAll();
  ASSERT_TRUE(reg.Configure(site + "=error@1").ok());
  auto result = db.Query(query);
  ASSERT_FALSE(result.ok()) << site << " did not fire for: " << query;
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << site;
  EXPECT_GE(reg.HitCount(site), 1u) << site;
  // The engine recovered: the same query succeeds once the site is inert.
  reg.ClearAll();
  auto retry = db.Query(query);
  EXPECT_TRUE(retry.ok()) << site << ": " << retry.status().ToString();
}

TEST_F(FailpointInjectionTest, CatalogAddNeverLeaksHalfBuiltRelation) {
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("catalog.add=error@1").ok());
  Status status = db.Define("T(x) := x <= 1");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_FALSE(db.catalog().HasRelation("T"));
  // The failed definition left the database fully usable.
  FailpointRegistry::Global().ClearAll();
  EXPECT_TRUE(db.Define("T(x) := x <= 1").ok());
  EXPECT_TRUE(db.catalog().HasRelation("T"));
}

TEST_F(FailpointInjectionTest, QeDriver) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "qe.drive", "exists y (S(x, y) and y <= 0)");
}

TEST_F(FailpointInjectionTest, FourierMotzkin) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "qe.fm", "exists y (L(x, y))");
}

TEST_F(FailpointInjectionTest, CadProjection) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "cad.project", "exists y (S(x, y) and y <= 0)");
}

TEST_F(FailpointInjectionTest, CadBase) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "cad.base", "exists y (S(x, y) and y <= 0)");
}

TEST_F(FailpointInjectionTest, CadLift) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "cad.lift", "exists y (S(x, y) and y <= 0)");
}

TEST_F(FailpointInjectionTest, CalcFInstantiation) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "calcf.instantiate", "exists y (S(x, y) and y <= 0)");
}

TEST_F(FailpointInjectionTest, CalcFAggregate) {
  ConstraintDatabase db = PaperDb();
  ExpectInjected(db, "calcf.aggregate", "LENGTH[x](L(x, 0))(z)");
}

TEST_F(FailpointInjectionTest, NumericQuadrature) {
  // The unit disc's slice bounds are sqrt graphs, not polynomials, so
  // SURFACE must take the Gauss–Legendre quadrature path (the parabola
  // region integrates exactly and would never reach the failpoint).
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(db.Define("C(x, y) := x^2 + y^2 - 1 <= 0").ok());
  ExpectInjected(db, "numeric.quadrature", "SURFACE[x, y](C(x, y))(z)");
}

TEST_F(FailpointInjectionTest, NumericQuadratureThroughVolume) {
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(db.Define("B(x, y, z) := x^2 + y^2 + z^2 <= 1").ok());
  const std::string query = "VOLUME[x, y, z](B(x, y, z))(v)";
  ExpectInjected(db, "numeric.quadrature", query);
  // The second pass is the inner y-rule at the first x node: the outer
  // rule passes again only after all its nodes are measured.
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("numeric.quadrature=error@2").ok());
  auto result = db.Query(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  reg.ClearAll();
}

TEST_F(FailpointInjectionTest, NumericEvalThroughSolve) {
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("numeric.eval=error@1").ok());
  auto solutions = db.Solve("exists y (S(x, y) and y <= 0)", R(1, 1000000));
  ASSERT_FALSE(solutions.ok());
  EXPECT_EQ(solutions.status().code(), StatusCode::kInternal);
  FailpointRegistry::Global().ClearAll();
  auto retry = db.Solve("exists y (S(x, y) and y <= 0)", R(1, 1000000));
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FailpointInjectionTest, NumericEvalThroughExplainAnalyzeIsLogged) {
  // QE succeeds, then NUMERICAL EVALUATION fails: EXPLAIN ANALYZE still
  // writes exactly one query-log record, marked failed.
  ConstraintDatabase db = PaperDb();
  const std::string path =
      testing::TempDir() + "/ccdb_failpoint_explain_analyze.jsonl";
  std::remove(path.c_str());
  QueryLog log;
  ASSERT_TRUE(log.Enable(path).ok());
  std::unique_ptr<Session> session = db.OpenSession();
  session->SetQueryLog(&log);
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("numeric.eval=error@1").ok());
  auto analyzed = session->ExplainAnalyze("exists y (S(x, y) and y <= 0)");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kInternal);
  log.Disable();

  std::ifstream in(path);
  int records = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"explain_analyze\"") == std::string::npos) {
      continue;
    }
    ++records;
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
  }
  EXPECT_EQ(records, 1);
  std::remove(path.c_str());
}

TEST_F(FailpointInjectionTest, DatalogIteration) {
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  DatalogRule base;
  base.head = "Reach";
  base.head_vars = {0, 1};
  base.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
  program.rules.push_back(base);

  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(Polynomial::Var(1) - Polynomial::Var(0) -
                           Polynomial(1),
                       RelOp::kEq);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", edge);

  DatalogOptions options;
  options.qe.pool = ccdb_test::ProcessPool();
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("datalog.iteration=error@1").ok());
  auto result = EvaluateDatalog(program, edb, options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  FailpointRegistry::Global().ClearAll();
  auto retry = EvaluateDatalog(program, edb, options, nullptr);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FailpointInjectionTest, InjectedExhaustionEndsTheGovernedCall) {
  // An exhaust injection makes the one governed attempt fail with
  // kResourceExhausted: there is no retry. The one-shot site is inert
  // afterwards, so the next call answers.
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(FailpointRegistry::Global().Configure("qe.fm=exhaust@1").ok());
  auto exhausted = db.QueryWithPolicy("exists y (L(x, y))", QueryPolicy{});
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted)
      << exhausted.status().ToString();
  auto next = db.QueryWithPolicy("exists y (L(x, y))", QueryPolicy{});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next->relation.is_empty_syntactically());
}

TEST_F(FailpointInjectionTest, UndefinedInjectionIsNotRetried) {
  // kUndefined is a semantic outcome; the governed call reports it as is.
  ConstraintDatabase db = PaperDb();
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("qe.drive=undefined@1").ok());
  auto result = db.QueryWithPolicy("exists y (L(x, y))", QueryPolicy{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUndefined);
}

}  // namespace
}  // namespace ccdb
