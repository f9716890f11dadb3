#include <atomic>
#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "base/resource.h"
#include "base/status.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "test_pool.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

// A CAD stress query: nested quantifiers over degree-4 trivariate
// polynomials with cross terms. Ungoverned, this decomposition grinds for
// a very long time (the doubly exponential blowup the paper warns about).
ConstraintDatabase BlowupDb() {
  ConstraintDatabase db;
  EXPECT_TRUE(db.Define("B(x, y, z) := x^4 + y^4 + z^4 + x*y*z - 1 <= 0 and "
                        "x^2*y^2 - z^3 + x - y <= 0")
                  .ok());
  return db;
}

constexpr const char kBlowupQuery[] =
    "exists y (exists z (B(x, y, z) and x^2 + y^2 + z^2 - 4 <= 0))";

TEST(GovernorIntegrationTest, CadBlowupRespectsDeadline) {
  ConstraintDatabase db = BlowupDb();
  std::vector<std::string> names_before = db.RelationNames();

  constexpr double kDeadline = 0.5;
  QueryPolicy policy;
  policy.limits = ResourceLimits::Deadline(kDeadline);

  auto start = std::chrono::steady_clock::now();
  auto result = db.QueryWithPolicy(kBlowupQuery, policy);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("reason=deadline"),
            std::string::npos)
      << result.status().ToString();
  // The acceptance bound: one governor spans the whole call, and
  // cooperative checks at every loop head must stop it within 2x the
  // deadline even mid-decomposition.
  EXPECT_LT(elapsed, 2 * kDeadline) << "governor reacted too slowly";
  // The failed query left the catalog untouched and the engine healthy.
  EXPECT_EQ(db.RelationNames(), names_before);
  auto sane = db.Query("B(x, y, z)");
  ASSERT_TRUE(sane.ok()) << sane.status().ToString();
  EXPECT_FALSE(sane->relation.is_empty_syntactically());
}

TEST(GovernorIntegrationTest, StepBudgetStopsCad) {
  ConstraintDatabase db = BlowupDb();
  QueryPolicy policy;
  policy.limits = ResourceLimits::Steps(200);
  auto result = db.QueryWithPolicy(kBlowupQuery, policy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("reason=steps"), std::string::npos)
      << result.status().ToString();
}

TEST(GovernorIntegrationTest, ByteBudgetStopsCad) {
  ConstraintDatabase db = BlowupDb();
  QueryPolicy policy;
  policy.limits = ResourceLimits::Bytes(16 * 1024);
  auto result = db.QueryWithPolicy(kBlowupQuery, policy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("bytes"), std::string::npos)
      << result.status().ToString();
}

TEST(GovernorIntegrationTest, NegatedWindowDnfRespectsDeadline) {
  // not exists x y (P(id, x, y) and <window>) over two unit rectangles:
  // the negated matrix normalizes to 27 disjuncts, and the universal
  // quantifiers go through the DNF of their negation, a product that grows
  // exponentially with the disjuncts. Ungoverned it runs for tens of
  // seconds (or out of memory); every disjunct the product builds charges
  // the governor, so the read stops at its deadline.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("P(id, x, y) := (id = 1 and x >= 0 and x <= 1 and "
                        "y >= 0 and y <= 1) or (id = 2 and x >= 2 and "
                        "x <= 3 and y >= 0 and y <= 1)")
                  .ok());
  constexpr double kDeadline = 0.5;
  QueryPolicy policy;
  policy.limits = ResourceLimits::Deadline(kDeadline);
  auto start = std::chrono::steady_clock::now();
  auto result = db.QueryWithPolicy(
      "not exists x y (P(id, x, y) and x >= 0 and x <= 100 and y >= 0 and "
      "y <= 100)",
      policy);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("reason=deadline"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_LT(elapsed, 2 * kDeadline) << "governor reacted too slowly";
}

TEST(GovernorIntegrationTest, UnlimitedPolicyAnswers) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto result =
      db.QueryWithPolicy("exists y (S(x, y) and y <= 0)", QueryPolicy{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relation.Contains({R(5, 2)}));
}

TEST(GovernorIntegrationTest, StarvedCallStopsAtItsFirstTrip) {
  // A nonlinear query under a starvation budget makes one attempt: the
  // answer is the governor's first trip, inside the CAD pipeline — never a
  // refusal from some later, cheaper attempt.
  ConstraintDatabase db = BlowupDb();
  QueryPolicy policy;
  policy.limits = ResourceLimits::Steps(50);
  auto result = db.QueryWithPolicy(kBlowupQuery, policy);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const std::string& message = result.status().message();
  EXPECT_TRUE(message.find("stage=cad.") != std::string::npos ||
              message.find("stage=poly.") != std::string::npos ||
              message.find("stage=qe.") != std::string::npos)
      << result.status().ToString();
  // The budget ran out; no attempt refused the query for its fragment.
  EXPECT_NE(message.find("reason=steps"), std::string::npos)
      << result.status().ToString();
}

TEST(GovernorIntegrationTest, CancelledCallStopsAtOnce) {
  ConstraintDatabase db = BlowupDb();
  std::atomic<bool> cancel{true};  // cancelled before the query even starts
  QueryPolicy policy;
  policy.cancel = &cancel;
  auto start = std::chrono::steady_clock::now();
  auto result = db.QueryWithPolicy(kBlowupQuery, policy);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("cancelled"), std::string::npos)
      << result.status().ToString();
  // The blowup query runs for minutes ungoverned; a pre-set flag stops it
  // at the first budget check.
  EXPECT_LT(elapsed, 1.0);
}

TEST(GovernorIntegrationTest, GovernedQueryIsRepeatable) {
  // Exhaustion must not poison later queries: each call arms its own
  // governor.
  ConstraintDatabase db = BlowupDb();
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  QueryPolicy starved;
  starved.limits = ResourceLimits::Steps(50);
  ASSERT_FALSE(db.QueryWithPolicy(kBlowupQuery, starved).ok());
  auto healthy =
      db.QueryWithPolicy("exists y (S(x, y) and y <= 0)", QueryPolicy{});
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(healthy->relation.Contains({R(5, 2)}));
}

TEST(GovernorIntegrationTest, StepBudgetReachesVolumeInnerRule) {
  // The ball's CAD charges fewer than 200 steps and the outer x-rule one
  // per node; every y-node of the inner rules charges too, so 400 steps
  // run out inside the quadrature. The next, unlimited call answers.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("B(x, y, z) := x^2 + y^2 + z^2 <= 1").ok());
  const std::string query = "VOLUME[x, y, z](B(x, y, z))(v)";
  QueryPolicy starved;
  starved.limits = ResourceLimits::Steps(400);
  auto result = db.QueryWithPolicy(query, starved);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const std::string& message = result.status().message();
  EXPECT_TRUE(message.find("stage=numeric.quadrature") != std::string::npos ||
              message.find("stage=cad.") != std::string::npos)
      << result.status().ToString();
  auto healthy = db.QueryWithPolicy(query, QueryPolicy{});
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_NEAR(healthy->scalar.Value(), 4.0 * M_PI / 3.0, 1e-4);
}

TEST(GovernorIntegrationTest, GovernedDatalogFixpointStops) {
  // An ever-growing fixpoint (transitive closure of an unbounded successor
  // band) under a step budget: the datalog driver must stop cooperatively
  // instead of materializing 64 iterations of growing relations.
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
    program.rules.push_back(rule);
  }
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(
      Polynomial::Var(1) - Polynomial::Var(0) - Polynomial(1), RelOp::kEq);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", std::move(edge));

  ResourceGovernor gov(ResourceLimits::Steps(60));
  DatalogOptions options;
  options.qe.governor = &gov;
  options.qe.pool = ccdb_test::ProcessPool();
  auto result = EvaluateDatalog(program, edb, options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gov.exhausted());
}

TEST(GovernorIntegrationTest, BoundedChainTripsInTheDatalogStage) {
  // A bounded chain of diameter 48: the fixpoint exists, but reaching it
  // takes 49 rounds whose merges test every derived tuple against the
  // growing closure. A small step budget must stop it inside the fixpoint's
  // own loops, and the verdict must name a datalog stage.
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
    program.rules.push_back(rule);
  }
  constexpr int kDiameter = 48;
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(
      Polynomial::Var(1) - Polynomial::Var(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-Polynomial::Var(0), RelOp::kLe);
  t.atoms.emplace_back(Polynomial::Var(0) - Polynomial(kDiameter - 1),
                       RelOp::kLe);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", std::move(edge));

  ResourceGovernor gov(ResourceLimits::Steps(200));
  DatalogOptions options;
  options.max_iterations = kDiameter + 8;
  options.qe.governor = &gov;
  options.qe.pool = ccdb_test::ProcessPool();
  DatalogStats stats;
  auto result = EvaluateDatalog(program, edb, options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.tripped_stage().rfind("datalog.", 0), 0u)
      << "tripped in " << gov.tripped_stage();
  EXPECT_LT(stats.iterations, kDiameter + 1);
}

}  // namespace
}  // namespace ccdb
