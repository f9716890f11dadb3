#include "datalog/datalog.h"

#include <gtest/gtest.h>

#include "test_pool.h"

namespace ccdb {
namespace {

// DatalogOptions on the test pool (test_pool.h).
DatalogOptions Pooled() {
  DatalogOptions options;
  options.qe.pool = ccdb_test::ProcessPool();
  return options;
}

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial V(int i) { return Polynomial::Var(i); }

// EDB: Edge ⊆ R^2 as a union of constraint boxes/segments.
ConstraintRelation IntervalEdge() {
  // Edge(x, y) := y = x + 1 and 0 <= x and x <= 3  (a "successor" segment).
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-V(0), RelOp::kLe);
  t.atoms.emplace_back(V(0) - Polynomial(3), RelOp::kLe);
  edge.AddTuple(std::move(t));
  return edge;
}

TEST(DatalogTest, TransitiveClosureOfSegment) {
  // Reach(x,y) :- Edge(x,y).
  // Reach(x,y) :- Reach(x,z), Edge(z,y).
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
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", IntervalEdge());

  DatalogStats stats;
  auto result = EvaluateDatalog(program, edb, Pooled(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.reached_fixpoint);
  const ConstraintRelation& reach = result->at("Reach");
  // One hop: (0,1); two hops: (0,2); three: (0,3); four: (0,4).
  EXPECT_TRUE(reach.Contains({R(0), R(1)}));
  EXPECT_TRUE(reach.Contains({R(0), R(2)}));
  EXPECT_TRUE(reach.Contains({R(1, 2), R(5, 2)}));
  EXPECT_TRUE(reach.Contains({R(0), R(4)}));
  // Beyond the reachable band: no.
  EXPECT_FALSE(reach.Contains({R(0), R(5)}));
  EXPECT_FALSE(reach.Contains({R(0), R(0)}));
  // Fixpoint in a handful of rounds (diameter 4).
  EXPECT_LE(stats.iterations, 6);
}

TEST(DatalogTest, ConstraintLiteralInBody) {
  // Positive(x) :- Edge(x, y), x >= 1.
  DatalogProgram program;
  program.idb_arities["P"] = 1;
  DatalogRule rule;
  rule.head = "P";
  rule.head_vars = {0};
  rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
  rule.body.push_back(
      DatalogLiteral::Constraint(Atom(Polynomial(1) - V(0), RelOp::kLe)));
  program.rules.push_back(rule);

  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", IntervalEdge());
  auto result = EvaluateDatalog(program, edb, Pooled());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ConstraintRelation& p = result->at("P");
  EXPECT_TRUE(p.Contains({R(1)}));
  EXPECT_TRUE(p.Contains({R(3)}));
  EXPECT_FALSE(p.Contains({R(1, 2)}));
}

TEST(DatalogTest, InflationaryNegation) {
  // Comp(x) :- 0 <= x, x <= 5, not Seen(x).   (evaluated against the
  // empty Seen at round 1: Comp = [0,5]; Seen never grows.)
  DatalogProgram program;
  program.idb_arities["Comp"] = 1;
  program.idb_arities["Seen"] = 1;
  DatalogRule rule;
  rule.head = "Comp";
  rule.head_vars = {0};
  rule.body.push_back(
      DatalogLiteral::Constraint(Atom(-V(0), RelOp::kLe)));
  rule.body.push_back(
      DatalogLiteral::Constraint(Atom(V(0) - Polynomial(5), RelOp::kLe)));
  rule.body.push_back(DatalogLiteral::Rel("Seen", {0}, /*negated=*/true));
  program.rules.push_back(rule);

  auto result = EvaluateDatalog(program, {}, Pooled());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->at("Comp").Contains({R(2)}));
  EXPECT_FALSE(result->at("Comp").Contains({R(6)}));
  EXPECT_TRUE(result->at("Seen").is_empty_syntactically());
}

TEST(DatalogTest, PrecisionBudgetEnforced) {
  // Doubling rule: D(y) :- D(x), y = 2*x. Starting from D(1), iterates
  // 2, 4, 8, ... — bit length grows linearly per round; a Z_k budget stops
  // it with kUndefined (Theorem 4.7's finite-precision setting).
  DatalogProgram program;
  program.idb_arities["D"] = 1;
  {
    DatalogRule rule;
    rule.head = "D";
    rule.head_vars = {0};
    rule.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0) - Polynomial(1), RelOp::kEq)));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "D";
    rule.head_vars = {0};
    rule.body.push_back(DatalogLiteral::Rel("D", {1}));
    rule.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) - Polynomial(2) * V(1), RelOp::kEq)));
    program.rules.push_back(rule);
  }
  DatalogOptions options = Pooled();
  options.precision_k = 6;  // values up to 63
  options.max_iterations = 100;
  DatalogStats stats;
  auto result = EvaluateDatalog(program, {}, options, &stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUndefined);
  EXPECT_GT(stats.iterations, 2);
  EXPECT_LE(stats.iterations, 10);
}

TEST(DatalogTest, ErrorsOnBadPrograms) {
  DatalogProgram program;
  program.idb_arities["R"] = 1;
  DatalogRule rule;
  rule.head = "Undeclared";
  rule.head_vars = {0};
  program.rules.push_back(rule);
  EXPECT_FALSE(EvaluateDatalog(program, {}, Pooled()).ok());

  DatalogProgram clash;
  clash.idb_arities["E"] = 2;
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("E", ConstraintRelation(2));
  EXPECT_FALSE(EvaluateDatalog(clash, edb, Pooled()).ok());
}

TEST(DatalogTest, GuardedGrowthReachesFixpointWithWidening) {
  // Interval-growing rule bounded by a guard: I(x) :- I(y), x <= y + 1,
  // x <= 10, x >= 0 with I(0) seeded. The fixpoint is [0, 10]; the
  // inflationary iteration converges because the guard caps growth.
  DatalogProgram program;
  program.idb_arities["I"] = 1;
  {
    DatalogRule seed;
    seed.head = "I";
    seed.head_vars = {0};
    seed.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0), RelOp::kEq)));
    program.rules.push_back(seed);
  }
  {
    DatalogRule grow;
    grow.head = "I";
    grow.head_vars = {0};
    grow.body.push_back(DatalogLiteral::Rel("I", {1}));
    grow.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) - V(1) - Polynomial(1), RelOp::kLe)));
    grow.body.push_back(DatalogLiteral::Constraint(Atom(-V(0), RelOp::kLe)));
    grow.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) - Polynomial(10), RelOp::kLe)));
    program.rules.push_back(grow);
  }
  DatalogOptions options = Pooled();
  options.max_iterations = 32;
  DatalogStats stats;
  auto result = EvaluateDatalog(program, {}, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.reached_fixpoint);
  EXPECT_TRUE(result->at("I").Contains({R(10)}));
  EXPECT_TRUE(result->at("I").Contains({R(0)}));
  EXPECT_FALSE(result->at("I").Contains({R(-1)}));
  EXPECT_FALSE(result->at("I").Contains({R(11)}));
}

}  // namespace
}  // namespace ccdb
