// Unit tests for the structure-aware query planner (plan/planner.h) and
// the shared fragment classifier (plan/fragment.h): atom/tuple
// classification into the FO(<=) ⊂ FO(<=,+) ⊂ FO(<=,+,*) hierarchy,
// miniscoping of ∃ past non-mentioning conjuncts, independent-component
// splitting, the min-occurrence elimination order, per-fragment engine
// dispatch, the CCDB_PLAN / QeOptions::plan toggles, the plan memo cache,
// and the database-level .plan / EXPLAIN surfaces.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/config.h"
#include "base/metrics.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "engine/database.h"
#include "engine/session.h"
#include "plan/fragment.h"
#include "plan/planner.h"
#include "qe/qe.h"

namespace ccdb {
namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

Atom A(const Polynomial& p, RelOp op = RelOp::kLe) { return Atom(p, op); }

// ---------------------------------------------------------------------------
// Fragment classification (the shared linearity/degree helper).

TEST(FragmentTest, DenseOrderAtoms) {
  EXPECT_TRUE(IsDenseOrderAtom(A(X() - Y())));          // x <= y
  EXPECT_TRUE(IsDenseOrderAtom(A(Y() - X(), RelOp::kLt)));
  EXPECT_TRUE(IsDenseOrderAtom(A(X() - Polynomial(3))));  // x <= 3
  EXPECT_TRUE(IsDenseOrderAtom(A(-X() + Polynomial(7), RelOp::kEq)));
  EXPECT_TRUE(IsDenseOrderAtom(A(Polynomial(0))));        // constant atom
}

TEST(FragmentTest, LinearButNotDenseOrderAtoms) {
  // A constant offset on a two-variable difference encodes addition.
  EXPECT_FALSE(IsDenseOrderAtom(A(X() - Y() + Polynomial(1))));
  // Non-unit coefficients encode addition (x + x).
  EXPECT_FALSE(IsDenseOrderAtom(A(Polynomial(2) * X())));
  // Same-sign coefficients (x + y) are not an order comparison.
  EXPECT_FALSE(IsDenseOrderAtom(A(X() + Y())));
  // Three variables cannot be a single comparison.
  EXPECT_FALSE(IsDenseOrderAtom(A(X() + Y() - Z())));
  for (const Atom& atom :
       {A(X() - Y() + Polynomial(1)), A(Polynomial(2) * X()), A(X() + Y()),
        A(X() + Y() - Z())}) {
    EXPECT_TRUE(IsLinearAtom(atom));
    EXPECT_EQ(ClassifyAtom(atom), Fragment::kLinear);
  }
}

TEST(FragmentTest, PolynomialAtoms) {
  EXPECT_FALSE(IsLinearAtom(A(X() * Y())));
  EXPECT_EQ(ClassifyAtom(A(X() * X() - Y())), Fragment::kPolynomial);
  EXPECT_EQ(ClassifyAtom(A(X().Pow(3))), Fragment::kPolynomial);
}

TEST(FragmentTest, TupleAndSystemWidening) {
  EXPECT_EQ(ClassifyTuple(GeneralizedTuple{}), Fragment::kDenseOrder);
  EXPECT_EQ(ClassifyTuples({}), Fragment::kDenseOrder);
  GeneralizedTuple dense({A(X() - Y()), A(X() - Polynomial(1))});
  GeneralizedTuple linear({A(X() - Y()), A(Polynomial(2) * X() + Y())});
  GeneralizedTuple poly({A(X() - Y()), A(X() * X())});
  EXPECT_EQ(ClassifyTuple(dense), Fragment::kDenseOrder);
  EXPECT_EQ(ClassifyTuple(linear), Fragment::kLinear);
  EXPECT_EQ(ClassifyTuple(poly), Fragment::kPolynomial);
  EXPECT_EQ(ClassifyTuples({dense, linear}), Fragment::kLinear);
  EXPECT_EQ(ClassifyTuples({dense, linear, poly}), Fragment::kPolynomial);
}

TEST(FragmentTest, NamesAndWidening) {
  EXPECT_STREQ(FragmentName(Fragment::kDenseOrder), "dense_order");
  EXPECT_STREQ(FragmentName(Fragment::kLinear), "linear");
  EXPECT_STREQ(FragmentName(Fragment::kPolynomial), "polynomial");
  EXPECT_STREQ(FragmentEngine(Fragment::kDenseOrder), "dense_order");
  EXPECT_STREQ(FragmentEngine(Fragment::kLinear), "fourier_motzkin");
  EXPECT_STREQ(FragmentEngine(Fragment::kPolynomial), "cad");
  EXPECT_EQ(WidenFragment(Fragment::kDenseOrder, Fragment::kPolynomial),
            Fragment::kPolynomial);
  EXPECT_EQ(WidenFragment(Fragment::kLinear, Fragment::kDenseOrder),
            Fragment::kLinear);
}

// ---------------------------------------------------------------------------
// Plan construction: miniscoping, component splitting, elimination order,
// dispatch, fallback.

TEST(PlanQueryTest, QuantifierFreeInputIsALeaf) {
  QueryPlan plan = PlanQuery(Formula::Compare(X(), RelOp::kLe, Polynomial(1)),
                             1, QeOptions{});
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.root->kind, PlanNode::Kind::kLeaf);
  EXPECT_EQ(plan.blocks, 0u);
  EXPECT_EQ(plan.Summary(), "quantifier_free");
}

TEST(PlanQueryTest, MiniscopingPushesNonMentioningConjunctsIntoALeaf) {
  // exists y (x <= 3 and y <= x): the x <= 3 conjunct does not mention y,
  // so it must be pushed out of the quantifier scope (∃y(A ∧ B) ≡ A ∧ ∃yB
  // when y is not free in A).
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(X(), RelOp::kLe, Polynomial(3)),
                      Formula::Compare(Y(), RelOp::kLe, X())));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.miniscope_pushes, 1u);
  EXPECT_EQ(plan.blocks, 1u);
  EXPECT_FALSE(plan.fallback);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kUnion);
  ASSERT_EQ(plan.root->children.size(), 1u);
  const PlanNode& disjunct = *plan.root->children[0];
  ASSERT_EQ(disjunct.kind, PlanNode::Kind::kProduct);
  ASSERT_EQ(disjunct.children.size(), 2u);
  EXPECT_EQ(disjunct.children[0]->kind, PlanNode::Kind::kLeaf);
  EXPECT_EQ(disjunct.children[1]->kind, PlanNode::Kind::kBlock);
  // The block only eliminates y over the atoms that mention it.
  EXPECT_EQ(disjunct.children[1]->vars, std::vector<int>({1}));
  EXPECT_EQ(disjunct.children[1]->tuples.size(), 1u);
  EXPECT_EQ(disjunct.children[1]->tuples[0].atoms.size(), 1u);
}

TEST(PlanQueryTest, IndependentVariableComponentsSplitIntoSeparateBlocks) {
  // exists y exists z (y <= x and z <= x): y and z never share an atom, so
  // the block splits into two independent single-variable eliminations
  // (∃y∃z(C1 ∧ C2) ≡ ∃yC1 ∧ ∃zC2 for disjoint supports).
  Formula query = Formula::Exists(
      1, Formula::Exists(
             2, Formula::And(Formula::Compare(Y(), RelOp::kLe, X()),
                             Formula::Compare(Z(), RelOp::kLe, X()))));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.component_splits, 1u);
  EXPECT_EQ(plan.blocks, 2u);
  EXPECT_EQ(plan.miniscope_pushes, 0u);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kUnion);
  ASSERT_EQ(plan.root->children.size(), 1u);
  const PlanNode& disjunct = *plan.root->children[0];
  ASSERT_EQ(disjunct.kind, PlanNode::Kind::kProduct);
  ASSERT_EQ(disjunct.children.size(), 2u);
  for (const auto& child : disjunct.children) {
    EXPECT_EQ(child->kind, PlanNode::Kind::kBlock);
    EXPECT_EQ(child->vars.size(), 1u);
  }
}

TEST(PlanQueryTest, MinOccurrenceVariableGoesInnermost) {
  // exists y exists z (y <= z and z <= x and 0 <= z): one connected
  // component; z occurs in three atoms, y in one. The executor eliminates
  // innermost-first, so the least-constrained variable (y) must be last in
  // the outermost-first `vars` order.
  Formula query = Formula::Exists(
      1, Formula::Exists(
             2, Formula::And({Formula::Compare(Y(), RelOp::kLe, Z()),
                              Formula::Compare(Z(), RelOp::kLe, X()),
                              Formula::Compare(Polynomial(0), RelOp::kLe,
                                               Z())})));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.blocks, 1u);
  EXPECT_EQ(plan.component_splits, 0u);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kUnion);
  const PlanNode* block = plan.root->children[0].get();
  ASSERT_EQ(block->kind, PlanNode::Kind::kBlock);
  EXPECT_EQ(block->vars, std::vector<int>({2, 1}));  // z outermost, y inner
}

TEST(PlanQueryTest, DispatchClassifiesEachDisjunctIntoItsCheapestEngine) {
  // A three-way union mixing the hierarchy's levels plans to one block per
  // fragment: dense-order, Fourier-Motzkin, and CAD.
  Formula dense = Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                               Formula::Compare(Y(), RelOp::kLe, Polynomial(3)));
  Formula linear =
      Formula::And(Formula::Compare(X() + Polynomial(2) * Y(), RelOp::kLe,
                                    Polynomial(4)),
                   Formula::Compare(Polynomial(-1), RelOp::kLe, Y()));
  Formula poly =
      Formula::And(Formula::Compare(X(), RelOp::kLt, Polynomial(5)),
                   Formula::Compare(X() * X() + Y() * Y(), RelOp::kLe,
                                    Polynomial(4)));
  Formula query = Formula::Exists(1, Formula::Or({dense, linear, poly}));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.blocks, 3u);
  EXPECT_EQ(plan.dispatch[0], 1u);  // dense order
  EXPECT_EQ(plan.dispatch[1], 1u);  // Fourier-Motzkin
  EXPECT_EQ(plan.dispatch[2], 1u);  // CAD
  EXPECT_EQ(plan.Summary(),
            "union=3 blocks=3 [dense_order=1 fourier_motzkin=1 cad=1] "
            "miniscoped=1 split=0");
  // The tree rendering names the engines and the quantified variable.
  std::string tree = plan.ToString({"x", "y"});
  EXPECT_NE(tree.find("plan ("), std::string::npos);
  EXPECT_NE(tree.find("dense_order"), std::string::npos);
  EXPECT_NE(tree.find("fourier_motzkin"), std::string::npos);
  EXPECT_NE(tree.find("cad"), std::string::npos);
  EXPECT_NE(tree.find("exists y"), std::string::npos);
}

TEST(PlanQueryTest, DisabledLinearFastPathForcesCadDispatch) {
  QeOptions options;
  options.allow_linear_fast_path = false;
  Formula query = Formula::Exists(1, Formula::Compare(Y(), RelOp::kLe, X()));
  QueryPlan plan = PlanQuery(query, 1, options);
  EXPECT_EQ(plan.dispatch[0], 0u);
  EXPECT_EQ(plan.dispatch[2], 1u);
}

TEST(PlanQueryTest, UniversalPrefixFallsBackToMonolithic) {
  Formula query = Formula::Forall(
      1, Formula::Compare(Y() * Y() + X(), RelOp::kGe, Polynomial(0)));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_TRUE(plan.fallback);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kMonolithic);
  EXPECT_EQ(plan.Summary().rfind("monolithic", 0), 0u);
}

TEST(PlanQueryTest, DisabledDisjunctSplitFallsBackOnMultiDisjunctInputs) {
  QeOptions options;
  options.allow_disjunct_split = false;
  Formula query = Formula::Exists(
      1, Formula::Or(Formula::Compare(Y(), RelOp::kLe, X()),
                     Formula::Compare(X(), RelOp::kLe, Y())));
  QueryPlan plan = PlanQuery(query, 1, options);
  EXPECT_TRUE(plan.fallback);
}

// ---------------------------------------------------------------------------
// Execution: toggles, byte identity, and the planner's cost advantage.

TEST(PlanExecTest, PerCallToggleOverridesTheProcessConfig) {
  QeOptions on, off, follow;
  on.plan = PlanToggle::kOn;
  off.plan = PlanToggle::kOff;
  EXPECT_TRUE(PlannerResolved(on));  // per-call force wins
  EXPECT_FALSE(PlannerResolved(off));
  // kAuto outside any session follows the process config (CCDB_PLAN).
  EXPECT_EQ(PlannerResolved(follow), EngineConfig::Process().plan);

  // A session resolves kAuto from its own config, both ways...
  ConstraintDatabase db;
  for (bool plan : {false, true}) {
    std::unique_ptr<Session> session =
        db.OpenSession(EngineConfig::Process().WithPlan(plan));
    EXPECT_EQ(PlannerResolved(session->options().qe), plan);
  }
  // ...and an explicit database option wins over the session config.
  CalcFOptions forced;
  forced.qe.plan = PlanToggle::kOff;
  ConstraintDatabase forced_db(forced);
  std::unique_ptr<Session> session =
      forced_db.OpenSession(EngineConfig::Process().WithPlan(true));
  EXPECT_FALSE(PlannerResolved(session->options().qe));
}

TEST(PlanExecTest, StatsCarryThePlanOnlyOnThePlannedPath) {
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(Y(), RelOp::kLe, X()),
                      Formula::Compare(Polynomial(0), RelOp::kLe, Y())));
  QeOptions options;
  options.plan = PlanToggle::kOn;
  QeStats planned_stats;
  auto planned = EliminateQuantifiers(query, 1, options, &planned_stats);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_FALSE(planned_stats.plan.empty());
  EXPECT_NE(planned_stats.ToString().find("plan={"), std::string::npos);

  options.plan = PlanToggle::kOff;
  QeStats monolithic_stats;
  auto monolithic = EliminateQuantifiers(query, 1, options, &monolithic_stats);
  ASSERT_TRUE(monolithic.ok()) << monolithic.status().ToString();
  EXPECT_TRUE(monolithic_stats.plan.empty());

  EXPECT_EQ(planned->ToString(), monolithic->ToString());
}

TEST(PlanExecTest, MixedFragmentQueryPlansFewerCadCellsThanMonolithic) {
  // The acceptance query: a union mixing all three fragments. The planner
  // must route only the genuinely polynomial disjunct through CAD, so its
  // cad_cells count is strictly below the monolithic run's — with byte-
  // identical answers.
  Formula dense = Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                               Formula::Compare(Y(), RelOp::kLe, Polynomial(3)));
  Formula linear =
      Formula::And(Formula::Compare(X() + Polynomial(2) * Y(), RelOp::kLe,
                                    Polynomial(4)),
                   Formula::Compare(Polynomial(-1), RelOp::kLe, Y()));
  Formula poly =
      Formula::And(Formula::Compare(X(), RelOp::kLt, Polynomial(5)),
                   Formula::Compare(X() * X() + Y() * Y(), RelOp::kLe,
                                    Polynomial(4)));
  Formula query = Formula::Exists(1, Formula::Or({dense, linear, poly}));

  QeOptions options;
  options.plan = PlanToggle::kOff;
  QeStats monolithic_stats;
  auto monolithic = EliminateQuantifiers(query, 1, options, &monolithic_stats);
  ASSERT_TRUE(monolithic.ok()) << monolithic.status().ToString();

  options.plan = PlanToggle::kOn;
  QeStats planned_stats;
  auto planned = EliminateQuantifiers(query, 1, options, &planned_stats);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();

  EXPECT_EQ(planned->ToString(), monolithic->ToString());
  EXPECT_LT(planned_stats.cad_cells, monolithic_stats.cad_cells);
}

TEST(PlanExecTest, ExecutionFoldsPlanCountersIntoTheMetricsRegistry) {
  Counter* executions =
      MetricsRegistry::Global().GetCounter("qe.plan.executions");
  Counter* blocks = MetricsRegistry::Global().GetCounter("qe.plan.blocks");
  const std::uint64_t executions_before = executions->value();
  const std::uint64_t blocks_before = blocks->value();
  Formula query = Formula::Exists(
      1, Formula::Or(Formula::Compare(Y(), RelOp::kLe, X()),
                     Formula::Compare(X(), RelOp::kLe, Y())));
  QeOptions options;
  options.plan = PlanToggle::kOn;
  auto result = EliminateQuantifiers(query, 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(executions->value(), executions_before);
  EXPECT_GT(blocks->value(), blocks_before);
}

TEST(PlanCacheTest, RepeatedPlanningHitsTheMemo) {
  // A formula unlikely to be planned elsewhere in the suite: distinctive
  // constants keep the first build a miss, the second a hit.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(Y(), RelOp::kLe,
                                       X() + Polynomial(7919)),
                      Formula::Compare(Polynomial(6311), RelOp::kLe, Y())));
  Counter* hits = MetricsRegistry::Global().GetCounter("plan_cache_hits");
  const std::uint64_t hits_before = hits->value();
  // Memo forced on, so the CCDB_QE_CACHE=0 leg runs this too.
  QeOptions options;
  options.memo = PlanToggle::kOn;
  QueryPlan first = GetOrBuildPlan(query, 1, options);
  QueryPlan second = GetOrBuildPlan(query, 1, options);
  EXPECT_GT(hits->value(), hits_before);
  EXPECT_EQ(first.Summary(), second.Summary());
  EXPECT_EQ(first.ToString(), second.ToString());
}

// ---------------------------------------------------------------------------
// Database surfaces: .plan and EXPLAIN.

TEST(DatabasePlanTest, PlanRendersTheTreeWithoutExecuting) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x <= y and y <= 3").ok());
  auto plan = db.Plan("exists y (S(x, y) and 0 <= x)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->rfind("plan (", 0), 0u);
  EXPECT_NE(plan->find("exists"), std::string::npos);
  EXPECT_NE(plan->find("x"), std::string::npos);
}

TEST(DatabasePlanTest, AggregateQueriesAreNotPlannable) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto plan = db.Plan("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  EXPECT_FALSE(plan.ok());
}

TEST(DatabasePlanTest, ExplainReportsTheCachedPlanOnAWholeQueryCacheHit) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("T(x, y) := x <= y and y <= 5").ok());
  const std::string query = "exists y (T(x, y) and 1 <= x)";
  // Memo forced on, so the CCDB_QE_CACHE=0 leg runs this too.
  std::unique_ptr<Session> session =
      db.OpenSession(EngineConfig::Process().WithQeCache(true));
  auto first = session->Explain(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->profile.from_cache);
  auto second = session->Explain(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->profile.from_cache);
  EXPECT_TRUE(second->profile.qe_rounds.empty())
      << "EXPLAIN carries no QE round trees";
  // The cached result still carries the original evaluation's plan, and
  // the rendering marks both the hit and the plan's provenance.
  EXPECT_EQ(second->result.stats.plan, first->result.stats.plan);
  if (!second->result.stats.plan.empty()) {
    EXPECT_NE(second->ToString().find("PLAN"), std::string::npos);
    EXPECT_NE(second->ToString().find("(cached)"), std::string::npos);
  }
  EXPECT_NE(second->ToString().find("whole-query cache hit"),
            std::string::npos);
}

}  // namespace
}  // namespace ccdb
