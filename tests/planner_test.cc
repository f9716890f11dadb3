// Unit tests for the structure-aware query planner (plan/planner.h) and
// the shared fragment classifier (plan/fragment.h): atom/tuple
// classification into the FO(<=) ⊂ FO(<=,+) ⊂ FO(<=,+,*) hierarchy,
// miniscoping of ∃ past non-mentioning conjuncts, independent-component
// splitting, the min-occurrence elimination order, per-fragment engine
// dispatch, the matrix-fragment choice between one whole-matrix node and a
// miniscoped union, and the database-level .plan / EXPLAIN surfaces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/metrics.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "engine/database.h"
#include "plan/fragment.h"
#include "plan/planner.h"
#include "qe/qe.h"

namespace ccdb {
namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

Atom A(const Polynomial& p, RelOp op = RelOp::kLe) { return Atom(p, op); }

// The variables a block or matrix node eliminates, outermost first.
std::vector<int> PrefixVars(const PlanNode& node) {
  std::vector<int> vars;
  for (const PrenexBlock& block : node.prefix) vars.push_back(block.var);
  return vars;
}

// The acceptance query: a union mixing all three fragments.
Formula MixedFragmentQuery() {
  Formula dense =
      Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                   Formula::Compare(Y(), RelOp::kLe, Polynomial(3)));
  Formula linear =
      Formula::And(Formula::Compare(X() + Polynomial(2) * Y(), RelOp::kLe,
                                    Polynomial(4)),
                   Formula::Compare(Polynomial(-1), RelOp::kLe, Y()));
  Formula poly =
      Formula::And(Formula::Compare(X(), RelOp::kLt, Polynomial(5)),
                   Formula::Compare(X() * X() + Y() * Y(), RelOp::kLe,
                                    Polynomial(4)));
  return Formula::Exists(1, Formula::Or({dense, linear, poly}));
}

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
// Plan construction: the matrix-fragment choice, then (on polynomial
// all-existential matrices) miniscoping, component splitting, elimination
// order and dispatch.

TEST(PlanQueryTest, QuantifierFreeInputIsALeaf) {
  QueryPlan plan = PlanQuery(Formula::Compare(X(), RelOp::kLe, Polynomial(1)),
                             1, QeOptions{});
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.root->kind, PlanNode::Kind::kLeaf);
  EXPECT_EQ(plan.blocks, 0u);
  EXPECT_EQ(plan.Summary(), "quantifier_free");
}

TEST(PlanQueryTest, LinearMatrixPlansToOneWholeMatrixNode) {
  // A linear union — even one the planner could miniscope and split — is
  // one whole-matrix Fourier-Motzkin node: the whole-union pass answers
  // without materializing a block per disjunct.
  Formula query = Formula::Exists(
      1, Formula::Or(
             Formula::And(Formula::Compare(X(), RelOp::kLe, Polynomial(3)),
                          Formula::Compare(Y(), RelOp::kLe, X())),
             Formula::Compare(X() + Polynomial(2) * Y(), RelOp::kLe,
                              Polynomial(4))));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kMonolithic);
  EXPECT_TRUE(plan.root->children.empty());
  EXPECT_EQ(plan.root->fragment, Fragment::kLinear);
  EXPECT_EQ(PrefixVars(*plan.root), std::vector<int>({1}));
  EXPECT_EQ(plan.root->tuples.size(), 2u);
  EXPECT_EQ(plan.blocks, 1u);
  EXPECT_EQ(plan.dispatch[1], 1u);
  EXPECT_EQ(plan.miniscope_pushes, 0u);
  EXPECT_EQ(plan.Summary(), "monolithic[fourier_motzkin]");
  EXPECT_NE(
      plan.ToString({"x", "y"}).find("monolithic[fourier_motzkin] exists y"),
      std::string::npos);

  // A dense-order matrix is one node of the dense-order engine.
  Formula dense = Formula::Exists(
      1, Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(3))));
  EXPECT_EQ(PlanQuery(dense, 1, QeOptions{}).Summary(),
            "monolithic[dense_order]");
}

TEST(PlanQueryTest, MiniscopingPushesNonMentioningConjunctsIntoALeaf) {
  // exists y (x <= 3 and y^2 <= x): the x <= 3 conjunct does not mention
  // y, so it must be pushed out of the quantifier scope (∃y(A ∧ B) ≡
  // A ∧ ∃yB when y is not free in A).
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(X(), RelOp::kLe, Polynomial(3)),
                      Formula::Compare(Y() * Y(), RelOp::kLe, X())));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.miniscope_pushes, 1u);
  EXPECT_EQ(plan.blocks, 1u);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kUnion);
  ASSERT_EQ(plan.root->children.size(), 1u);
  const PlanNode& disjunct = *plan.root->children[0];
  ASSERT_EQ(disjunct.kind, PlanNode::Kind::kProduct);
  ASSERT_EQ(disjunct.children.size(), 2u);
  EXPECT_EQ(disjunct.children[0]->kind, PlanNode::Kind::kLeaf);
  EXPECT_EQ(disjunct.children[1]->kind, PlanNode::Kind::kBlock);
  // The block only eliminates y over the atoms that mention it.
  EXPECT_EQ(PrefixVars(*disjunct.children[1]), std::vector<int>({1}));
  EXPECT_EQ(disjunct.children[1]->tuples.size(), 1u);
  EXPECT_EQ(disjunct.children[1]->tuples[0].atoms.size(), 1u);
}

TEST(PlanQueryTest, IndependentVariableComponentsSplitIntoSeparateBlocks) {
  // exists y exists z (y <= x and z^2 <= x): y and z never share an atom,
  // so the block splits into two independent single-variable eliminations
  // (∃y∃z(C1 ∧ C2) ≡ ∃yC1 ∧ ∃zC2 for disjoint supports).
  Formula query = Formula::Exists(
      1, Formula::Exists(
             2, Formula::And(Formula::Compare(Y(), RelOp::kLe, X()),
                             Formula::Compare(Z() * Z(), RelOp::kLe, X()))));
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
    EXPECT_EQ(child->prefix.size(), 1u);
  }
  // Each component is dispatched on its own: y's block stays linear.
  EXPECT_EQ(disjunct.children[0]->fragment, Fragment::kDenseOrder);
  EXPECT_EQ(disjunct.children[1]->fragment, Fragment::kPolynomial);
}

TEST(PlanQueryTest, MinOccurrenceVariableGoesInnermost) {
  // exists y exists z (y <= z and z^2 <= x and 0 <= z): one connected
  // component; z occurs in three atoms, y in one. The executor eliminates
  // innermost-first, so the least-constrained variable (y) must be last in
  // the outermost-first prefix order.
  Formula query = Formula::Exists(
      1, Formula::Exists(
             2, Formula::And({Formula::Compare(Y(), RelOp::kLe, Z()),
                              Formula::Compare(Z() * Z(), RelOp::kLe, X()),
                              Formula::Compare(Polynomial(0), RelOp::kLe,
                                               Z())})));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  EXPECT_EQ(plan.blocks, 1u);
  EXPECT_EQ(plan.component_splits, 0u);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kUnion);
  const PlanNode* block = plan.root->children[0].get();
  ASSERT_EQ(block->kind, PlanNode::Kind::kBlock);
  EXPECT_EQ(PrefixVars(*block), std::vector<int>({2, 1}));  // z out, y in
}

TEST(PlanQueryTest, DispatchClassifiesEachDisjunctIntoItsCheapestEngine) {
  // A three-way union mixing the hierarchy's levels is a polynomial
  // matrix, so it is miniscoped: one block per fragment — dense-order,
  // Fourier-Motzkin, and CAD.
  QueryPlan plan = PlanQuery(MixedFragmentQuery(), 1, QeOptions{});
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

TEST(PlanQueryTest, UniversalPrefixIsOneMatrixNode) {
  Formula query = Formula::Forall(
      1, Formula::Compare(Y() * Y() + X(), RelOp::kGe, Polynomial(0)));
  QueryPlan plan = PlanQuery(query, 1, QeOptions{});
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kMonolithic);
  ASSERT_EQ(plan.root->prefix.size(), 1u);
  EXPECT_FALSE(plan.root->prefix[0].is_exists);
  EXPECT_EQ(plan.Summary(), "monolithic[cad]");
  EXPECT_NE(plan.ToString({"x", "y"}).find("monolithic[cad] forall y"),
            std::string::npos);
}

TEST(PlanQueryTest, DisabledDisjunctSplitKeepsAPolynomialUnionWhole) {
  QeOptions options;
  options.allow_disjunct_split = false;
  QueryPlan plan = PlanQuery(MixedFragmentQuery(), 1, options);
  ASSERT_EQ(plan.root->kind, PlanNode::Kind::kMonolithic);
  EXPECT_EQ(plan.root->tuples.size(), 3u);
  EXPECT_EQ(plan.Summary(), "monolithic[cad]");
}

// ---------------------------------------------------------------------------
// Execution: the plan that runs is the plan reported, and the planner's
// cost advantage.

TEST(PlanExecTest, StatsCarryThePlanThatRan) {
  // A linear matrix runs as one Fourier-Motzkin pass...
  Formula linear = Formula::Exists(
      1, Formula::And(Formula::Compare(Y(), RelOp::kLe, X()),
                      Formula::Compare(Polynomial(0), RelOp::kLe, Y())));
  QeStats linear_stats;
  auto linear_result = EliminateQuantifiers(linear, 1, QeOptions{},
                                            &linear_stats);
  ASSERT_TRUE(linear_result.ok()) << linear_result.status().ToString();
  EXPECT_EQ(linear_stats.plan, "monolithic[dense_order]");
  EXPECT_TRUE(linear_stats.used_linear_path);
  EXPECT_EQ(linear_stats.fm_rounds, 1u);
  EXPECT_EQ(linear_stats.cad_cells, 0u);
  EXPECT_NE(linear_stats.ToString().find("plan={monolithic[dense_order]}"),
            std::string::npos);
  EXPECT_EQ(linear_result->ToString(), "(x0 >= 0)");

  // ...a quantifier-free input is a leaf...
  QeStats leaf_stats;
  ASSERT_TRUE(EliminateQuantifiers(
                  Formula::Compare(X(), RelOp::kLe, Polynomial(1)), 1,
                  QeOptions{}, &leaf_stats)
                  .ok());
  EXPECT_EQ(leaf_stats.plan, "quantifier_free");

  // ...and a defining equation is peeled before the engine runs: the
  // polynomial matrix of exists y (y = x + 1 and y^2 <= 4) is planned
  // into one CAD block, whose peel leaves nothing to eliminate.
  Formula peeled = Formula::Exists(
      1, Formula::And(Formula::Compare(Y(), RelOp::kEq, X() + Polynomial(1)),
                      Formula::Compare(Y() * Y(), RelOp::kLe, Polynomial(4))));
  QeStats peeled_stats;
  auto peeled_result = EliminateQuantifiers(peeled, 1, QeOptions{},
                                            &peeled_stats);
  ASSERT_TRUE(peeled_result.ok()) << peeled_result.status().ToString();
  EXPECT_EQ(peeled_stats.cad_cells, 0u);
  EXPECT_EQ(peeled_stats.plan,
            "union=1 blocks=1 [dense_order=0 fourier_motzkin=0 cad=1] "
            "miniscoped=0 split=0");
}

TEST(PlanExecTest, MixedFragmentQueryPlansFewerCadCellsThanUnsplit) {
  // The planner routes only the genuinely polynomial disjunct through CAD;
  // with the split off, the whole union is one joint CAD.
  QeStats planned_stats;
  auto planned = EliminateQuantifiers(MixedFragmentQuery(), 1, QeOptions{},
                                      &planned_stats);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned_stats.plan,
            "union=3 blocks=3 [dense_order=1 fourier_motzkin=1 cad=1] "
            "miniscoped=1 split=0");
  EXPECT_EQ(planned_stats.cad_cells, 18u);

  QeOptions unsplit_options;
  unsplit_options.allow_disjunct_split = false;
  QeStats unsplit_stats;
  auto unsplit = EliminateQuantifiers(MixedFragmentQuery(), 1,
                                      unsplit_options, &unsplit_stats);
  ASSERT_TRUE(unsplit.ok()) << unsplit.status().ToString();
  EXPECT_EQ(unsplit_stats.plan, "monolithic[cad]");
  EXPECT_LT(planned_stats.cad_cells, unsplit_stats.cad_cells);
  // Same set, different derivations: spot-check membership on a grid.
  for (int num = -16; num <= 16; ++num) {
    Rational x(BigInt(num), BigInt(2));
    EXPECT_EQ(planned->Contains({x}), unsplit->Contains({x})) << num;
  }
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
  auto result = EliminateQuantifiers(query, 1, QeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(executions->value(), executions_before);
  EXPECT_GT(blocks->value(), blocks_before);
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
  auto first = db.Explain(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->profile.from_cache);
  auto second = db.Explain(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->profile.from_cache);
  EXPECT_TRUE(second->profile.qe_rounds.empty())
      << "EXPLAIN carries no QE round trees";
  // The cached result still carries the original evaluation's plan, and
  // the rendering marks both the hit and the plan's provenance.
  EXPECT_EQ(first->result.stats.plan, "monolithic[dense_order]");
  EXPECT_EQ(second->result.stats.plan, first->result.stats.plan);
  EXPECT_NE(second->ToString().find("PLAN                    "
                                    "monolithic[dense_order]  (cached)"),
            std::string::npos);
  EXPECT_NE(second->ToString().find("whole-query cache hit"),
            std::string::npos);
}

}  // namespace
}  // namespace ccdb
