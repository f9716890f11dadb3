#ifndef CCDB_PLAN_PLANNER_H_
#define CCDB_PLAN_PLANNER_H_

/// The structure-aware query planner: the PLAN step of the refactored
/// pipeline parser → lower → plan → execute.
///
/// The paper's hierarchy FO(<=) ⊂ FO(<=,+) ⊂ FO(<=,+,×) (Proposition 4.6)
/// means real queries mix fragments with wildly different elimination
/// costs. Instead of running one globally-chosen strategy over the whole
/// formula, the planner
///
///   (a) CLASSIFIES every atom and quantifier block into its cheapest
///       fragment (plan/fragment.h) using the hash-consed IR's cached
///       free-variable sets;
///   (b) REWRITES before elimination: miniscoping (∃ distributes over ∨
///       and pushes past conjuncts that do not mention the quantified
///       variables) and splitting a block into independent variable
///       components (connected components of the variable–atom incidence
///       graph), plus cheap-first variable elimination ordering inside a
///       block (min-occurrence heuristic, least-constrained variable
///       innermost);
///   (c) DISPATCHES each block to the matching engine — dense-order
///       elimination for order-only blocks, Fourier-Motzkin for linear
///       blocks, CAD only for genuinely polynomial residue.
///
/// Soundness of the rewrites (DESIGN.md §10): ∃ȳ(D1 ∨ ... ∨ Dm) ≡
/// ∃ȳD1 ∨ ... ∨ ∃ȳDm (miniscoping over ∨); ∃y(A ∧ B) ≡ A ∧ ∃yB when y is
/// not free in A (miniscoping over ∧); and when a conjunction partitions
/// into C1 ∧ C2 with disjoint quantified-variable supports,
/// ∃ȳ1ȳ2(C1 ∧ C2) ≡ ∃ȳ1C1 ∧ ∃ȳ2C2 (component split). All three preserve
/// the denoted set exactly; only the syntactic derivation changes.
///
/// The executor delegates every block to the SAME elimination primitives
/// the monolithic driver uses (equation-substitution peel, dense-order /
/// Fourier-Motzkin rounds, the public CAD driver with planning forced
/// off), and the public EliminateQuantifiers entry point sorts the final
/// union of canonicalized disjuncts, so answers are byte-identical at
/// every thread count and — on inputs where both paths route each
/// sub-problem through the same primitive sequence (in particular the
/// disequality-free single-variable corpus of the differential tests) —
/// byte-identical with the planner on and off.

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "plan/fragment.h"
#include "qe/qe.h"

namespace ccdb {

struct ProfileNode;

/// Resolves options.plan: kOn/kOff force the planner; kAuto follows
/// EngineConfig::Process().plan (the CCDB_PLAN knob). Sessions resolve
/// kAuto from their own config before a call gets here.
bool PlannerResolved(const QeOptions& options);

/// One node of the plan IR. Immutable once built; shared between the plan
/// cache and every consumer.
struct PlanNode {
  enum class Kind {
    /// Quantifier-free residue over the free variables (atoms miniscoping
    /// pushed out of every quantifier scope). `tuples` holds the residue.
    kLeaf,
    /// Eliminate `vars` (prefix order, outermost first) from the single
    /// conjunction in `tuples` with `fragment`'s engine.
    kBlock,
    /// Conjunction of independent children (disjoint quantified-variable
    /// supports); results recombine by cartesian product in child order.
    kProduct,
    /// Disjunction of children (∃ miniscoped over ∨); results concatenate
    /// in child order.
    kUnion,
    /// Fallback: hand `formula` to the monolithic driver unchanged (mixed
    /// ∀/∃ prefixes, disabled disjunct split, degenerate inputs).
    kMonolithic,
  };
  Kind kind = Kind::kLeaf;
  Fragment fragment = Fragment::kDenseOrder;
  std::vector<int> vars;                 // kBlock: outermost first
  std::vector<GeneralizedTuple> tuples;  // kLeaf residue / kBlock matrix
  Formula formula = Formula::True();     // kMonolithic input
  std::vector<std::shared_ptr<const PlanNode>> children;
};

/// A built plan plus its rewrite/dispatch summary counters.
struct QueryPlan {
  std::shared_ptr<const PlanNode> root;
  int num_free_vars = 0;
  std::size_t blocks = 0;            // elimination blocks dispatched
  std::size_t miniscope_pushes = 0;  // scopes narrowed by miniscoping
  std::size_t component_splits = 0;  // disjuncts split into >1 block
  std::size_t dispatch[3] = {0, 0, 0};  // block count per Fragment
  bool fallback = false;                // kMonolithic root

  /// One-line summary, e.g.
  /// "union=3 blocks=4 [dense_order=1 fourier_motzkin=2 cad=1]
  ///  miniscoped=2 split=1".
  std::string Summary() const;
  /// Multi-line plan tree (the EXPLAIN rendering). `names` maps variable
  /// indices to display names; missing entries render as x<i>.
  std::string ToString(const std::vector<std::string>& names = {}) const;
};

/// Builds the plan for `formula` (same preconditions as
/// EliminateQuantifiers: relation-free, free variables < num_free_vars).
/// Pure function of (formula, num_free_vars, algorithm option bits).
QueryPlan PlanQuery(const Formula& formula, int num_free_vars,
                    const QeOptions& options);

/// Memoizing wrapper: pure memo keyed on the interned formula id, the
/// free-variable count, and the algorithm option bits (base/memo.h
/// contract — skipped under an armed governor and while failpoints are
/// armed). Metrics: plan_cache_hits / plan_cache_misses /
/// plan_cache_evictions.
QueryPlan GetOrBuildPlan(const Formula& formula, int num_free_vars,
                         const QeOptions& options);

/// Executes a built plan. Per-block sub-eliminations run with planning
/// forced off (the monolithic primitives); union members fan out across
/// options.pool and merge in member order, so the answer is identical at
/// every thread count. Plan decision counters fold into the metrics
/// registry, engine stats accumulate into *stats. When `profile` is
/// non-null, the executor mirrors the plan tree into it (base/profile.h):
/// one ProfileNode per plan node with inclusive wall time and attribution
/// counters, children spliced in plan order — observation only, the
/// answer is byte-identical with profiling on or off.
StatusOr<ConstraintRelation> ExecutePlan(const QueryPlan& plan,
                                         const QeOptions& options,
                                         QeStats* stats,
                                         ProfileNode* profile = nullptr);

}  // namespace ccdb

#endif  // CCDB_PLAN_PLANNER_H_
