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
///   (c) DISPATCHES each block to the matching engine — Fourier-Motzkin
///       for linear blocks (dense-order ones included), CAD only for
///       genuinely polynomial residue.
///
/// The matrix fragment picks the shape (DESIGN.md §10): a quantifier-free
/// input is a leaf; a linear matrix or a prefix with a universal
/// quantifier is ONE whole-matrix node (peel defining equations, then
/// Fourier-Motzkin over the whole union, else CAD); only a polynomial
/// all-existential matrix is miniscoped into a union of per-disjunct
/// products of leaves and component blocks. There is no option to pick
/// another shape: the plan is a function of the formula alone. On linear
/// matrices the whole-union Fourier-Motzkin pass is what pays: it answers
/// identically without materializing a block per disjunct.
///
/// Soundness of the rewrites: ∃ȳ(D1 ∨ ... ∨ Dm) ≡ ∃ȳD1 ∨ ... ∨ ∃ȳDm
/// (miniscoping over ∨); ∃y(A ∧ B) ≡ A ∧ ∃yB when y is not free in A
/// (miniscoping over ∧); and when a conjunction partitions into C1 ∧ C2
/// with disjoint quantified-variable supports, ∃ȳ1ȳ2(C1 ∧ C2) ≡
/// ∃ȳ1C1 ∧ ∃ȳ2C2 (component split). All three preserve the denoted set
/// exactly; only the syntactic derivation changes.
///
/// The executor runs every node through the same engine steps of qe/qe.h
/// (PeelDefiningEquations, EliminateLinearPrefix, EliminateByCad), and
/// EliminateQuantifiers sorts the final union of canonicalized disjuncts,
/// so answers are byte-identical at every thread count.

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "plan/fragment.h"
#include "qe/qe.h"

namespace ccdb {

/// One node of the plan IR. Immutable once built.
struct PlanNode {
  enum class Kind {
    /// Quantifier-free residue over the free variables (atoms miniscoping
    /// pushed out of every quantifier scope). `tuples` holds the residue.
    kLeaf,
    /// Eliminate the existential `prefix` (elimination order, outermost
    /// first) from the single conjunction in `tuples` with `fragment`'s
    /// engine.
    kBlock,
    /// Conjunction of independent children (disjoint quantified-variable
    /// supports); results recombine by cartesian product in child order.
    kProduct,
    /// Disjunction of children (∃ miniscoped over ∨); results concatenate
    /// in child order.
    kUnion,
    /// The whole normal form (`prefix` binds num_free_vars + i, `tuples`
    /// is the DNF matrix) eliminated in one pass: peel, then `fragment`'s
    /// linear engine or CAD.
    kMonolithic,
  };
  Kind kind = Kind::kLeaf;
  Fragment fragment = Fragment::kLinear;
  std::vector<PrenexBlock> prefix;       // kBlock, kMonolithic
  std::vector<GeneralizedTuple> tuples;  // kLeaf residue, else the matrix
  std::vector<std::shared_ptr<const PlanNode>> children;
};

/// A built plan plus its rewrite/dispatch summary counters.
struct QueryPlan {
  std::shared_ptr<const PlanNode> root;
  int num_free_vars = 0;
  std::size_t blocks = 0;            // elimination blocks dispatched
  std::size_t miniscope_pushes = 0;  // scopes narrowed by miniscoping
  std::size_t component_splits = 0;  // disjuncts split into >1 block
  std::size_t dispatch[2] = {0, 0};  // block count per Fragment

  /// One-line summary, e.g. "quantifier_free",
  /// "monolithic[fourier_motzkin]", "union=3 blocks=4 [fourier_motzkin=3
  /// cad=1] miniscoped=2 split=1".
  std::string Summary() const;
  /// Multi-line plan tree (the EXPLAIN rendering). `names` maps variable
  /// indices to display names; missing entries render as x<i>.
  std::string ToString(const std::vector<std::string>& names = {}) const;
};

/// Builds the plan for `formula` (same preconditions as
/// EliminateQuantifiers: relation-free, free variables < num_free_vars):
/// normalizes it once (NormalizeForQe) and picks the shape from the
/// matrix fragment. Pure function of (formula, num_free_vars); the
/// normalization's DNF charges a non-null `gov`, so a plan that would
/// blow up fails with kResourceExhausted. Span "qe.plan".
StatusOr<QueryPlan> PlanQuery(const Formula& formula, int num_free_vars,
                              const ResourceGovernor* gov = nullptr);

/// Executes a built plan. Union members fan out across options.pool and
/// merge in member order, so the answer is identical at every thread
/// count. Plan decision counters fold into the metrics registry, engine
/// stats accumulate into *stats. Each plan node runs under a
/// "qe.plan.execute" span; under an EXPLAIN ANALYZE collector
/// (base/trace.h) the span is labeled with the node's heading ("union",
/// "block[cad] exists x1", ...) and counts the tuples it produced —
/// observation only, the answer is the same with or without it.
StatusOr<ConstraintRelation> ExecutePlan(const QueryPlan& plan,
                                         const QeOptions& options,
                                         QeStats* stats);

}  // namespace ccdb

#endif  // CCDB_PLAN_PLANNER_H_
