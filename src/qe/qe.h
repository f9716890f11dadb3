#ifndef CCDB_QE_QE_H_
#define CCDB_QE_QE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "constraint/atom.h"
#include "constraint/formula.h"

namespace ccdb {

/// Statistics of one quantifier-elimination run, exposed for the paper's
/// complexity experiments (Theorems 3.1, 4.1, 4.2; Lemma 4.4).
struct QeStats {
  std::size_t cad_cells = 0;
  std::size_t projection_factors = 0;
  /// Variable-elimination rounds taken on the Fourier-Motzkin path, summed
  /// over blocks and disjuncts.
  std::uint64_t fm_rounds = 0;
  /// Wall time of the call, microseconds: its qe.eliminate span at a
  /// successful return. Not rendered (it is schedule-dependent, while the
  /// canonical stats rendering replays byte-identically on a memo hit);
  /// never merged or cached.
  std::int64_t elapsed_us = 0;
  /// Largest coefficient bit length seen in any intermediate polynomial —
  /// the quantity Lemma 4.4 bounds.
  std::uint64_t max_intermediate_bits = 0;
  bool used_linear_path = false;
  bool used_thom_augmentation = false;
  /// One-line summary of the plan that ran (QueryPlan::Summary; "" in the
  /// stats of a plan block). Deterministic — depends only on the input
  /// formula.
  std::string plan;

  /// Accumulates a block's stats into this run's. `plan` is not merged:
  /// only the top-level run carries the plan summary.
  void Merge(const QeStats& from);
  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object with one field per statistic.
  std::string ToJson() const;
};

/// The execution context of quantifier elimination. It carries no
/// algorithm choice: every query runs the one plan its matrix selects
/// (plan/planner.h), so the finite-precision semantics FO^F_QE (Section 4)
/// is the output of one fixed algorithm.
struct QeOptions {
  /// Resource budget charged at every hot-loop head of the elimination
  /// (driver rounds, CAD projection/base/lifting, root isolation,
  /// Fourier-Motzkin tuples). Null = unlimited. Borrowed, not owned.
  const ResourceGovernor* governor = nullptr;
  /// Worker pool for the parallel stages (plan union members, CAD
  /// lifting over base-phase cells, cell-truth evaluation). Null = the
  /// calling thread. Borrowed, not owned. Results are merged in canonical
  /// index order, so answers are identical at every thread count.
  ThreadPool* pool = nullptr;
};

/// The QUANTIFIER ELIMINATION step of the paper's pipeline (Section 2,
/// step 2; Appendix I): eliminates all quantifiers from a relation-free
/// formula whose free variables are exactly 0..num_free_vars-1, producing
/// an equivalent quantifier-free formula in closed form as a union of
/// generalized tuples over those variables. One driver: the formula is
/// normalized once, planned from its matrix fragment (PlanQuery) and the
/// plan executed (ExecutePlan).
StatusOr<ConstraintRelation> EliminateQuantifiers(const Formula& formula,
                                                  int num_free_vars,
                                                  const QeOptions& options = {},
                                                  QeStats* stats = nullptr);

/// Decides a sentence (no free variables): the complete decision procedure
/// for the real closed field restricted to our projection operator. This is
/// the |=_QE relation of Section 3 ("any sentence is reduced to either the
/// tautology 0 = 0 or its negation").
StatusOr<bool> DecideSentence(const Formula& sentence,
                              const QeOptions& options = {},
                              QeStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Engine steps. The plan executor's block and whole-matrix nodes
// (plan/planner.cc) call these directly; each folds its work into *stats.

/// Peels innermost existential quantifiers by virtual substitution: while
/// the innermost block of *prefix is "exists v" and EVERY tuple either
/// does not mention v or contains an equation p = 0 linear in v with a
/// nonzero CONSTANT coefficient, v := g(rest) is substituted and the block
/// popped. Returns the number of quantifiers peeled.
StatusOr<std::uint64_t> PeelDefiningEquations(
    std::vector<GeneralizedTuple>* tuples, std::vector<PrenexBlock>* prefix,
    const QeOptions& options, QeStats* stats);

/// Eliminates *prefix innermost-first from linear tuples by
/// Fourier-Motzkin; a universal block goes through negation, whose DNF
/// round trips charge options.governor. Span "qe.fourier_motzkin".
Status EliminateLinearPrefix(std::vector<GeneralizedTuple>* tuples,
                             const std::vector<PrenexBlock>& prefix,
                             const QeOptions& options, QeStats* stats);

/// The CAD path over a compact normal form (prefix[i] binds
/// num_free_vars + i): BuildSolutionFormula labels each free-space cell
/// with the prefix's truth over its subtree (retrying with Thom
/// augmentation when sign vectors collide); a sentence is decided over the
/// base stack. Span "qe.cad_path".
StatusOr<std::vector<GeneralizedTuple>> EliminateByCad(
    const std::vector<GeneralizedTuple>& tuples,
    const std::vector<PrenexBlock>& prefix, int num_free_vars,
    const QeOptions& options, QeStats* stats);

/// Largest coefficient bit length over the tuples' atoms.
std::uint64_t MaxCoefficientBits(const std::vector<GeneralizedTuple>& tuples);

}  // namespace ccdb

#endif  // CCDB_QE_QE_H_
