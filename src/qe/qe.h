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
#include "plan/fragment.h"

namespace ccdb {

class ProfileSink;
struct ProfileNode;

/// Statistics of one quantifier-elimination run, exposed for the paper's
/// complexity experiments (Theorems 3.1, 4.1, 4.2; Lemma 4.4).
struct QeStats {
  std::size_t cad_cells = 0;
  std::size_t projection_factors = 0;
  /// Variable-elimination rounds taken on the linear paths (dense-order /
  /// Fourier-Motzkin), summed over blocks and disjuncts.
  std::uint64_t fm_rounds = 0;
  /// QE-result-cache hits that served this run or its CAD block residues.
  /// 0 on a fully cold run.
  /// Profiling attribution only: EXCLUDED from ToString()/ToJson(), since
  /// cache temperature is schedule/history-dependent while the canonical
  /// stats rendering replays byte-identically on a memo hit.
  std::uint64_t cache_hits = 0;
  /// Largest coefficient bit length seen in any intermediate polynomial —
  /// the quantity Lemma 4.4 bounds.
  std::uint64_t max_intermediate_bits = 0;
  bool used_linear_path = false;
  /// The linear path additionally recognized a pure dense-order input (the
  /// class DO of Theorem 4.8): elimination stayed inside the dense-order
  /// language.
  bool used_dense_order_path = false;
  bool used_thom_augmentation = false;
  /// One-line summary of the plan that ran (QueryPlan::Summary; "" in the
  /// stats of a block residue). Deterministic — depends only on the input
  /// formula and options.
  std::string plan;

  /// Accumulates a block's stats into this run's. `plan` is not merged:
  /// only the top-level run carries the plan summary.
  void Merge(const QeStats& from);
  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object with one field per statistic.
  std::string ToJson() const;
};

/// Options for quantifier elimination.
struct QeOptions {
  /// Prefer Fourier-Motzkin when every atom is linear (exact, fast, any
  /// dimension). CAD is used otherwise.
  bool allow_linear_fast_path = true;
  /// Retry solution-formula construction with derivative-closed (Thom)
  /// projection sets when plain sign vectors cannot separate true cells
  /// from false cells.
  bool allow_thom_augmentation = true;
  /// Peel innermost existential quantifiers that have defining linear
  /// equations by exact substitution before running CAD (a large win for
  /// CALC_F's function-approximation rewriting). Disable for ablation.
  bool allow_equation_substitution = true;
  /// Degradation rung: refuse the CAD path entirely (linear systems are
  /// still eliminated exactly by Fourier-Motzkin). A nonlinear input then
  /// fails with kResourceExhausted instead of risking a doubly exponential
  /// CAD — the last rung of ConstraintDatabase::QueryWithPolicy's ladder.
  bool linear_only = false;
  /// Plan a polynomial all-existential union disjunct by disjunct:
  /// exists ȳ (D1 ∨ ... ∨ Dm) becomes m miniscoped members (plan/planner.h),
  /// each building a CAD over only its own polynomials, unioned in input
  /// order. Off, such a union is one whole-matrix node with one joint CAD
  /// (the ablation baseline). The split is a deterministic algorithm
  /// decision — it does not depend on the thread count.
  bool allow_disjunct_split = true;
  /// Resource budget charged at every hot-loop head of the elimination
  /// (driver rounds, CAD projection/base/lifting, root isolation,
  /// Fourier-Motzkin tuples). Null = unlimited. Borrowed, not owned.
  const ResourceGovernor* governor = nullptr;
  /// Worker pool for the parallel stages (plan union members, CAD
  /// lifting over base-phase cells, cell-truth evaluation). Null = the
  /// process-wide ThreadPool::Shared(), which defaults to serial unless
  /// CCDB_THREADS is set. Borrowed, not owned. Results are merged in
  /// canonical index order, so answers are identical at every thread
  /// count.
  ThreadPool* pool = nullptr;
  /// EXPLAIN ANALYZE sink (base/profile.h): when non-null, each top-level
  /// elimination appends one ProfileNode tree — per plan node inclusive
  /// wall time, CAD cells, FM rounds, peak bit length, and cache
  /// temperature. Observation only: arming it never changes the answer,
  /// and it is excluded from every memo-cache key. Borrowed, not owned.
  ProfileSink* profile = nullptr;
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
/// popped. Off under !options.allow_equation_substitution. Returns the
/// number of quantifiers peeled.
StatusOr<std::uint64_t> PeelDefiningEquations(
    std::vector<GeneralizedTuple>* tuples, std::vector<PrenexBlock>* prefix,
    const QeOptions& options, QeStats* stats);

/// Eliminates *prefix innermost-first from linear tuples with `fragment`'s
/// engine (dense-order or Fourier-Motzkin); a universal block goes through
/// negation. Span "qe.fourier_motzkin".
Status EliminateLinearPrefix(std::vector<GeneralizedTuple>* tuples,
                             const std::vector<PrenexBlock>& prefix,
                             Fragment fragment, const QeOptions& options,
                             QeStats* stats);

/// The CAD path over a compact normal form (prefix[i] binds
/// num_free_vars + i): build, evaluate the prefix over the cells, and
/// construct the solution formula (retrying with Thom augmentation when
/// sign vectors collide). Refuses with kResourceExhausted under
/// options.linear_only. Span "qe.cad_path".
StatusOr<std::vector<GeneralizedTuple>> EliminateByCad(
    const std::vector<GeneralizedTuple>& tuples,
    const std::vector<PrenexBlock>& prefix, int num_free_vars,
    const QeOptions& options, QeStats* stats);

/// Largest coefficient bit length over the tuples' atoms.
std::uint64_t MaxCoefficientBits(const std::vector<GeneralizedTuple>& tuples);

/// Attribution counters for a profile node from a run's stats; zero values
/// and names the node already carries are skipped.
void AddQeCounters(ProfileNode* node, const QeStats& stats);

}  // namespace ccdb

#endif  // CCDB_QE_QE_H_
