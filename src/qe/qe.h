#ifndef CCDB_QE_QE_H_
#define CCDB_QE_QE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/config.h"
#include "base/resource.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "constraint/atom.h"
#include "constraint/formula.h"

namespace ccdb {

class ProfileSink;

/// Statistics of one quantifier-elimination run, exposed for the paper's
/// complexity experiments (Theorems 3.1, 4.1, 4.2; Lemma 4.4).
struct QeStats {
  std::size_t cad_cells = 0;
  std::size_t projection_factors = 0;
  /// Variable-elimination rounds taken on the linear paths (dense-order /
  /// Fourier-Motzkin), summed over blocks and disjuncts.
  std::uint64_t fm_rounds = 0;
  /// QE-result-cache hits that served this run or its sub-eliminations
  /// (per-block residue, per-disjunct splits). 0 on a fully cold run.
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
  /// One-line summary of the structure-aware query plan when the planner
  /// drove this run ("" on the monolithic path and in sub-eliminations).
  /// Deterministic — depends only on the input formula and options.
  std::string plan;

  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object with one field per statistic.
  std::string ToJson() const;
};

/// PlanToggle (base/config.h) is the three-way switch carried by the
/// option structs below: kAuto follows the process-wide switch (itself
/// defaulted from EngineConfig), kOn/kOff force the feature per call. The
/// executor forces plan=kOff on its per-block sub-eliminations so plan
/// execution reuses the monolithic primitives verbatim.

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
  /// Split an all-existential prefix over the top-level disjunction before
  /// the CAD path: exists ȳ (D1 ∨ ... ∨ Dm) is eliminated disjunct by
  /// disjunct (each disjunct builds a CAD over only its own polynomials)
  /// and the per-disjunct answers are unioned in input order. This is both
  /// an algorithmic win (m small CADs instead of one joint CAD) and the
  /// driver's parallel fan-out point. The split is a deterministic
  /// algorithm decision — it does not depend on the thread count.
  bool allow_disjunct_split = true;
  /// Structure-aware planning (plan/planner.h): classify the quantifier
  /// block into fragments, miniscope ∃ into the narrowest scope, split
  /// independent variable components, and dispatch each block to the
  /// cheapest engine (dense-order / Fourier-Motzkin / CAD). kAuto follows
  /// the session config, or EngineConfig::Process().plan (CCDB_PLAN,
  /// default on) outside any session; kOff is the monolithic fallback
  /// path.
  PlanToggle plan = PlanToggle::kAuto;
  /// Memo layers (QE result cache, resultant/PRS cache, whole-query cache)
  /// for this evaluation: kAuto follows the session config, or
  /// EngineConfig::Process().qe_cache (CCDB_QE_CACHE) outside any session;
  /// kOn/kOff force it per call (MemoCachesEnabledFor resolves it). The
  /// CAD path hands it down to the resultant/discriminant/gcd memo
  /// through CadOptions::memo. Pure-memo contract holds at every setting:
  /// answers are byte-identical on and off, and even kOn stands down while
  /// failpoints are armed or a governor charges budget.
  PlanToggle memo = PlanToggle::kAuto;
  /// Resource budget charged at every hot-loop head of the elimination
  /// (driver rounds, CAD projection/base/lifting, root isolation,
  /// Fourier-Motzkin tuples). Null = unlimited. Borrowed, not owned.
  const ResourceGovernor* governor = nullptr;
  /// Worker pool for the parallel stages (per-disjunct elimination, CAD
  /// lifting over base-phase cells, cell-truth evaluation). Null = the
  /// process-wide ThreadPool::Shared(), which defaults to serial unless
  /// CCDB_THREADS is set. Borrowed, not owned. Results are merged in
  /// canonical index order, so answers are identical at every thread
  /// count.
  ThreadPool* pool = nullptr;
  /// EXPLAIN ANALYZE sink (base/profile.h): when non-null, each top-level
  /// elimination appends one ProfileNode tree — per plan node (or per
  /// monolithic engine stage) inclusive wall time, CAD cells, FM rounds,
  /// peak bit length, and cache temperature. Observation only: arming it
  /// never changes the answer, and it is excluded from every memo-cache
  /// key. Internal sub-eliminations run with the sink cleared and report
  /// through their parent's node instead. Borrowed, not owned.
  ProfileSink* profile = nullptr;
};

/// The QUANTIFIER ELIMINATION step of the paper's pipeline (Section 2,
/// step 2; Appendix I): eliminates all quantifiers from a relation-free
/// formula whose free variables are exactly 0..num_free_vars-1, producing
/// an equivalent quantifier-free formula in closed form as a union of
/// generalized tuples over those variables.
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

/// Virtual substitution for defining equations: when EVERY tuple either
/// does not mention `var` or contains an equation p = 0 linear in `var`
/// with a nonzero CONSTANT coefficient, "exists var" is eliminated by
/// exact substitution var := g(rest) and the rewritten tuples replace
/// *tuples (returns true). Otherwise *tuples is left unchanged (returns
/// false). Shared by the monolithic driver's peel loop and the planner's
/// per-block executor so both paths rewrite identically.
bool TrySubstituteInnermostExists(std::vector<GeneralizedTuple>* tuples,
                                  int var);

}  // namespace ccdb

#endif  // CCDB_QE_QE_H_
