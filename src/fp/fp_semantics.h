#ifndef CCDB_FP_FP_SEMANTICS_H_
#define CCDB_FP_FP_SEMANTICS_H_

#include "base/status.h"
#include "constraint/formula.h"
#include "qe/qe.h"

namespace ccdb {

/// Evaluation context of the finite precision semantics FO^F_QE (paper,
/// Section 4): the QE algorithm may only manipulate integers of bit length
/// at most k (the structure Z_k). A query whose evaluation materializes a
/// longer integer has an *undefined* answer — finite-precision queries are
/// partial, unlike the total queries of FO^R.
struct FpContext {
  /// Bit budget k of Z_k.
  std::uint32_t k = 64;
};

/// Statistics for a finite-precision run, extending QeStats with the
/// defined/undefined outcome and the bit head-room.
struct FpQeStats {
  QeStats qe;
  bool defined = false;
  /// Largest bit length the exact pipeline materialized (inputs, FM
  /// intermediates, projection factors, outputs) — the quantity Lemma 4.4
  /// bounds by C·k on the class K_{d,m}.
  std::uint64_t max_bits = 0;

  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object; embeds the inner QeStats as "qe".
  std::string ToJson() const;
};

/// FO^F_QE query evaluation: the same fixed QE algorithm as
/// EliminateQuantifiers (same variable order, same projection operator),
/// with every materialized integer checked against the Z_k budget. Returns
/// kUndefined when the budget is exceeded — by Theorem 4.1 this MUST happen
/// for some multiplicative queries whose inputs fit in Z_k, and by
/// Theorem 4.2 it cannot happen for linear queries once k exceeds a
/// query-dependent constant factor of the input bit length. The exact
/// pipeline runs on `pool` (null = the calling thread); the answer is the
/// same at every width.
StatusOr<ConstraintRelation> EliminateQuantifiersFp(
    const Formula& formula, int num_free_vars, const FpContext& context,
    FpQeStats* stats = nullptr, ThreadPool* pool = nullptr);

/// Finite-precision sentence decision (the relation |=^F_QE of Section 4).
StatusOr<bool> DecideSentenceFp(const Formula& sentence,
                                const FpContext& context,
                                FpQeStats* stats = nullptr,
                                ThreadPool* pool = nullptr);

/// The smallest k (searched by doubling then bisection) for which the
/// query is defined under FO^F_QE, up to `max_k`. Returns kUndefined if
/// even max_k does not suffice. Used by the Theorem 4.1/4.2 experiments.
StatusOr<std::uint32_t> MinimalDefiningK(const Formula& formula,
                                         int num_free_vars,
                                         std::uint32_t max_k,
                                         ThreadPool* pool = nullptr);

}  // namespace ccdb

#endif  // CCDB_FP_FP_SEMANTICS_H_
