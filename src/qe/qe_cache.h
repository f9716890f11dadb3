#ifndef CCDB_QE_QE_CACHE_H_
#define CCDB_QE_QE_CACHE_H_

/// The cross-query QE result cache: memoizes EliminateQuantifiers on the
/// interned formula id, the free-variable count, and the algorithm-relevant
/// option bits. Pure memo — a hit returns exactly the relation and stats a
/// recomputation would produce, so output is byte-identical warm or cold
/// (qe_cache_test and plan_differential_test compare warm hits against a
/// cleared cache and against a run under an unlimited governor, which
/// skips every lookup).
///
/// Each cached value pins its key formula (a Formula handle), keeping the
/// arena node — and thus its id — alive, so re-running the same query
/// hash-conses to the same node and hits. Lookups are skipped under an
/// armed ResourceGovernor (see base/memo.h); no invalidation is needed
/// because formulas are immutable and relation symbols are instantiated
/// away before elimination.

#include <cstdint>

#include "base/memo.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "qe/qe.h"

namespace ccdb {

struct QeCacheKey {
  std::uint64_t formula_id = 0;
  int num_free_vars = 0;
  /// Packed algorithm options (linear fast path, Thom augmentation,
  /// equation substitution, linear-only, disjunct split) plus the
  /// block-residue bit. The governor and pool are excluded: lookups only
  /// happen ungoverned, and results are thread-count independent by the
  /// determinism contract. A block residue (the CAD residue of one plan
  /// block, plan/planner.cc) is eliminated without planning and its stats
  /// carry no plan summary, so residue and whole-query entries never share
  /// a key even for the same formula.
  unsigned option_bits = 0;

  bool operator==(const QeCacheKey& other) const {
    return formula_id == other.formula_id &&
           num_free_vars == other.num_free_vars &&
           option_bits == other.option_bits;
  }
};

struct QeCacheKeyHash {
  std::size_t operator()(const QeCacheKey& key) const {
    std::size_t h = 1469598103934665603ull;
    h = h * 1099511628211ull + static_cast<std::size_t>(key.formula_id);
    h = h * 1099511628211ull + static_cast<std::size_t>(key.num_free_vars);
    h = h * 1099511628211ull + key.option_bits;
    return h;
  }
};

struct QeCacheValue {
  Formula formula;  // pins the interned node (and so the key id) alive
  ConstraintRelation relation;
  QeStats stats;
};

QeCacheKey MakeQeCacheKey(const Formula& formula, int num_free_vars,
                          const QeOptions& options,
                          bool block_residue = false);

/// The process-wide cache. Its capacity is EngineConfig::Process()
/// .qe_cache_capacity (default 4096 entries), taken once at first use.
/// Metrics: qe_cache_hits / qe_cache_misses / qe_cache_evictions.
ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>& QeResultCache();

}  // namespace ccdb

#endif  // CCDB_QE_QE_CACHE_H_
