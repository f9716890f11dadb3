#include "qe/qe_cache.h"

namespace ccdb {

QeCacheKey MakeQeCacheKey(const Formula& formula, int num_free_vars,
                          bool block_residue) {
  QeCacheKey key;
  key.formula_id = formula.id();
  key.num_free_vars = num_free_vars;
  key.block_residue = block_residue;
  return key;
}

ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>& QeResultCache() {
  static auto* cache =
      new ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>(
          "qe_cache", kQeCacheCapacity);
  return *cache;
}

}  // namespace ccdb
