#include "qe/qe_cache.h"

namespace ccdb {

QeCacheKey MakeQeCacheKey(const Formula& formula, int num_free_vars) {
  return QeCacheKey{formula.id(), num_free_vars};
}

ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>& QeResultCache() {
  static auto* cache =
      new ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>(
          "qe_cache", kQeCacheCapacity);
  return *cache;
}

}  // namespace ccdb
