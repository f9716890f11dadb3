#include "qe/qe_cache.h"

#include "base/config.h"

namespace ccdb {

QeCacheKey MakeQeCacheKey(const Formula& formula, int num_free_vars,
                          const QeOptions& options, bool block_residue) {
  QeCacheKey key;
  key.formula_id = formula.id();
  key.num_free_vars = num_free_vars;
  key.option_bits = (options.allow_linear_fast_path ? 1u : 0u) |
                    (options.allow_thom_augmentation ? 2u : 0u) |
                    (options.allow_equation_substitution ? 4u : 0u) |
                    (options.allow_disjunct_split ? 16u : 0u) |
                    (block_residue ? 32u : 0u);
  return key;
}

ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>& QeResultCache() {
  static auto* cache =
      new ShardedMemoCache<QeCacheKey, QeCacheValue, QeCacheKeyHash>(
          "qe_cache", EngineConfig::Process().qe_cache_capacity);
  return *cache;
}

}  // namespace ccdb
