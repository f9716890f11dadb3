#ifndef CCDB_BASE_MEMO_H_
#define CCDB_BASE_MEMO_H_

/// Shared infrastructure for the memoization layers that sit on top of the
/// hash-consed IR: the memo gate (MemoCachesEnabled) and a bounded,
/// sharded, FIFO-evicting memo table used by the QE result cache, the
/// resultant/PRS cache, and the engine's query cache.
///
/// Contract: every cache keyed through this header is a pure memo — a hit
/// returns exactly the value a recomputation would produce, so query
/// output is byte-identical whatever the cache temperature. There is no
/// knob that turns the memo layers off; they stand down only where safety
/// demands it. Lookups are skipped under an armed ResourceGovernor
/// (callers gate on `gov == nullptr`), so governed budget charging and
/// degradation-ladder behaviour never depend on cache temperature;
/// successful results are still inserted so later ungoverned evaluations
/// can reuse them. While any failpoint is armed the caches stand down
/// entirely (MemoCachesEnabled reports false), so fault injection always
/// reaches the real stage instead of a memo hit. A test that wants an
/// uncached reference clears the caches (QeResultCache().Clear()) or runs
/// under an unlimited governor.

#include <cstddef>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/metrics.h"

namespace ccdb {

/// Whether the memo layers (QE result cache, resultant/PRS cache, rule-body
/// memo, query cache, materialized fixpoint state) may serve or fill
/// entries right now: false only while a failpoint is armed. The governor
/// gate is separate and stays at each call site.
bool MemoCachesEnabled();

/// A bounded, sharded memo table with per-shard FIFO eviction. Thread-safe.
/// `Hash` must be deterministic; keys and values are stored by value.
/// Capacity is per-cache (split across shards, minimum 1 per shard).
///
/// Instruments three counters in the global metrics registry, named
/// `<metric_prefix>_hits`, `<metric_prefix>_misses`,
/// `<metric_prefix>_evictions`.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedMemoCache {
 public:
  ShardedMemoCache(const char* metric_prefix, std::size_t capacity,
                   std::size_t num_shards = 8)
      : hits_(MetricsRegistry::Global().GetCounter(std::string(metric_prefix) +
                                                   "_hits")),
        misses_(MetricsRegistry::Global().GetCounter(
            std::string(metric_prefix) + "_misses")),
        evictions_(MetricsRegistry::Global().GetCounter(
            std::string(metric_prefix) + "_evictions")),
        shards_(num_shards == 0 ? 1 : num_shards) {
    std::size_t per_shard = capacity / shards_.size();
    if (per_shard == 0) per_shard = 1;
    for (Shard& shard : shards_) shard.capacity = per_shard;
  }

  /// Copies the cached value into *out and returns true on a hit.
  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_->Increment();
      return false;
    }
    hits_->Increment();
    *out = it->second;
    return true;
  }

  /// Inserts (first writer wins; a racing duplicate insert is a no-op).
  void Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(key, std::move(value));
    if (!inserted) return;
    shard.order.push_back(key);
    while (shard.map.size() > shard.capacity) {
      shard.map.erase(shard.order.front());
      shard.order.pop_front();
      evictions_->Increment();
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.order.clear();
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  /// Shrinks (or grows) the bound; evicts FIFO down to the new capacity.
  void SetCapacity(std::size_t capacity) {
    std::size_t per_shard = capacity / shards_.size();
    if (per_shard == 0) per_shard = 1;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.capacity = per_shard;
      while (shard.map.size() > shard.capacity) {
        shard.map.erase(shard.order.front());
        shard.order.pop_front();
        evictions_->Increment();
      }
    }
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, Hash> map;
    std::deque<Key> order;  // insertion order, for FIFO eviction
    std::size_t capacity = 1;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  std::vector<Shard> shards_;
};

}  // namespace ccdb

#endif  // CCDB_BASE_MEMO_H_
