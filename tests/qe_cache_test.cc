// Tests for the memo layers on top of the hash-consed IR: the QE result
// cache (byte-identical output warm, cold and uncached, hit metrics), the
// sharded memo table's FIFO eviction, the engine's whole-query cache, and
// its invalidation by catalog mutation (the version stamp).

#include <gtest/gtest.h>

#include <memory>

#include "base/memo.h"
#include "base/metrics.h"
#include "base/resource.h"
#include "constraint/formula.h"
#include "engine/database.h"
#include "engine/session.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"
#include "test_pool.h"

namespace ccdb {
namespace {

// The figure-1 query with an extra disjunct, as an already-instantiated
// formula: exists y ((4x^2 - y - 20x + 25 <= 0 and y <= 0) or
//                    (x^2 + y^2 <= 1 and y >= x)).
Formula TestQuery() {
  Polynomial x = Polynomial::Var(0), y = Polynomial::Var(1);
  Formula band = Formula::And(
      Formula::Compare(Polynomial(4) * x * x - y - Polynomial(20) * x +
                           Polynomial(25),
                       RelOp::kLe, Polynomial(0)),
      Formula::Compare(y, RelOp::kLe, Polynomial(0)));
  Formula disk = Formula::And(
      Formula::Compare(x * x + y * y, RelOp::kLe, Polynomial(1)),
      Formula::Compare(y, RelOp::kGe, x));
  return Formula::Exists(1, Formula::Or(band, disk));
}

// Runs QE; a non-null `gov` makes the run skip every memo lookup (see
// base/memo.h), which is how these tests get an uncached reference.
std::string RunQe(const Formula& f, const ResourceGovernor* gov = nullptr) {
  QeOptions options;
  options.governor = gov;
  options.pool = ccdb_test::ProcessPool();
  QeStats stats;
  StatusOr<ConstraintRelation> result =
      EliminateQuantifiers(f, 1, options, &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->ToString({"x"});
}

TEST(QeCacheTest, WarmColdAndUncachedRunsProduceByteIdenticalOutput) {
  QeResultCache().Clear();
  std::string cold = RunQe(TestQuery());
  // Same interned formula -> hit.
  std::string warm = RunQe(TestQuery());
  ResourceGovernor unlimited{ResourceLimits{}};
  std::string uncached = RunQe(TestQuery(), &unlimited);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, uncached);
}

TEST(QeCacheTest, SecondEliminationHitsTheCache) {
  QeResultCache().Clear();
  Counter* hits = MetricsRegistry::Global().GetCounter("qe_cache_hits");
  RunQe(TestQuery());
  std::uint64_t hits_after_cold = hits->value();
  RunQe(TestQuery());
  EXPECT_GT(hits->value(), hits_after_cold);
}

TEST(QeCacheTest, GovernedRunNeverConsultsTheCache) {
  Counter* hits = MetricsRegistry::Global().GetCounter("qe_cache_hits");
  Counter* misses = MetricsRegistry::Global().GetCounter("qe_cache_misses");
  RunQe(TestQuery());  // warm: an ungoverned run would now hit
  std::uint64_t hits_before = hits->value();
  std::uint64_t misses_before = misses->value();
  ResourceGovernor unlimited{ResourceLimits{}};
  RunQe(TestQuery(), &unlimited);
  RunQe(TestQuery(), &unlimited);
  EXPECT_EQ(hits->value(), hits_before);
  EXPECT_EQ(misses->value(), misses_before);
}

TEST(ShardedMemoCacheTest, FifoEvictionBoundsOccupancy) {
  ShardedMemoCache<int, int> cache("memo_test", /*capacity=*/8,
                                   /*num_shards=*/1);
  for (int i = 0; i < 50; ++i) cache.Insert(i, i * i);
  EXPECT_LE(cache.size(), 8u);
  int out = 0;
  EXPECT_FALSE(cache.Lookup(0, &out));  // oldest entries evicted first
  EXPECT_TRUE(cache.Lookup(49, &out));
  EXPECT_EQ(out, 49 * 49);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedMemoCacheTest, FirstWriterWins) {
  ShardedMemoCache<int, int> cache("memo_test_dup", 8);
  cache.Insert(1, 10);
  cache.Insert(1, 20);  // duplicate insert is a no-op
  int out = 0;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out, 10);
}

TEST(QeCacheTest, CatalogMutationAdvancesVersion) {
  Catalog catalog;
  std::uint64_t v0 = catalog.version();
  ASSERT_TRUE(
      catalog.AddRelationFromText("S(x, y) := x + y <= 1").ok());
  std::uint64_t v1 = catalog.version();
  EXPECT_NE(v0, v1);
  ASSERT_TRUE(catalog.DropRelation("S").ok());
  EXPECT_NE(catalog.version(), v1);
  // Two distinct catalogs never share a version, even when empty.
  Catalog other;
  EXPECT_NE(other.version(), catalog.version());
}

TEST(QeCacheTest, QueryCacheInvalidatedByRedefinition) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string text = "exists y (S(x, y) and y <= 0)";
  std::unique_ptr<Session> cached = db.OpenSession();
  StatusOr<CalcFResult> first = cached->Query(text);
  ASSERT_TRUE(first.ok());
  StatusOr<CalcFResult> repeat = cached->Query(text);  // query-cache hit
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(first->relation.ToString({"x"}), repeat->relation.ToString({"x"}));
  // Redefine S: the version moved, so the stale entry must not answer.
  ASSERT_TRUE(db.Drop("S").ok());
  ASSERT_TRUE(db.Define("S(x, y) := x - y = 0").ok());
  StatusOr<CalcFResult> redefined = cached->Query(text);
  ASSERT_TRUE(redefined.ok());
  EXPECT_NE(first->relation.ToString({"x"}),
            redefined->relation.ToString({"x"}));
  // And the fresh answer matches an uncached evaluation exactly: a
  // governed query skips the whole-query memo and every QE cache lookup.
  StatusOr<CalcFResult> uncached = db.QueryWithPolicy(text, QueryPolicy{});
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(redefined->relation.ToString({"x"}),
            uncached->relation.ToString({"x"}));
}

}  // namespace
}  // namespace ccdb
