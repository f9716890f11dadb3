// Delta-driven cache invalidation: the whole-query memo is keyed on the
// per-relation versions of exactly the relations a query reads, so an
// Insert into S must leave cached answers that read only R hot (asserted
// via the query_cache_hits metric), an Insert into R must invalidate
// them, and drop-then-redefine can never serve a stale answer. The
// materialized Datalog fixpoint obeys the same discipline through its
// hit / resume / recompute metrics.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "base/metrics.h"
#include "base/resource.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "engine/session.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

class CacheScopingTest : public testing::Test {
 protected:
  void SetUp() override {
    hits_ = MetricsRegistry::Global().GetCounter("query_cache_hits");
  }

  // Runs the query and reports whether it was answered by the whole-query
  // memo, via the hit counter delta (single-threaded test, so exact).
  bool QueryHitsCache(const Session& session, const std::string& text) {
    std::uint64_t before = hits_->value();
    auto result = session.Query(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return hits_->value() > before;
  }

  Counter* hits_ = nullptr;
};

TEST_F(CacheScopingTest, InsertIntoUnreadRelationKeepsEntriesHot) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("ScopeR(x) := x >= 0 and x <= 4").ok());
  ASSERT_TRUE(db.Define("ScopeS(x) := x >= 10 and x <= 14").ok());
  const std::string reads_r = "ScopeR(x) and x >= 1";
  std::unique_ptr<Session> session = db.OpenSession();

  EXPECT_FALSE(QueryHitsCache(*session, reads_r)) << "first run must evaluate";
  EXPECT_TRUE(QueryHitsCache(*session, reads_r)) << "second run must hit";

  // Insert into S: OUTSIDE the query's read-set, so the entry stays hot.
  ASSERT_TRUE(db.Insert("ScopeS(x) := x >= 20 and x <= 24").ok());
  EXPECT_TRUE(QueryHitsCache(*session, reads_r))
      << "an insert into an unread relation must not invalidate";

  // Insert into R: inside the read-set — the entry must be invalidated.
  ASSERT_TRUE(db.Insert("ScopeR(x) := x >= 6 and x <= 7").ok());
  EXPECT_FALSE(QueryHitsCache(*session, reads_r))
      << "an insert into a read relation must invalidate";
  // And the re-evaluated answer sees the new tuples.
  auto result = session->Query(reads_r);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->relation.Contains({R(13, 2)}));
  EXPECT_TRUE(QueryHitsCache(*session, reads_r)) << "rewarmed";
}

TEST_F(CacheScopingTest, DropThenRedefineNeverServesStale) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("ScopeT(x) := x >= 0 and x <= 1").ok());
  const std::string text = "ScopeT(x) and x >= 0";
  std::unique_ptr<Session> session = db.OpenSession();
  auto first = session->Query(text);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->relation.Contains({R(5)}));
  EXPECT_TRUE(QueryHitsCache(*session, text));

  ASSERT_TRUE(db.Drop("ScopeT").ok());
  ASSERT_TRUE(db.Define("ScopeT(x) := x >= 4 and x <= 6").ok());
  // The redefined relation carries a fresh version: the old entry cannot
  // be served.
  auto second = session->Query(text);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->relation.Contains({R(5)}));
  EXPECT_FALSE(second->relation.Contains({R(1, 2)}));
}

TEST_F(CacheScopingTest, ReadSetReportsRelationsAndVersions) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("DepA(x) := x >= 0").ok());
  auto read_set = db.ReadSet("DepA(x) and DepMissing(x)");
  ASSERT_TRUE(read_set.ok());
  ASSERT_EQ(read_set->size(), 2u);
  EXPECT_EQ((*read_set)[0].first, "DepA");
  EXPECT_GT((*read_set)[0].second, 0u);
  EXPECT_EQ((*read_set)[1].first, "DepMissing");
  EXPECT_EQ((*read_set)[1].second, 0u) << "absent relations version as 0";

  // An insert bumps the read-set version; defining the missing relation
  // turns its 0 into a live stamp.
  std::uint64_t before = (*read_set)[0].second;
  ASSERT_TRUE(db.Insert("DepA(x) := x >= 100 and x <= 101").ok());
  ASSERT_TRUE(db.Define("DepMissing(x) := x <= 0").ok());
  auto after = db.ReadSet("DepA(x) and DepMissing(x)");
  ASSERT_TRUE(after.ok());
  EXPECT_GT((*after)[0].second, before);
  EXPECT_GT((*after)[1].second, 0u);

  EXPECT_FALSE(db.ReadSet("exists y (").ok()) << "parse errors surface";
}

TEST_F(CacheScopingTest, FixpointHitResumeRecomputeMetrics) {
  ConstraintDatabase db;
  ASSERT_TRUE(
      db.Define("FixEdge(x, y) := y - x - 1 = 0 and x >= 0 and x <= 2").ok());

  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("FixEdge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("FixEdge", {2, 1}));
    program.rules.push_back(rule);
  }

  Counter* fp_hits =
      MetricsRegistry::Global().GetCounter("datalog_fixpoint_hits");
  Counter* fp_resumes =
      MetricsRegistry::Global().GetCounter("datalog_fixpoint_resumes");
  Counter* fp_recomputes =
      MetricsRegistry::Global().GetCounter("datalog_fixpoint_recomputes");

  std::unique_ptr<Session> session = db.OpenSession();
  // Cold: one recompute, which materializes the state.
  std::uint64_t recomputes = fp_recomputes->value();
  ASSERT_TRUE(session->Fixpoint(program).ok());
  EXPECT_EQ(fp_recomputes->value(), recomputes + 1);

  // Unchanged EDB: replay, no evaluation.
  std::uint64_t hits = fp_hits->value();
  DatalogStats replay_stats;
  auto replayed = session->Fixpoint(program, {}, &replay_stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(fp_hits->value(), hits + 1);
  EXPECT_TRUE(replay_stats.reached_fixpoint);
  EXPECT_EQ(replay_stats.qe_calls, 0u) << "a replay must not run QE";

  // Append-only growth: resume.
  ASSERT_TRUE(
      db.Insert("FixEdge(x, y) := y - x - 1 = 0 and x >= 3 and x <= 4").ok());
  std::uint64_t resumes = fp_resumes->value();
  auto resumed = session->Fixpoint(program);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(fp_resumes->value(), resumes + 1);
  EXPECT_TRUE(resumed->at("Reach").Contains({R(0), R(5)}))
      << "the resumed fixpoint must see closure through the new segment";

  // Structural change (drop + redefine): back to a recompute.
  ASSERT_TRUE(db.Drop("FixEdge").ok());
  ASSERT_TRUE(
      db.Define("FixEdge(x, y) := y - x - 1 = 0 and x >= 0 and x <= 1").ok());
  recomputes = fp_recomputes->value();
  auto recomputed = session->Fixpoint(program);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(fp_recomputes->value(), recomputes + 1);
  EXPECT_FALSE(recomputed->at("Reach").Contains({R(0), R(5)}))
      << "the recomputed fixpoint must not leak the dropped tuples";

  // Under a governor the materialized state stands down: always a cold
  // evaluation, no metric movement.
  ResourceGovernor unlimited{ResourceLimits{}};
  DatalogOptions governed;
  governed.qe.governor = &unlimited;
  std::uint64_t frozen_hits = fp_hits->value();
  std::uint64_t frozen_resumes = fp_resumes->value();
  std::uint64_t frozen_recomputes = fp_recomputes->value();
  ASSERT_TRUE(session->Fixpoint(program, governed).ok());
  EXPECT_EQ(fp_hits->value(), frozen_hits);
  EXPECT_EQ(fp_resumes->value(), frozen_resumes);
  EXPECT_EQ(fp_recomputes->value(), frozen_recomputes);
}

}  // namespace
}  // namespace ccdb
