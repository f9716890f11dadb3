// Session contexts (DESIGN.md §16): the de-globalized execution scope.
// Two sessions with DIFFERENT configs — 1 vs 8 threads, private pools,
// one reading uncached through governed queries — coexist in one process
// and answer byte-identically to their serial uncached equivalent; pinned
// MVCC snapshots make a writer invisible; the whole-query memo
// distinguishes snapshot versions instead of aliasing across them and is
// shared across thread counts; a governed query bypasses the resultant
// memo too; a session Fixpoint is semi-naive and byte-identical to the Z_k
// naive loop; and the facade's default session follows its database
// across moves.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/config.h"
#include "base/metrics.h"
#include "base/query_log.h"
#include "base/resource.h"
#include "base/thread_pool.h"
#include "engine/database.h"
#include "engine/session.h"
#include "qe/qe_cache.h"

namespace ccdb {
namespace {

std::string Render(const StatusOr<CalcFResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out = result->relation.ToString(result->column_names);
  if (result->has_scalar) {
    out += "|scalar=" + (result->scalar.exact
                             ? result->scalar.exact_value.ToString()
                             : std::to_string(result->scalar.approx_value));
  }
  return out;
}

// An uncached evaluation: a governed query (here with unlimited budgets)
// skips the whole-query memo and every QE / resultant memo lookup.
StatusOr<CalcFResult> UncachedQuery(const Session& session,
                                    const std::string& text) {
  return session.QueryWithPolicy(text, QueryPolicy{});
}

void DefineFixtures(ConstraintDatabase& db) {
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  ASSERT_TRUE(db.Define("D(x, y) := x^2 + y^2 <= 25").ok());
  ASSERT_TRUE(db.Define("L(x, y) := x + y <= 3 and x >= 0 and y >= 0").ok());
}

const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      "exists y (S(x, y) and y <= 0)",
      "exists y (D(x, y) and L(x, y))",
      "S(x, y) and D(x, y)",
      "SURFACE[x, y](L(x, y))(z)",
      "forall y (y >= 4*x^2 - 20*x + 25 or not D(x, y))",
  };
  return queries;
}

// Reach(x, y) :- Edge(x, y).  Reach(x, y) :- Reach(x, z), Edge(z, y).
DatalogProgram ReachProgram() {
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
    program.rules.push_back(rule);
  }
  return program;
}

TEST(SessionTest, OpenSessionAppliesConfigAndAssignsUniqueIds) {
  ConstraintDatabase db;
  EngineConfig one = EngineConfig::Process().WithThreads(1);
  EngineConfig eight = EngineConfig::Process().WithThreads(8);

  std::unique_ptr<Session> a = db.OpenSession(one);
  std::unique_ptr<Session> b = db.OpenSession(eight);

  std::set<std::uint64_t> ids = {a->id(), b->id()};
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_GT(a->id(), 0u);
  EXPECT_GT(b->id(), a->id()) << "ids are handed out in open order";

  // Private pools sized by the config, not by the Shared() singleton.
  ASSERT_NE(a->pool(), nullptr);
  ASSERT_NE(b->pool(), nullptr);
  EXPECT_NE(a->pool(), b->pool());
  EXPECT_EQ(a->pool()->threads(), 1);
  EXPECT_EQ(b->pool()->threads(), 8);
  EXPECT_EQ(a->options().qe.pool, a->pool());

  // Distinct configs, distinct fingerprints.
  EXPECT_NE(a->config_fingerprint(), b->config_fingerprint());
  EXPECT_EQ(a->config_fingerprint(), one.Fingerprint());
}

TEST(SessionTest, ConcurrentMixedConfigSessionsAreByteIdenticalToSerial) {
  // One session reading uncached at 1 thread and one reading through the
  // memo caches at 8 threads run the workload concurrently in one process.
  // Every answer must be byte-identical to its SERIAL EQUIVALENT — a fresh
  // single-threaded database read uncached: neither the memo caches, nor
  // the thread count, nor the session machinery may change a rendering.
  ConstraintDatabase db;
  DefineFixtures(db);

  ThreadPool serial_pool(1);
  CalcFOptions serial_options;
  serial_options.qe.pool = &serial_pool;
  ConstraintDatabase serial(serial_options);
  DefineFixtures(serial);
  std::vector<std::string> serial_answers;
  for (const std::string& query : Workload()) {
    serial_answers.push_back(
        Render(serial.QueryWithPolicy(query, QueryPolicy{})));
  }

  std::unique_ptr<Session> slow =
      db.OpenSession(EngineConfig::Process().WithThreads(1));
  std::unique_ptr<Session> fast =
      db.OpenSession(EngineConfig::Process().WithThreads(8));

  constexpr int kRounds = 3;
  std::vector<std::string> slow_failures, fast_failures;
  auto run = [&](Session* session, bool uncached,
                 const std::vector<std::string>* serial,
                 std::vector<std::string>* failures) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < Workload().size(); ++i) {
        const std::string& text = Workload()[i];
        std::string got = Render(uncached ? UncachedQuery(*session, text)
                                          : session->Query(text));
        if (got != (*serial)[i]) {
          failures->push_back("round " + std::to_string(round) + " query " +
                              text + ": " + got + " != " + (*serial)[i]);
        }
      }
    }
  };
  std::thread t1(run, slow.get(), true, &serial_answers, &slow_failures);
  std::thread t2(run, fast.get(), false, &serial_answers, &fast_failures);
  t1.join();
  t2.join();

  EXPECT_TRUE(slow_failures.empty()) << slow_failures.front();
  EXPECT_TRUE(fast_failures.empty()) << fast_failures.front();
}

TEST(SessionTest, PinnedSnapshotMakesWriterInvisibleUntilRepin) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 1)";
  const std::string before = Render(db.Query(query));

  std::unique_ptr<Session> session = db.OpenSession();
  session->PinSnapshot();
  EXPECT_TRUE(session->pinned());
  const std::uint64_t pinned_version = session->snapshot()->version();

  // The writer widens S and churns another relation; the pinned session
  // keeps answering from its version.
  ASSERT_TRUE(db.Insert("S(x, y) := x + y <= 20 and x >= -5 and y >= 0").ok());
  ASSERT_TRUE(db.Define("T(x) := x <= 1").ok());
  const std::string after = Render(db.Query(query));
  ASSERT_NE(before, after) << "fixture: the insert must change the answer";

  EXPECT_EQ(Render(session->Query(query)), before);
  EXPECT_EQ(session->snapshot()->version(), pinned_version);
  // A pinned session cannot even see relations defined after the pin.
  EXPECT_FALSE(session->Query("T(x) and x >= 0").ok());

  // Re-pinning moves the session to the current version; Unpin returns it
  // to always-current reads.
  session->PinSnapshot();
  EXPECT_GT(session->snapshot()->version(), pinned_version);
  EXPECT_EQ(Render(session->Query(query)), after);
  EXPECT_TRUE(session->Query("T(x) and x >= 0").ok());
  session->Unpin();
  EXPECT_FALSE(session->pinned());
  EXPECT_EQ(Render(session->Query(query)), after);
}

TEST(SessionTest, WholeQueryCacheIsVersionedAcrossPinnedSessions) {
  // Hit-counter assertions for the versioned whole-query memo: a pinned
  // session keeps HITTING its old version's entry after a writer mutates
  // (and keeps getting the old answer), while a fresh-snapshot session
  // MISSES and computes the new answer. The cache key carries the read-set
  // versions, so neither aliases the other.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 1)";

  std::unique_ptr<Session> old_session = db.OpenSession();
  old_session->PinSnapshot();

  StatusOr<ExplainAnalyzeResult> miss = old_session->Explain(query);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->profile.from_cache) << "first evaluation must be a miss";
  const std::string old_answer =
      miss->result.relation.ToString(miss->result.column_names);

  ASSERT_TRUE(db.Insert("S(x, y) := x + y <= 20 and x >= -5 and y >= 0").ok());

  StatusOr<ExplainAnalyzeResult> hit = old_session->Explain(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->profile.from_cache)
      << "pinned session must hit its version's entry after the write";
  EXPECT_EQ(hit->result.relation.ToString(hit->result.column_names),
            old_answer);

  std::unique_ptr<Session> new_session = db.OpenSession();
  StatusOr<ExplainAnalyzeResult> fresh = new_session->Explain(query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->profile.from_cache)
      << "new version must be a distinct cache entry";
  EXPECT_NE(fresh->result.relation.ToString(fresh->result.column_names),
            old_answer);

  // And the new version's entry is itself warm now.
  StatusOr<ExplainAnalyzeResult> warm = new_session->Explain(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->profile.from_cache);
}

TEST(SessionTest, SessionsAtDifferentThreadCountsShareCacheEntries) {
  // The whole-query key is the database, the read-set versions and the
  // text: answers and stats (plan summary included) are the same at every
  // thread count, so a session at 8 threads is served the entry a 1-thread
  // session computed — and its warm EXPLAIN still reports the plan.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string query = "exists y (S(x, y) and y <= 0)";

  std::unique_ptr<Session> serial =
      db.OpenSession(EngineConfig::Process().WithThreads(1));
  std::unique_ptr<Session> parallel =
      db.OpenSession(EngineConfig::Process().WithThreads(8));

  StatusOr<ExplainAnalyzeResult> cold = serial->Explain(query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->profile.from_cache);
  ASSERT_FALSE(cold->result.stats.plan.empty());

  StatusOr<ExplainAnalyzeResult> warm = parallel->Explain(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->profile.from_cache)
      << "the 8-thread session must hit the 1-thread session's entry";
  EXPECT_EQ(warm->result.relation.ToString(warm->result.column_names),
            cold->result.relation.ToString(cold->result.column_names));
  EXPECT_EQ(warm->result.stats.plan, cold->result.stats.plan);
  EXPECT_NE(warm->ToString().find("PLAN                    " +
                                  cold->result.stats.plan + "  (cached)"),
            std::string::npos)
      << warm->ToString();
}

TEST(SessionTest, SessionFixpointIsSemiNaiveAndMatchesTheZkNaiveLoop) {
  // A session Fixpoint runs semi-naive; a Z_k run (precision_k set far
  // above any bit length here, so the verdict never trips) runs the naive
  // loop. Both reach a byte-identical model, and the stats show which path
  // actually ran (deltas only exist on the semi-naive path). The two runs
  // carry different program keys, so neither replays the other's state.
  ConstraintDatabase db;
  ASSERT_TRUE(
      db.Define("Edge(x, y) := y - x = 1 and x >= 0 and x <= 3").ok());

  DatalogProgram program = ReachProgram();
  std::unique_ptr<Session> session = db.OpenSession();
  DatalogOptions naive_options;
  naive_options.precision_k = 1u << 20;

  DatalogStats stats_semi, stats_naive;
  auto model_semi = session->Fixpoint(program, {}, &stats_semi);
  auto model_naive = session->Fixpoint(program, naive_options, &stats_naive);
  ASSERT_TRUE(model_semi.ok()) << model_semi.status().ToString();
  ASSERT_TRUE(model_naive.ok()) << model_naive.status().ToString();

  ASSERT_EQ(model_semi->count("Reach"), 1u);
  ASSERT_EQ(model_naive->count("Reach"), 1u);
  EXPECT_EQ(model_semi->at("Reach").ToString({"x", "y"}),
            model_naive->at("Reach").ToString({"x", "y"}));
  EXPECT_TRUE(stats_semi.reached_fixpoint);
  EXPECT_TRUE(stats_naive.reached_fixpoint);
  EXPECT_GT(stats_semi.delta_tuples, 0u) << "semi-naive path must have run";
  EXPECT_EQ(stats_naive.delta_tuples, 0u) << "naive path must have run";
}

TEST(SessionTest, GovernedQueryBypassesTheResultantCache) {
  // A governed query must not read the resultant / discriminant / gcd
  // memo behind CAD projection and lifting: every memo lookup is skipped
  // under a governor, so budget charging never depends on temperature.
  Counter* hits = MetricsRegistry::Global().GetCounter("resultant_cache_hits");
  const std::string query = "exists y (D(x, y) and S(x, y))";  // a CAD
  ConstraintDatabase db;
  DefineFixtures(db);
  std::unique_ptr<Session> session = db.OpenSession();

  ASSERT_TRUE(session->Query(query).ok());  // warms the resultant memo
  std::uint64_t before = hits->value();
  StatusOr<CalcFResult> uncached = UncachedQuery(*session, query);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_EQ(hits->value(), before)
      << "a governed query must not read the resultant memo";

  // Control: the same CAD ungoverned does hit the warmed resultants (a
  // fresh database and a cleared QE result memo force the CAD to run
  // again).
  QeResultCache().Clear();
  ConstraintDatabase fresh;
  DefineFixtures(fresh);
  before = hits->value();
  StatusOr<CalcFResult> cached = fresh.Query(query);
  EXPECT_GT(hits->value(), before);
  EXPECT_EQ(Render(uncached), Render(cached));
}

// Reads the new owner's catalog through every facade read kind and returns
// the rendered answers, plus whether a repeated query was served by the
// whole-query memo (never under governed options).
std::string ReadThroughFacade(const ConstraintDatabase& db) {
  const std::string text = "exists y (Edge(x, y) and y <= 2)";
  StatusOr<CalcFResult> query = db.Query(text);
  std::string out = Render(query);
  Counter* hits = MetricsRegistry::Global().GetCounter("query_cache_hits");
  const std::uint64_t hits_before = hits->value();
  (void)db.Query(text);
  if (hits->value() > hits_before) out += "|cached";
  auto model = db.Fixpoint(ReachProgram());
  out += "|" + (model.ok() ? model->at("Reach").ToString({"x", "y"})
                           : "error: " + model.status().ToString());
  auto read_set = db.ReadSet("Edge(x, y)");
  out += "|" + (read_set.ok() && read_set->size() == 1 &&
                        (*read_set)[0].second > 0
                    ? std::string("live")
                    : std::string("stale"));
  return out;
}

TEST(SessionTest, DefaultSessionFollowsTheDatabaseAcrossMoves) {
  // The facade's default session is bound to its database; every kind of
  // move — OpenDurable's by-value return, move-construction,
  // move-assignment (also through std::optional) — must leave the new
  // owner reading its own catalog, under its own options, with session
  // id 0 and the process config fingerprint.
  const std::string log_path =
      testing::TempDir() + "/ccdb_session_moves.jsonl";
  const std::string store = testing::TempDir() + "/ccdb_session_moves_store";
  std::filesystem::remove(log_path);
  std::filesystem::remove_all(store);
  ASSERT_TRUE(QueryLog::Global().Enable(log_path).ok());

  const std::string edge = "Edge(x, y) := y - x = 1 and x >= 0 and x <= 3";
  // Explicit governed options (unlimited budgets: no answer changes, but
  // the whole-query memo stands down) travel with the moved database; the
  // targets below start out with the defaults.
  ResourceGovernor unlimited{ResourceLimits{}};
  CalcFOptions governed;
  governed.governor = &unlimited;
  ConstraintDatabase reference(governed);
  ASSERT_TRUE(reference.Define(edge).ok());
  const std::string want = ReadThroughFacade(reference);
  ASSERT_EQ(want.find("error"), std::string::npos) << want;
  ASSERT_NE(want.find("|live"), std::string::npos) << want;
  ASSERT_EQ(want.find("|cached"), std::string::npos) << want;

  StatusOr<ConstraintDatabase> opened =
      ConstraintDatabase::OpenDurable(store, governed);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->Define(edge).ok());
  EXPECT_EQ(ReadThroughFacade(*opened), want) << "after OpenDurable";

  ConstraintDatabase constructed(std::move(*opened));
  EXPECT_EQ(ReadThroughFacade(constructed), want) << "after move-construct";

  ConstraintDatabase assigned;
  assigned = std::move(constructed);
  EXPECT_EQ(ReadThroughFacade(assigned), want) << "after move-assign";

  std::optional<ConstraintDatabase> slot;
  slot.emplace();
  *slot = std::move(assigned);
  EXPECT_EQ(ReadThroughFacade(*slot), want) << "after optional move-assign";
  // A write through the new owner is visible to its own reads.
  ASSERT_TRUE(slot->Define("Late(x) := x >= 0").ok());
  EXPECT_TRUE(slot->Query("Late(x) and x <= 1").ok());
  slot.reset();

  QueryLog::Global().Disable();
  std::ifstream in(log_path);
  const std::string config =
      "\"config\":\"" + EngineConfig::Process().Fingerprint() + "\"";
  int records = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++records;
    EXPECT_NE(line.find("\"session_id\":0"), std::string::npos) << line;
    EXPECT_NE(line.find(config), std::string::npos) << line;
  }
  EXPECT_EQ(records, 11) << "one record per facade query";
  std::filesystem::remove(log_path);
  std::filesystem::remove_all(store);
}

}  // namespace
}  // namespace ccdb
