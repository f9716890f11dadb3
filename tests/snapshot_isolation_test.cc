#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/config.h"
#include "engine/database.h"
#include "engine/session.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace ccdb {
namespace {

// Snapshot isolation under concurrency: readers racing a mutation storm
// must only ever observe complete catalog versions — a snapshot's content
// is byte-identical to the state the writer published under that version,
// never a half-applied mutation. Run under TSan to also certify the
// catalog's memory ordering.

std::string TempDir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + leaf;
  std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

TEST(SnapshotIsolationTest, ReadersSeeOnlyCompleteVersionsDuringStorm) {
  constexpr int kReaders = 8;
  constexpr int kMutations = 200;

  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelationFromText("Base(x) := x <= 0").ok());

  // The writer publishes the authoritative (version -> serialized state)
  // history. Any version a reader snapshots must appear here with exactly
  // this content — that is the "no torn catalog" property.
  std::mutex history_mu;
  std::map<std::uint64_t, std::string> history;
  {
    auto snapshot = catalog.Snapshot();
    std::lock_guard<std::mutex> lock(history_mu);
    history[snapshot->version()] = snapshot->Serialize();
  }

  std::atomic<bool> done{false};
  std::vector<std::string> reader_failures(kReaders);
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> observed(
      kReaders);
  // Readers publish how many snapshots they have taken so the writer can
  // keep the storm alive until everyone has actually gotten one in: the
  // fixed mutation count alone can finish before the reader threads are
  // even scheduled (the arithmetic fast paths made the storm ~10x
  // shorter), which would make the final coverage check vacuous.
  std::atomic<std::uint64_t> observed_count[kReaders] = {};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snapshot = catalog.Snapshot();
        // Versions a single reader observes never go backwards.
        if (snapshot->version() < last_version) {
          reader_failures[r] = "version went backwards: " +
                               std::to_string(snapshot->version()) + " < " +
                               std::to_string(last_version);
          return;
        }
        last_version = snapshot->version();
        // A snapshot is internally coherent: every name it lists resolves,
        // and Base (never dropped) is always present.
        if (!snapshot->HasRelation("Base")) {
          reader_failures[r] = "snapshot lost the Base relation";
          return;
        }
        for (const std::string& name : snapshot->RelationNames()) {
          if (!snapshot->GetRelation(name).ok()) {
            reader_failures[r] = "listed relation did not resolve: " + name;
            return;
          }
        }
        observed[r].emplace_back(snapshot->version(), snapshot->Serialize());
        observed_count[r].fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Single writer: define/drop churn. After each mutation it records the
  // new version's exact serialization in the history map. Past the fixed
  // mutation count, keep churning until every reader has snapshotted at
  // least once (bounded by a generous wall-clock cap so a pathologically
  // starved reader fails the coverage check instead of hanging the test).
  const auto storm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto all_readers_observed = [&] {
    for (int r = 0; r < kReaders; ++r) {
      if (observed_count[r].load(std::memory_order_acquire) == 0) return false;
    }
    return true;
  };
  for (int i = 0; i < kMutations || (!all_readers_observed() &&
                                     std::chrono::steady_clock::now() <
                                         storm_deadline);
       ++i) {
    const std::string name = "R" + std::to_string(i % 10);
    if (catalog.HasRelation(name)) {
      ASSERT_TRUE(catalog.DropRelation(name).ok());
    } else {
      ASSERT_TRUE(catalog
                      .AddRelationFromText(name + "(x, y) := x + y <= " +
                                           std::to_string(i))
                      .ok());
    }
    auto snapshot = catalog.Snapshot();
    {
      std::lock_guard<std::mutex> lock(history_mu);
      history[snapshot->version()] = snapshot->Serialize();
    }
    if (i >= kMutations) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(reader_failures[r], "") << "reader " << r;
  }

  // Every observed (version, content) pair matches the writer's history —
  // no reader ever saw a version the writer didn't publish, nor a
  // published version with different content.
  std::size_t checked = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const auto& [version, text] : observed[r]) {
      auto it = history.find(version);
      ASSERT_NE(it, history.end())
          << "reader " << r << " saw unpublished version " << version;
      EXPECT_EQ(it->second, text)
          << "reader " << r << " saw torn content for version " << version;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "readers never got a snapshot in";
}

TEST(SnapshotIsolationTest, QueriesDuringMutationStormUseOneSnapshot) {
  // The database-level variant: concurrent Query() calls while relations
  // churn must each succeed or fail cleanly against one catalog version —
  // never crash, never mix versions mid-query.
  constexpr int kReaders = 8;

  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());

  std::atomic<bool> done{false};
  std::vector<std::string> failures(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = db.Query("exists y (S(x, y) and y <= 1)");
        if (!result.ok()) {
          failures[r] = result.status().ToString();
          return;
        }
      }
    });
  }

  for (int i = 0; i < 100; ++i) {
    const std::string name = "T" + std::to_string(i % 5);
    if (i % 2 == 0) {
      Status st = db.Define(name + "(x) := x <= " + std::to_string(i));
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kAlreadyExists)
          << st.ToString();
    } else {
      Status st = db.Drop(name);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kNotFound)
          << st.ToString();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(failures[r], "") << "reader " << r;
  }
}

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

TEST(SnapshotIsolationTest, PinnedSessionsMatchSerialReplayDuringStorm) {
  // The MVCC acceptance test: 8 reader SESSIONS (half reading through the
  // memo caches at 1 thread, half uncached at 2 threads) run multi-round
  // queries against pinned snapshots while one writer defines / inserts /
  // drops. Every result a reader observed must be byte-identical to a
  // serial replay of the same query against a fresh database rebuilt from
  // the exact snapshot the session had pinned — i.e. concurrent mutations
  // are completely invisible to a pinned reader, and snapshot content
  // fully determines the answer at every session config.
  constexpr int kReaders = 8;

  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := x + y <= 10 and x >= 0 and y >= 0").ok());

  struct Observation {
    std::string snapshot_text;
    std::vector<std::pair<std::string, std::string>> results;  // query, render
  };

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::atomic<std::uint64_t> rounds_done[kReaders] = {};

  const std::vector<std::string> kQueries = {
      "exists y (S(x, y) and y <= 1)",
      "S(x, y) and x >= 9",
      "T0(x) and x >= 0",  // churned: exists in some snapshots only
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Even readers read through the memo caches at 1 thread; odd readers
      // read uncached (a governed query skips every memo lookup) at 2.
      const bool cached = r % 2 == 0;
      std::unique_ptr<Session> session = db.OpenSession(
          EngineConfig::Process().WithThreads(cached ? 1 : 2));
      while (!done.load(std::memory_order_acquire)) {
        session->PinSnapshot();
        Observation obs;
        obs.snapshot_text = session->snapshot()->Serialize();
        for (const std::string& query : kQueries) {
          obs.results.emplace_back(
              query, Render(cached ? session->Query(query)
                                   : session->QueryWithPolicy(
                                         query, QueryPolicy{})));
        }
        // The pin must have held across all queries of the round: the
        // serialization is unchanged even though the writer kept mutating.
        ASSERT_EQ(session->snapshot()->Serialize(), obs.snapshot_text)
            << "reader " << r << ": pinned snapshot changed mid-round";
        observations[r].push_back(std::move(obs));
        rounds_done[r].fetch_add(1, std::memory_order_release);
      }
      session->Unpin();
    });
  }

  // Writer: churn T0..T4 (define/drop) and grow S (append-only inserts),
  // until every reader has finished at least two full rounds.
  const auto storm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  auto all_readers_round_twice = [&] {
    for (int r = 0; r < kReaders; ++r) {
      if (rounds_done[r].load(std::memory_order_acquire) < 2) return false;
    }
    return true;
  };
  for (int i = 0; i < 60 || (!all_readers_round_twice() &&
                             std::chrono::steady_clock::now() <
                                 storm_deadline);
       ++i) {
    const std::string name = "T" + std::to_string(i % 5);
    if (i % 3 == 0) {
      ASSERT_TRUE(
          db.Insert("S(x, y) := x + y <= " + std::to_string(11 + i) +
                    " and x >= " + std::to_string(20 + i))
              .ok());
    } else if (db.catalog().HasRelation(name)) {
      ASSERT_TRUE(db.Drop(name).ok());
    } else {
      ASSERT_TRUE(db.Define(name + "(x) := x <= " + std::to_string(i)).ok());
    }
    if (i >= 60) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Serial replay: rebuild each pinned state in a fresh database and rerun
  // the queries single-threaded through the facade. Replays dedupe on the
  // snapshot text (readers pin the same versions repeatedly).
  std::map<std::string, std::map<std::string, std::string>> replayed;
  std::size_t checked = 0;
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_GE(observations[r].size(), 2u) << "reader " << r;
    for (const Observation& obs : observations[r]) {
      auto it = replayed.find(obs.snapshot_text);
      if (it == replayed.end()) {
        StatusOr<Catalog> catalog = Catalog::Deserialize(obs.snapshot_text);
        ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
        ConstraintDatabase serial;
        for (const std::string& name : catalog->RelationNames()) {
          StatusOr<ConstraintRelation> rel = catalog->GetRelation(name);
          ASSERT_TRUE(rel.ok());
          ASSERT_TRUE(serial.Register(name, std::move(*rel)).ok());
        }
        std::map<std::string, std::string> results;
        for (const std::string& query : kQueries) {
          results[query] = Render(serial.Query(query));
        }
        it = replayed.emplace(obs.snapshot_text, std::move(results)).first;
      }
      for (const auto& [query, rendered] : obs.results) {
        EXPECT_EQ(rendered, it->second[query])
            << "reader " << r << " diverged from serial replay on: " << query;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(SnapshotIsolationTest, VersionStrictlyMonotoneAcrossDurableReopen) {
  const std::string dir = TempDir("ccdb_snapshot_iso_reopen");
  DurabilityOptions options;
  options.fsync = WalFsyncPolicy::kOff;  // in-process reopen, no crash

  std::uint64_t version_before = 0;
  {
    auto db = ConstraintDatabase::OpenDurable(dir, {}, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db.value().Define("A(x) := x <= 1").ok());
    ASSERT_TRUE(db.value().Define("B(x) := x <= 2").ok());
    version_before = db.value().catalog().version();
    EXPECT_GT(version_before, 0u);
  }  // close checkpoints

  std::uint64_t version_reopened = 0;
  {
    auto db = ConstraintDatabase::OpenDurable(dir, {}, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    version_reopened = db.value().catalog().version();
    // Strictly greater: a recovered catalog may never reuse a pre-close
    // version, or memo caches keyed on (query, version) could alias
    // pre-crash state.
    EXPECT_GT(version_reopened, version_before);
    ASSERT_TRUE(db.value().Define("C(x) := x <= 3").ok());
    EXPECT_GT(db.value().catalog().version(), version_reopened);
  }

  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

}  // namespace
}  // namespace ccdb
