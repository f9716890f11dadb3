// Structured query-log tests (Observability v2, DESIGN.md §12): the
// JSONL black-box recorder must capture every facade query — plain,
// governed, EXPLAIN ANALYZE, and failed — with the schema-3 fields
// (read-set and invalidation scope, session id, resolved-config
// fingerprint), while never changing an answer (logging is observation
// only).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/config.h"
#include "base/query_log.h"
#include "base/resource.h"
#include "engine/database.h"
#include "engine/session.h"

namespace ccdb {
namespace {

std::string TempLogPath(const char* tag) {
  return testing::TempDir() + "/ccdb_query_log_" + tag + ".jsonl";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class QueryLogTest : public testing::Test {
 protected:
  void TearDown() override { QueryLog::Global().Disable(); }
};

TEST_F(QueryLogTest, HashTextIsStableHex) {
  std::string h = QueryLog::HashText("exists y (S(x, y) and y <= 0)");
  EXPECT_EQ(h.size(), 16u);
  for (char c : h) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  EXPECT_EQ(h, QueryLog::HashText("exists y (S(x, y) and y <= 0)"));
  EXPECT_NE(h, QueryLog::HashText("exists y (S(x, y) and y <= 1)"));
}

TEST_F(QueryLogTest, RecordsPlainGovernedAndAnalyzedQueries) {
  std::string path = TempLogPath("kinds");
  std::remove(path.c_str());
  ASSERT_TRUE(QueryLog::Global().Enable(path).ok());

  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string text = "exists y (S(x, y) and y <= 0)";
  ASSERT_TRUE(db.Query(text).ok());

  QueryPolicy policy;
  policy.limits = ResourceLimits::Deadline(30.0);
  QueryVerdict verdict;
  ASSERT_TRUE(db.QueryWithPolicy(text, policy, &verdict).ok());

  ASSERT_TRUE(db.ExplainAnalyze(text).ok());

  // A parse failure is still one record, carrying the error code.
  EXPECT_FALSE(db.Query("exists y (").ok());

  QueryLog::Global().Disable();
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);

  // Every record is one JSON object with the schema-3 envelope. Facade
  // (sessionless) records carry session_id 0 and the process config's
  // 16-hex fingerprint.
  const std::string process_fp =
      "\"config\":\"" + EngineConfig::Process().Fingerprint() + "\"";
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema_version\":3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"session_id\":0"), std::string::npos) << line;
    EXPECT_NE(line.find(process_fp), std::string::npos) << line;
    EXPECT_NE(line.find("\"text_hash\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"catalog_version\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"elapsed_seconds\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"read_set\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"invalidation\":"), std::string::npos) << line;
  }
  // Parsable queries carry their relation read-set and a per-relation
  // invalidation scope; the parse failure falls back to "global".
  EXPECT_NE(lines[0].find("\"read_set\":[\"S\"]"), std::string::npos);
  EXPECT_NE(lines[0].find("\"invalidation\":\"relations:[S]\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"invalidation\":\"relations:[S]\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"invalidation\":\"relations:[S]\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("\"invalidation\":\"global\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"kind\":\"query\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"governed\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"verdict\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"rung\":\"full\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"explain_analyze\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"profile\":"), std::string::npos);
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"error_code\":"), std::string::npos);

  // Identical text, identical hash across record kinds.
  std::string hash = "\"text_hash\":\"" + QueryLog::HashText(text) + "\"";
  EXPECT_NE(lines[0].find(hash), std::string::npos);
  EXPECT_NE(lines[1].find(hash), std::string::npos);
  EXPECT_NE(lines[2].find(hash), std::string::npos);
}

TEST_F(QueryLogTest, SessionRecordsCarrySessionIdAndConfigFingerprint) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());

  // A session routes its records to a session-owned log, stamped with the
  // session's id and the fingerprint of ITS resolved config — which
  // differs from the process fingerprint when the config differs. The
  // thread count is chosen to differ from the process's (CCDB_THREADS).
  const EngineConfig& process = EngineConfig::Process();
  EngineConfig config = process.WithThreads(process.threads == 1 ? 2 : 1);
  std::unique_ptr<Session> session = db.OpenSession(config);
  std::string path = TempLogPath("session");
  std::remove(path.c_str());
  QueryLog session_log;
  ASSERT_TRUE(session_log.Enable(path).ok());
  session->SetQueryLog(&session_log);

  ASSERT_TRUE(session->Query("exists y (S(x, y) and y <= 0)").ok());
  session_log.Disable();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"session_id\":" + std::to_string(session->id())),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"config\":\"" + config.Fingerprint() + "\""),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(config.Fingerprint(), session->config_fingerprint());
  EXPECT_NE(config.Fingerprint(), EngineConfig::Process().Fingerprint());
  // The global log saw none of it.
  EXPECT_FALSE(QueryLog::Global().enabled());
}

TEST_F(QueryLogTest, LoggingIsObservationOnly) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string text = "exists y (S(x, y) and y <= -1)";

  QueryLog::Global().Disable();
  auto off = db.Query(text);
  ASSERT_TRUE(off.ok());

  std::string path = TempLogPath("identity");
  std::remove(path.c_str());
  ASSERT_TRUE(QueryLog::Global().Enable(path).ok());
  auto on = db.Query(text);
  ASSERT_TRUE(on.ok());
  QueryLog::Global().Disable();

  EXPECT_EQ(off->relation.ToString(off->column_names),
            on->relation.ToString(on->column_names));
  EXPECT_EQ(ReadLines(path).size(), 1u);
}

TEST_F(QueryLogTest, EnableOnUnopenablePathFailsCleanly) {
  std::string path = testing::TempDir() + "/no_such_dir_ccdb/sub/q.jsonl";
  Status st = QueryLog::Global().Enable(path);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(QueryLog::Global().enabled());
  // The engine keeps answering with the log unopenable.
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x) := x <= 1").ok());
  EXPECT_TRUE(db.Query("S(x) and x >= 0").ok());
}

TEST_F(QueryLogTest, WriteFailureDisablesLoggingWithoutFailingQueries) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical disk-full stand-in. The first failed record must emit one
  // warning and self-disable; queries are never failed over it.
  ASSERT_TRUE(QueryLog::Global().Enable("/dev/full").ok());
  ASSERT_TRUE(QueryLog::Global().enabled());

  std::uint64_t before = QueryLog::Global().records_written();
  QueryLog::Global().Append("{\"probe\":\"disk-full\"}");
  EXPECT_FALSE(QueryLog::Global().enabled())
      << "write failure must disable the log";
  EXPECT_EQ(QueryLog::Global().records_written(), before);

  // Further appends are silent no-ops, and the facade still answers.
  QueryLog::Global().Append("{\"probe\":\"after-disable\"}");
  EXPECT_EQ(QueryLog::Global().records_written(), before);
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x) := x <= 1").ok());
  EXPECT_TRUE(db.Query("S(x) and x >= 0").ok());
}

TEST_F(QueryLogTest, DisableStopsRecording) {
  std::string path = TempLogPath("disable");
  std::remove(path.c_str());
  ASSERT_TRUE(QueryLog::Global().Enable(path).ok());
  std::uint64_t before = QueryLog::Global().records_written();
  QueryLog::Global().Append("{\"probe\":1}");
  EXPECT_EQ(QueryLog::Global().records_written(), before + 1);
  QueryLog::Global().Disable();
  QueryLog::Global().Append("{\"probe\":2}");
  EXPECT_EQ(QueryLog::Global().records_written(), before + 1);
  EXPECT_EQ(ReadLines(path).size(), 1u);
}

}  // namespace
}  // namespace ccdb
