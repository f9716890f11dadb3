// EngineConfig (base/config.h): the single place CCDB_* knobs are
// resolved. Covers the env parser's accepted spellings, the one-warning-
// per-bad-knob diagnostic contract (each warning names the variable and
// the fallback actually used — startup never crashes on a bad
// environment), the With* value-semantics builders, and the fingerprint
// identity logged in schema-3 query-log records.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/config.h"

namespace ccdb {
namespace {

// Sets/unsets environment variables for one test and restores the prior
// values on destruction, so config tests don't leak knobs into each other
// (or into EngineConfig::Process(), which other tests read — note Process
// is resolved on FIRST use, so these tests only ever exercise FromEnv).
class ScopedEnv {
 public:
  void Set(const std::string& name, const std::string& value) {
    Save(name);
    ::setenv(name.c_str(), value.c_str(), /*overwrite=*/1);
  }
  void Unset(const std::string& name) {
    Save(name);
    ::unsetenv(name.c_str());
  }
  ~ScopedEnv() {
    for (const auto& [name, prior] : saved_) {
      if (prior.second) {
        ::setenv(name.c_str(), prior.first.c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

 private:
  void Save(const std::string& name) {
    if (saved_.count(name)) return;
    const char* value = ::getenv(name.c_str());
    saved_.emplace(name,
                   std::make_pair(value == nullptr ? "" : value,
                                  value != nullptr));
  }
  std::map<std::string, std::pair<std::string, bool>> saved_;
};

const char* kAllKnobs[] = {
    "CCDB_THREADS",   "CCDB_LOG_LEVEL",
    "CCDB_TRACE",     "CCDB_QUERY_LOG",
    "CCDB_WAL_FSYNC", "CCDB_WAL_CHECKPOINT_BYTES",
};

TEST(ConfigTest, CleanEnvironmentYieldsDefaultsWithoutWarnings) {
  ScopedEnv env;
  for (const char* knob : kAllKnobs) env.Unset(knob);

  std::vector<std::string> warnings;
  EngineConfig config = EngineConfig::FromEnv(&warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(config.threads, 1);
  EXPECT_EQ(config.log_level, "WARN");
  EXPECT_FALSE(config.trace);
  EXPECT_EQ(config.query_log_path, "");
  EXPECT_EQ(config.wal_fsync, "always");
  EXPECT_EQ(config.wal_checkpoint_bytes, 1u << 20);
}

TEST(ConfigTest, ValidKnobsAreParsed) {
  ScopedEnv env;
  for (const char* knob : kAllKnobs) env.Unset(knob);
  env.Set("CCDB_THREADS", "8");
  env.Set("CCDB_LOG_LEVEL", "ERROR");
  env.Set("CCDB_TRACE", "1");
  env.Set("CCDB_QUERY_LOG", "/tmp/q.jsonl");
  env.Set("CCDB_WAL_FSYNC", "batch");
  env.Set("CCDB_WAL_CHECKPOINT_BYTES", "65536");

  std::vector<std::string> warnings;
  EngineConfig config = EngineConfig::FromEnv(&warnings);
  EXPECT_TRUE(warnings.empty()) << warnings.front();
  EXPECT_EQ(config.threads, 8);
  EXPECT_EQ(config.log_level, "ERROR");
  EXPECT_TRUE(config.trace);
  EXPECT_EQ(config.query_log_path, "/tmp/q.jsonl");
  EXPECT_EQ(config.wal_fsync, "batch");
  EXPECT_EQ(config.wal_checkpoint_bytes, 65536u);

  // Every boolean spelling: 0|1|true|false|on|off, case-insensitive.
  const std::pair<const char*, bool> kSpellings[] = {
      {"0", false},   {"1", true},  {"true", true}, {"FALSE", false},
      {"off", false}, {"on", true}, {"On", true},   {"false", false},
  };
  for (const auto& [spelling, want] : kSpellings) {
    env.Set("CCDB_TRACE", spelling);
    warnings.clear();
    config = EngineConfig::FromEnv(&warnings);
    EXPECT_TRUE(warnings.empty()) << spelling << ": " << warnings.front();
    EXPECT_EQ(config.trace, want) << spelling;
  }
}

TEST(ConfigTest, EachBadKnobWarnsOnceNamingVariableAndFallback) {
  ScopedEnv env;
  for (const char* knob : kAllKnobs) env.Unset(knob);
  env.Set("CCDB_THREADS", "zero");       // not an integer
  env.Set("CCDB_TRACE", "fales");        // the typo that motivated ParseBool
  env.Set("CCDB_WAL_CHECKPOINT_BYTES", "-4");  // negative
  env.Set("CCDB_LOG_LEVEL", "verbose");  // unknown level
  env.Set("CCDB_WAL_FSYNC", "sometimes");  // unknown policy

  std::vector<std::string> warnings;
  EngineConfig config = EngineConfig::FromEnv(&warnings);

  // One warning per bad knob — no more (no repeats), no fewer (none
  // silently swallowed).
  ASSERT_EQ(warnings.size(), 5u);
  auto warning_for = [&](const std::string& name) -> std::string {
    for (const std::string& w : warnings) {
      if (w.find(name) == 0) return w;
    }
    ADD_FAILURE() << "no warning names " << name;
    return "";
  };
  // Each names the rejected value and the fallback actually used.
  EXPECT_NE(warning_for("CCDB_THREADS").find("\"zero\""), std::string::npos);
  EXPECT_NE(warning_for("CCDB_THREADS").find("using 1"), std::string::npos);
  EXPECT_NE(warning_for("CCDB_TRACE").find("\"fales\""), std::string::npos);
  EXPECT_NE(warning_for("CCDB_TRACE").find("using 0"), std::string::npos);
  EXPECT_NE(warning_for("CCDB_WAL_CHECKPOINT_BYTES").find("\"-4\""),
            std::string::npos);
  EXPECT_NE(warning_for("CCDB_WAL_CHECKPOINT_BYTES").find("using 1048576"),
            std::string::npos);
  EXPECT_NE(warning_for("CCDB_LOG_LEVEL").find("\"verbose\""),
            std::string::npos);
  EXPECT_NE(warning_for("CCDB_LOG_LEVEL").find("using WARN"),
            std::string::npos);
  EXPECT_NE(warning_for("CCDB_WAL_FSYNC").find("\"sometimes\""),
            std::string::npos);
  EXPECT_NE(warning_for("CCDB_WAL_FSYNC").find("using always"),
            std::string::npos);

  // And every bad knob actually fell back — never crashed, never guessed.
  EXPECT_EQ(config.threads, 1);
  EXPECT_FALSE(config.trace);
  EXPECT_EQ(config.log_level, "WARN");
  EXPECT_EQ(config.wal_fsync, "always");
  EXPECT_EQ(config.wal_checkpoint_bytes, 1u << 20);
}

TEST(ConfigTest, ThreadCountBoundsAreEnforced) {
  ScopedEnv env;
  for (const char* knob : kAllKnobs) env.Unset(knob);

  env.Set("CCDB_THREADS", "0");
  std::vector<std::string> warnings;
  EXPECT_EQ(EngineConfig::FromEnv(&warnings).threads, 1);
  EXPECT_EQ(warnings.size(), 1u);

  env.Set("CCDB_THREADS", "5000");  // above the 4096 sanity cap
  warnings.clear();
  EXPECT_EQ(EngineConfig::FromEnv(&warnings).threads, 1);
  EXPECT_EQ(warnings.size(), 1u);

  env.Set("CCDB_THREADS", "4096");
  warnings.clear();
  EXPECT_EQ(EngineConfig::FromEnv(&warnings).threads, 4096);
  EXPECT_TRUE(warnings.empty());
}

TEST(ConfigTest, WithBuildersAreValueSemantics) {
  EngineConfig base;
  EngineConfig changed = base.WithThreads(4);
  // The original is untouched (builders copy).
  EXPECT_EQ(base.threads, 1);
  EXPECT_EQ(changed.threads, 4);
  // WithThreads clamps below 1 (a session pool always has one runner).
  EXPECT_EQ(base.WithThreads(0).threads, 1);
  EXPECT_EQ(base.WithThreads(-3).threads, 1);
}

TEST(ConfigTest, FingerprintIsStableAndConfigSensitive) {
  EngineConfig a;
  EngineConfig b;
  // 16 lowercase hex digits, equal for equal configs across calls.
  const std::string fp = a.Fingerprint();
  ASSERT_EQ(fp.size(), 16u);
  for (char c : fp) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  EXPECT_EQ(fp, a.Fingerprint());
  EXPECT_EQ(fp, b.Fingerprint());

  // Every field moves the fingerprint (it hashes Canonical(), which
  // renders every field).
  EXPECT_NE(fp, a.WithThreads(2).Fingerprint());
  EngineConfig quiet = a;
  quiet.log_level = "ERROR";
  EXPECT_NE(fp, quiet.Fingerprint());
  EngineConfig traced = a;
  traced.trace = true;
  EXPECT_NE(fp, traced.Fingerprint());
  EngineConfig logged = a;
  logged.query_log_path = "q.jsonl";
  EXPECT_NE(fp, logged.Fingerprint());
  EngineConfig batched = a;
  batched.wal_fsync = "batch";
  EXPECT_NE(fp, batched.Fingerprint());
  EngineConfig eager_checkpoint = a;
  eager_checkpoint.wal_checkpoint_bytes = 4096;
  EXPECT_NE(fp, eager_checkpoint.Fingerprint());
  // Distinct overrides, distinct fingerprints.
  EXPECT_NE(a.WithThreads(2).Fingerprint(), a.WithThreads(3).Fingerprint());

  // The canonical rendering is the fingerprint's preimage and names every
  // knob.
  const std::string canonical = a.Canonical();
  for (const char* key :
       {"threads=", "log_level=", "trace=",
        "query_log=", "wal_fsync=", "wal_checkpoint_bytes="}) {
    EXPECT_NE(canonical.find(key), std::string::npos) << key;
  }
}

TEST(ConfigTest, ToStringNamesEveryKnobAndTheFingerprint) {
  EngineConfig config;
  const std::string table = config.ToString();
  EXPECT_NE(table.find(config.Fingerprint()), std::string::npos);
  for (const char* key :
       {"threads", "log_level", "trace", "query_log",
        "wal_fsync", "wal_checkpoint_bytes"}) {
    EXPECT_NE(table.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace ccdb
