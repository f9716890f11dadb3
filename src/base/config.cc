#include "base/config.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "base/logging.h"

namespace ccdb {

namespace {

// One warning per bad knob, naming the variable, the rejected value, and
// the fallback actually used. Echoed to stderr with plain fprintf (not
// CCDB_LOG: the log level itself is a knob being resolved here).
void Warn(std::vector<std::string>* warnings, const std::string& message) {
  std::fprintf(stderr, "ccdb: %s\n", message.c_str());
  if (warnings != nullptr) warnings->push_back(message);
}

// Accepted boolean spellings: 0/1, true/false, on/off (case-insensitive).
// Anything else is a diagnostic, not a silent guess — the historical
// "any value but 0 counts as on" behavior hid typos like CCDB_TRACE=fales.
bool ParseBool(const char* name, const char* value, bool fallback,
               std::vector<std::string>* warnings) {
  std::string v(value);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "1" || v == "true" || v == "on") return true;
  if (v == "0" || v == "false" || v == "off") return false;
  Warn(warnings, std::string(name) + ": invalid boolean \"" + value +
                     "\" (want 0|1|true|false|on|off); using " +
                     (fallback ? "1" : "0"));
  return fallback;
}

bool ParseU64(const char* value, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' ||
      std::strchr(value, '-') != nullptr) {
    return false;
  }
  *out = static_cast<std::uint64_t>(parsed);
  return true;
}

}  // namespace

EngineConfig EngineConfig::FromEnv(std::vector<std::string>* warnings) {
  EngineConfig config;
  if (const char* env = std::getenv("CCDB_THREADS")) {
    std::uint64_t parsed = 0;
    if (!ParseU64(env, &parsed) || parsed < 1 || parsed > 4096) {
      Warn(warnings, std::string("CCDB_THREADS: invalid thread count \"") +
                         env + "\" (want an integer in [1, 4096]); using " +
                         std::to_string(config.threads));
    } else {
      config.threads = static_cast<int>(parsed);
    }
  }
  if (const char* env = std::getenv("CCDB_QE_CACHE_CAPACITY")) {
    std::uint64_t parsed = 0;
    if (!ParseU64(env, &parsed) || parsed < 1) {
      Warn(warnings,
           std::string("CCDB_QE_CACHE_CAPACITY: invalid capacity \"") + env +
               "\" (want a positive integer); using " +
               std::to_string(config.qe_cache_capacity));
    } else {
      config.qe_cache_capacity = static_cast<std::size_t>(parsed);
    }
  }
  if (const char* env = std::getenv("CCDB_LOG_LEVEL")) {
    if (std::strcmp(env, "DEBUG") == 0 || std::strcmp(env, "INFO") == 0 ||
        std::strcmp(env, "WARN") == 0 || std::strcmp(env, "ERROR") == 0 ||
        std::strcmp(env, "OFF") == 0) {
      config.log_level = env;
    } else {
      Warn(warnings, std::string("CCDB_LOG_LEVEL: unknown level \"") + env +
                         "\" (want DEBUG|INFO|WARN|ERROR|OFF); using " +
                         config.log_level);
    }
  }
  if (const char* env = std::getenv("CCDB_TRACE")) {
    config.trace = ParseBool("CCDB_TRACE", env, config.trace, warnings);
  }
  if (const char* env = std::getenv("CCDB_QUERY_LOG")) {
    config.query_log_path = env;  // any path; open failures warn at bind
  }
  if (const char* env = std::getenv("CCDB_WAL_FSYNC")) {
    if (std::strcmp(env, "always") == 0 || std::strcmp(env, "batch") == 0 ||
        std::strcmp(env, "off") == 0) {
      config.wal_fsync = env;
    } else {
      Warn(warnings, std::string("CCDB_WAL_FSYNC: unknown policy \"") + env +
                         "\" (want always|batch|off); using " +
                         config.wal_fsync);
    }
  }
  if (const char* env = std::getenv("CCDB_WAL_CHECKPOINT_BYTES")) {
    std::uint64_t parsed = 0;
    if (!ParseU64(env, &parsed)) {
      Warn(warnings,
           std::string("CCDB_WAL_CHECKPOINT_BYTES: invalid byte count \"") +
               env + "\"; using " +
               std::to_string(config.wal_checkpoint_bytes));
    } else {
      config.wal_checkpoint_bytes = parsed;
    }
  }
  return config;
}

const EngineConfig& EngineConfig::Process() {
  // Resolved exactly once; warnings go to stderr that one time. Leaked on
  // purpose (read on shutdown paths).
  static const EngineConfig* config = new EngineConfig(FromEnv());
  return *config;
}

EngineConfig EngineConfig::WithThreads(int value) const {
  EngineConfig c = *this;
  c.threads = value < 1 ? 1 : value;
  return c;
}

std::string EngineConfig::Canonical() const {
  std::ostringstream out;
  out << "threads=" << threads << ",qe_cache_capacity=" << qe_cache_capacity
      << ",log_level=" << log_level
      << ",trace=" << trace << ",query_log=" << query_log_path
      << ",wal_fsync=" << wal_fsync
      << ",wal_checkpoint_bytes=" << wal_checkpoint_bytes;
  return out.str();
}

std::string EngineConfig::Fingerprint() const {
  // FNV-1a 64 over the canonical rendering — same construction as
  // QueryLog::HashText, so log consumers handle one hash shape.
  const std::string canonical = Canonical();
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : canonical) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

std::string EngineConfig::ToString() const {
  std::ostringstream out;
  out << "EngineConfig (fingerprint " << Fingerprint() << ")\n"
      << "  threads               " << threads << "\n"
      << "  qe_cache_capacity     " << qe_cache_capacity << "\n"
      << "  log_level             " << log_level << "\n"
      << "  trace                 " << (trace ? "on" : "off") << "\n"
      << "  query_log             "
      << (query_log_path.empty() ? "(disabled)" : query_log_path) << "\n"
      << "  wal_fsync             " << wal_fsync << "\n"
      << "  wal_checkpoint_bytes  " << wal_checkpoint_bytes << "\n";
  return out.str();
}

namespace internal_logging {

// Defined here, declared in logging.h: the log level is a configuration
// knob, and configuration is resolved only in this translation unit.
LogLevel ConfiguredMinLogLevel() {
  const std::string& level = EngineConfig::Process().log_level;
  if (level == "DEBUG") return LogLevel::kDebug;
  if (level == "INFO") return LogLevel::kInfo;
  if (level == "ERROR") return LogLevel::kError;
  if (level == "OFF") return LogLevel::kOff;
  return LogLevel::kWarn;
}

}  // namespace internal_logging

}  // namespace ccdb
