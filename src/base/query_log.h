#ifndef CCDB_BASE_QUERY_LOG_H_
#define CCDB_BASE_QUERY_LOG_H_

/// Structured JSONL query log — the serving layer's black-box recorder
/// (Observability v2, DESIGN.md §12).
///
/// When enabled, the engine appends one JSON object per line for every
/// query the public facade runs (Query / QueryWithPolicy / ExplainAnalyze),
/// successful or not: a stable hash of the query text, the catalog version
/// it read, the plan summary, per-stage timings, what a governed evaluation
/// consumed (the "verdict"), and the memo-cache temperature the query ran
/// at. Enable with the CCDB_QUERY_LOG=<path> environment
/// variable (read once, at first use) or at runtime via
/// QueryLog::Global().Enable(path) — the REPL's `.log on/off`.
///
/// Logging is OBSERVATION ONLY: answers are byte-identical with the log on
/// or off. Records are appended under a mutex and flushed per line, so a
/// crashed process keeps every completed record (the black-box property).
///
/// Failure policy: the log must never take the engine down with it. A
/// CCDB_QUERY_LOG path that cannot be opened, or a write/flush failure on
/// an enabled log (disk full, file deleted and descriptor revoked), emits
/// ONE warning line on stderr and disables logging; queries keep
/// answering.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "base/status.h"

namespace ccdb {

/// A JSONL query log. All methods are thread-safe. Global() is the
/// process-wide instance (bound to the CCDB_QUERY_LOG knob); sessions
/// (engine/session.h) may own a private instance and route their records
/// there instead.
class QueryLog {
 public:
  /// Bumped whenever a record field is added/renamed; every record carries
  /// it as "schema_version". History: 1 = initial; 2 = added "read_set"
  /// (sorted relation names the query reads) and "invalidation" (the cache
  /// scope a mutation must hit to invalidate it: "relations:[...]" or
  /// "global"); 3 = added "session_id" (0 = facade default path) and
  /// "config" (16-hex fingerprint of the resolved EngineConfig the query
  /// ran under); 4 = "verdict" keeps only ok, steps_consumed,
  /// bytes_consumed and elapsed_seconds, read from the one governor that
  /// spans a governed call (the per-attempt fields are gone), and is
  /// present on every record whose evaluation ran under a governor; 5 =
  /// an explain_analyze record's "profile" carries "span_tree" (the
  /// query's span tree) in place of the "qe_rounds" list.
  static constexpr int kSchemaVersion = 5;

  /// A fresh, disabled log. Call Enable(path) to start appending.
  QueryLog() = default;

  /// The process-wide log, bound at first use to
  /// EngineConfig::Process().query_log_path (the CCDB_QUERY_LOG knob).
  static QueryLog& Global();

  bool enabled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
  }
  std::string path() const {
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
  }

  /// Opens `path` for appending and starts logging. Replaces any previous
  /// destination.
  Status Enable(const std::string& path);
  void Disable();

  /// Appends one record (a complete JSON object, no trailing newline —
  /// Append adds it) and flushes. Dropped silently when disabled. On a
  /// write or flush failure: one stderr warning, then logging disables
  /// itself (queries are never failed over an unloggable record).
  void Append(const std::string& json_object);

  /// Records appended since process start (survives Disable/Enable).
  std::uint64_t records_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_written_;
  }

  /// FNV-1a 64-bit hash of the query text, rendered as 16 lowercase hex
  /// digits — the log's stable query identity (the text itself is not
  /// logged, so logs stay small and shareable).
  static std::string HashText(const std::string& text);

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t records_written_ = 0;
};

}  // namespace ccdb

#endif  // CCDB_BASE_QUERY_LOG_H_
