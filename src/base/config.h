#ifndef CCDB_BASE_CONFIG_H_
#define CCDB_BASE_CONFIG_H_

/// Engine configuration, resolved ONCE from the environment.
///
/// Every CCDB_* engine knob is parsed here and nowhere else: the rest of
/// the engine never calls getenv — a CI gate, scripts/check_no_getenv.sh,
/// enforces this; the only allowlisted exceptions are this file's
/// implementation and the fault-injection registry. Subsystems
/// that used to sniff the environment at first use (thread pool, tracing,
/// logging, WAL durability) now read their defaults
/// from EngineConfig::Process(), and a Session (engine/session.h) can
/// carry a different EngineConfig per client, so two sessions with
/// different configurations coexist in one process.
///
/// There are no engine toggles: the memo layers, semi-naive Datalog and
/// incremental re-fixpoint are always on, standing down only where safety
/// requires (under a governor, while a failpoint is armed, for a Z_k run).
///
/// Parse diagnostics: an invalid value emits ONE stderr warning per bad
/// knob naming the variable and the fallback actually used — startup
/// never crashes on a bad environment (DESIGN.md §16).

#include <cstdint>
#include <string>
#include <vector>

namespace ccdb {

/// Immutable resolved engine configuration. Value semantics: copy it,
/// override fields with the With* builders, hand it to
/// ConstraintDatabase::OpenSession. The process-wide instance —
/// EngineConfig::Process() — is resolved from the environment exactly
/// once; it is the config of every database's default session (the
/// facade).
struct EngineConfig {
  /// Concurrent runners of the session's thread pool (CCDB_THREADS,
  /// default 1 = the exact serial path). Every session owns a pool of this
  /// many runners, the database's default session included; there is no
  /// process-wide pool.
  int threads = 1;
  /// Minimum log severity, one of DEBUG|INFO|WARN|ERROR|OFF
  /// (CCDB_LOG_LEVEL, default WARN). Stored as the canonical spelling.
  std::string log_level = "WARN";
  /// Span tracing armed at startup (CCDB_TRACE, default off).
  bool trace = false;
  /// Structured JSONL query-log destination; empty = disabled
  /// (CCDB_QUERY_LOG).
  std::string query_log_path;
  /// WAL fsync policy, one of always|batch|off (CCDB_WAL_FSYNC,
  /// default always). Consumed by DurabilityOptions::FromEnv.
  std::string wal_fsync = "always";
  /// Auto-checkpoint threshold in WAL record bytes
  /// (CCDB_WAL_CHECKPOINT_BYTES, default 1 MiB).
  std::uint64_t wal_checkpoint_bytes = 1u << 20;

  /// Resolves a fresh config from the environment. Invalid values fall
  /// back to the field default and produce one warning each — appended to
  /// `warnings` when non-null, and always echoed to stderr (so a bad knob
  /// is visible even when nobody collects diagnostics).
  static EngineConfig FromEnv(std::vector<std::string>* warnings = nullptr);

  /// The process-wide configuration: FromEnv() resolved exactly once, at
  /// first use, with warnings to stderr. Every process-wide default
  /// (the default session's pool width, log level, tracer, query log, WAL
  /// policy) reads from here instead of calling
  /// getenv.
  static const EngineConfig& Process();

  /// Per-field programmatic overrides (value-semantics builders).
  EngineConfig WithThreads(int value) const;

  /// Stable identity of the resolved configuration: 16 lowercase hex
  /// digits (FNV-1a over the canonical rendering). Logged in every
  /// query-log record (schema v3) so a log line names the exact config
  /// its query ran under.
  std::string Fingerprint() const;

  /// Canonical one-line "key=value,..." rendering — the fingerprint's
  /// preimage, also useful in error messages.
  std::string Canonical() const;

  /// Multi-line human-readable table (the REPL's `.config`).
  std::string ToString() const;
};

}  // namespace ccdb

#endif  // CCDB_BASE_CONFIG_H_
