#ifndef CCDB_ENGINE_SESSION_H_
#define CCDB_ENGINE_SESSION_H_

/// Session contexts (DESIGN.md §16): the engine's one read path. Every
/// ConstraintDatabase owns a default session — the facade, id 0, config
/// EngineConfig::Process(), the global query log, the shared thread pool —
/// and OpenSession hands out further ones. A session carries:
///
///   - an immutable EngineConfig (base/config.h) — the thread count this
///     session runs at and the fingerprint its query-log records carry,
///     independent of every other session's settings. The memo layers,
///     semi-naive Datalog and incremental re-fixpoint are not settings:
///     they are always on, standing down only under a governor or an
///     armed failpoint (base/memo.h), and Z_k runs are always naive;
///   - a thread pool: a private one of config.threads runners for an
///     opened session, ThreadPool::Shared() (or the database options'
///     pool) for the default session;
///   - a session id (unique per opened session, 0 for the default one) and
///     the config's fingerprint, stamped into every query-log record the
///     session produces (schema v3);
///   - a query-log binding (the global log by default, replaceable with a
///     session-owned instance via SetQueryLog);
///   - an optional pinned MVCC catalog snapshot (PinSnapshot/Unpin): while
///     pinned, every read — parse, lower, plan, execute, whole-query memo
///     key, read-set — runs against that one immutable catalog version,
///     so writers can Define/Insert/Drop concurrently without the session
///     observing any of it.
///
/// Answers are byte-identical across session configs (any thread count)
/// and cache temperatures — the engine's determinism and pure-memo
/// contracts, checkable in one process by opening two sessions.
///
/// Thread safety: a Session's read methods are safe to call concurrently
/// with other sessions' methods and with database mutators. Pin/Unpin and
/// SetQueryLog synchronize with the session's own reads internally.
/// Lifetime: the database must outlive the session.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "base/thread_pool.h"
#include "engine/database.h"

namespace ccdb {

class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Unique in this process for an opened session (1, 2, ... in open order
  /// across databases); 0 for a database's default session.
  std::uint64_t id() const { return id_; }
  /// The immutable configuration this session was opened with.
  const EngineConfig& config() const { return config_; }
  /// 16-hex fingerprint of config(), as stamped into query-log records.
  const std::string& config_fingerprint() const { return fingerprint_; }
  /// The pool the session's reads run on: the private one
  /// (config().threads runners) of an opened session, else the database
  /// options' pool or ThreadPool::Shared(). Never null.
  ThreadPool* pool() const { return ThreadPool::Resolve(options_.qe.pool); }
  /// The evaluation options: the database's options with qe.pool pointing
  /// at the private pool when the session has one.
  const CalcFOptions& options() const { return options_; }

  /// Pins the database's CURRENT catalog state: until Unpin, every read
  /// method answers against this one immutable version — concurrent
  /// Define/Insert/Drop by other sessions or the facade are invisible.
  /// Re-pinning replaces the pinned version with the now-current one.
  void PinSnapshot();
  void Unpin();
  bool pinned() const;
  /// The pinned snapshot, or null when not pinned.
  std::shared_ptr<const Catalog::View> snapshot() const;

  /// Routes this session's query-log records to `log` (not owned; must
  /// outlive the session or be reset). Null restores QueryLog::Global().
  void SetQueryLog(QueryLog* log);

  /// Read path — the bodies behind the ConstraintDatabase methods of the
  /// same names, evaluated under this session's options, snapshot (when
  /// pinned), pool, and log binding.
  StatusOr<CalcFResult> Query(const std::string& text) const;
  StatusOr<CalcFResult> QueryWithPolicy(const std::string& text,
                                        const QueryPolicy& policy,
                                        QueryVerdict* verdict = nullptr) const;
  StatusOr<ExplainAnalyzeResult> Explain(const std::string& text) const;
  StatusOr<ExplainAnalyzeResult> ExplainAnalyze(const std::string& text) const;
  StatusOr<std::string> Plan(const std::string& text) const;
  StatusOr<CalcFResult> QueryFp(const std::string& text, std::uint32_t k,
                                FpQeStats* stats = nullptr) const;
  StatusOr<std::vector<std::vector<Rational>>> Solve(
      const std::string& text, const Rational& epsilon) const;
  /// Fixpoint on the session pool; a caller-supplied pool wins over the
  /// session pool.
  StatusOr<std::map<std::string, ConstraintRelation>> Fixpoint(
      const DatalogProgram& program, const DatalogOptions& options = {},
      DatalogStats* stats = nullptr) const;
  StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> ReadSet(
      const std::string& text) const;

  /// Mutators — applied to the database's CURRENT state (MVCC: writers
  /// never mutate a snapshot; a pinned session keeps reading its pinned
  /// version, including across its own writes, until it re-pins).
  Status Define(const std::string& definition);
  Status Register(const std::string& name, ConstraintRelation relation);
  Status Drop(const std::string& name);
  Status Insert(const std::string& definition);

 private:
  friend class ConstraintDatabase;
  /// `pool` null = no private pool (the default session).
  Session(ConstraintDatabase* db, EngineConfig config, std::uint64_t id,
          std::unique_ptr<ThreadPool> pool);

  /// The catalog version a read answers against: the pinned snapshot, else
  /// a fresh one. Captured once per call.
  std::shared_ptr<const Catalog::View> ReadSnapshot() const;
  /// The query log records go to: the bound one, else QueryLog::Global().
  QueryLog& Log() const;
  /// Query() body; `cache_hit`, when non-null, reports whether the answer
  /// came from the whole-query memo (EXPLAIN's from_cache).
  StatusOr<CalcFResult> QueryImpl(const std::string& text,
                                  bool* cache_hit) const;

  ConstraintDatabase* db_;
  const EngineConfig config_;
  const std::string fingerprint_;
  const std::uint64_t id_;
  std::unique_ptr<ThreadPool> pool_;
  CalcFOptions options_;
  /// Guards pinned_ and log_ (the mutable bindings).
  mutable std::mutex mu_;
  std::shared_ptr<const Catalog::View> pinned_;
  QueryLog* log_ = nullptr;
};

}  // namespace ccdb

#endif  // CCDB_ENGINE_SESSION_H_
