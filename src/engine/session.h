#ifndef CCDB_ENGINE_SESSION_H_
#define CCDB_ENGINE_SESSION_H_

/// Session contexts (DESIGN.md §16): the engine's one read path. Every
/// ConstraintDatabase owns a default session — the facade, id 0, config
/// EngineConfig::Process(), the global query log — and OpenSession hands
/// out further ones. A session carries:
///
///   - an immutable EngineConfig (base/config.h) — the thread count this
///     session runs at and the fingerprint its query-log records carry,
///     independent of every other session's settings. The memo layers,
///     semi-naive Datalog and incremental re-fixpoint are not settings:
///     they are always on, standing down only under a governor or an
///     armed failpoint (base/memo.h), and Z_k runs are always naive;
///   - a thread pool of config.threads runners, its own — except that the
///     default session of a database built with an explicit options.qe.pool
///     runs on that pool. Every stage of a read (QE, the aggregate
///     modules' CADs, NUMERICAL EVALUATION, Datalog) runs on it;
///   - a session id (unique per opened session, 0 for the default one) and
///     the config's fingerprint, stamped into every query-log record the
///     session produces (schema v4);
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
  /// The pool the session's reads run on: its own (config().threads
  /// runners), or the database options' qe.pool for the default session of
  /// a database built with one. Never null.
  ThreadPool* pool() const { return options_.qe.pool; }
  /// The evaluation options: the database's options with qe.pool pointing
  /// at the session's pool.
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
  /// Query under one ResourceGovernor(policy.limits, policy.cancel) that
  /// spans the call; the governor's first trip is the answer.
  StatusOr<CalcFResult> QueryWithPolicy(const std::string& text,
                                        const QueryPolicy& policy) const;
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
  /// `id` 0 is the default session.
  Session(ConstraintDatabase* db, EngineConfig config, std::uint64_t id);

  /// The catalog version a read answers against: the pinned snapshot, else
  /// a fresh one. Captured once per call.
  std::shared_ptr<const Catalog::View> ReadSnapshot() const;
  /// The query log records go to: the bound one, else QueryLog::Global().
  QueryLog& Log() const;
  /// The body of Query() and QueryWithPolicy(): evaluates `text` under
  /// `options` and logs one record of `kind`. The whole-query memo applies
  /// only when `options` carries no governor. `cache_hit`, when non-null,
  /// reports whether the answer came from the memo (EXPLAIN's from_cache).
  StatusOr<CalcFResult> QueryImpl(const std::string& text,
                                  const CalcFOptions& options,
                                  const char* kind, bool* cache_hit) const;

  ConstraintDatabase* db_;
  const EngineConfig config_;
  const std::string fingerprint_;
  const std::uint64_t id_;
  /// Null only for a default session on the database options' pool.
  std::unique_ptr<ThreadPool> pool_;
  CalcFOptions options_;
  /// Guards pinned_ and log_ (the mutable bindings).
  mutable std::mutex mu_;
  std::shared_ptr<const Catalog::View> pinned_;
  QueryLog* log_ = nullptr;
};

}  // namespace ccdb

#endif  // CCDB_ENGINE_SESSION_H_
