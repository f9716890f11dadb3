#ifndef CCDB_ENGINE_DATABASE_H_
#define CCDB_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/profile.h"
#include "base/query_log.h"
#include "base/resource.h"
#include "base/status.h"
#include "datalog/datalog.h"
#include "fp/fp_semantics.h"
#include "numeric/numerical_eval.h"
#include "query/calcf.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace ccdb {

/// EXPLAIN and EXPLAIN ANALYZE output (Observability v2, DESIGN.md §12):
/// everything an explained execution observed. Stage timings come from
/// CalcFStats; cache temperature and thread-pool utilization are metric
/// deltas across the run. EXPLAIN ANALYZE additionally arms the executor's
/// ProfileSink and carries its per-plan-node attribution trees; EXPLAIN
/// carries none, and may be answered by the whole-query memo. Collection
/// is observation only: the answer is byte-identical to an unexplained
/// Query at every thread count and cache temperature.
struct QueryProfile {
  /// Total wall time of the explained evaluation (plus the numeric stage
  /// when it ran).
  double total_seconds = 0.0;
  /// Stage timings / counters of the evaluation (parse, instantiation, QE,
  /// aggregates) plus the plan summary line.
  CalcFStats stats;
  /// EXPLAIN only: the whole-query memo answered, so the pipeline did not
  /// run this time — stage timings and deltas reflect the (near-free)
  /// cache hit, while the stats, including the plan, are the cached
  /// evaluation's.
  bool from_cache = false;
  /// EXPLAIN ANALYZE only: per-plan-node attribution trees, one per QE
  /// round the evaluator ran (aggregate stages first, the main round
  /// last). Labels mirror the plan ("union", "block[cad] exists x1",
  /// "monolithic[fourier_motzkin]", ...) or name a cache hit ("qe[cached]").
  /// A profiled execution always runs the main round, so this is
  /// non-empty exactly for EXPLAIN ANALYZE profiles.
  std::vector<ProfileNode> qe_rounds;
  /// Whether the NUMERICAL EVALUATION stage ran, and what it found.
  bool ran_numeric = false;
  bool numeric_finite = false;
  std::size_t numeric_points = 0;
  double numeric_seconds = 0.0;
  /// Cache temperature: hit/miss deltas of the memo caches this query
  /// touched (qe_cache, resultant_cache).
  std::uint64_t qe_cache_hits = 0;
  std::uint64_t qe_cache_misses = 0;
  std::uint64_t resultant_cache_hits = 0;
  /// Thread-pool utilization deltas (tasks completed / stolen / run inline
  /// during this query) and the pool width it ran at.
  std::uint64_t pool_tasks_completed = 0;
  std::uint64_t pool_tasks_stolen = 0;
  std::uint64_t pool_tasks_inline = 0;
  std::uint64_t pool_threads = 0;
  /// Governor consumption of the profiled run; all zero when the database
  /// options carry no governor (the usual EXPLAIN ANALYZE configuration).
  bool governed = false;
  std::uint64_t governor_steps = 0;
  std::uint64_t governor_bytes = 0;
  /// Delta of every registry metric that moved during the query.
  std::map<std::string, std::uint64_t> metric_deltas;

  /// Multi-line rendering, titled "EXPLAIN ANALYZE" when the profile
  /// carries QE round trees and "EXPLAIN" otherwise: stage table, the
  /// annotated round trees, cache / pool / governor summary lines, and the
  /// metrics the query moved.
  std::string ToString() const;
  /// Machine-readable JSON (single object; schema documented in DESIGN.md
  /// §12).
  std::string ToJson() const;
};

/// EXPLAIN / EXPLAIN ANALYZE: the actual query result plus the profile
/// observed while producing it.
struct ExplainAnalyzeResult {
  CalcFResult result;
  QueryProfile profile;

  /// The profile rendering followed by a one-line result summary.
  std::string ToString() const;
};

/// Resource policy of a governed query (QueryWithPolicy): the budgets each
/// attempt runs under, an optional external cancellation flag, and whether
/// the engine may degrade the answer quality to fit the budget.
struct QueryPolicy {
  /// Budget of each ladder attempt (deadline / steps / bytes). Each rung
  /// gets a fresh governor armed with these limits.
  ResourceLimits limits;
  /// Optional cooperative cancellation flag (e.g. flipped by a SIGINT
  /// handler). Borrowed, not owned; null = not cancellable.
  std::atomic<bool>* cancel = nullptr;
  /// When true (the default), a kResourceExhausted attempt retries on the
  /// next rung of the degradation ladder:
  ///   full -> reduced-precision -> linear-only.
  /// When false, the first exhaustion is final.
  bool allow_degradation = true;
};

/// What a governed query actually did: which rung answered (or that none
/// could), how many attempts ran, and the resources the answering (or
/// final failing) attempt consumed.
struct QueryVerdict {
  /// True when some rung produced an answer.
  bool ok = false;
  /// Name of the rung that answered: "full", "reduced-precision",
  /// "linear-only" — or "" when every rung was exhausted.
  std::string rung;
  /// Number of attempts made (1 = answered at full quality).
  int attempts = 0;
  /// Exhaustion messages of the rungs that ran out of budget, in order.
  std::vector<std::string> exhausted_rungs;
  /// Resources consumed by the last attempt.
  std::uint64_t steps_consumed = 0;
  std::uint64_t bytes_consumed = 0;
  double elapsed_seconds = 0.0;

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// The public facade of the constraint database system: a catalog of
/// finitely representable relations plus the CALC_F query processor,
/// covering the paper's full pipeline — INSTANTIATION, QUANTIFIER
/// ELIMINATION, NUMERICAL EVALUATION, and AGGREGATE EVALUATION (Figure 1
/// and Section 5).
///
/// Example:
///
///   ConstraintDatabase db;
///   db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0");
///   auto q = db.Query("exists y (S(x, y) and y <= 0)");
///   auto points = db.Solve("exists y (S(x, y) and y <= 0)", epsilon);
///   auto area = db.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
///
/// Every read method is a call into the database's default Session
/// (engine/session.h): session id 0, config EngineConfig::Process(), the
/// global query log, and the shared thread pool. The read path exists once,
/// in Session; OpenSession hands out further sessions with their own
/// config, pool, log binding and pinned snapshot.
class Session;

class ConstraintDatabase {
 public:
  explicit ConstraintDatabase(CalcFOptions options = {});
  ConstraintDatabase(ConstraintDatabase&& other) noexcept;
  ConstraintDatabase& operator=(ConstraintDatabase&& other) noexcept;
  /// A durable database checkpoints any unflushed WAL records on close
  /// (best effort — a failure is logged; the WAL still holds everything).
  ~ConstraintDatabase();

  /// Opens a crash-safe durable database rooted at directory `dir`
  /// (created if needed), recovering whatever a previous process left
  /// there: the newest valid checkpoint plus a WAL replay, tolerating a
  /// torn WAL tail, rejecting mid-log corruption with a Status naming the
  /// offset. After recovery every catalog mutation is logged write-ahead
  /// (fsync policy from `durability`, default CCDB_WAL_FSYNC) before it is
  /// applied, and the WAL is folded into an atomic checkpoint when it
  /// exceeds `durability.checkpoint_bytes`, on Checkpoint(), and on close.
  /// DESIGN.md §13.
  static StatusOr<ConstraintDatabase> OpenDurable(
      const std::string& dir, CalcFOptions options = {},
      DurabilityOptions durability = DurabilityOptions::FromEnv());

  /// True when this database was opened with OpenDurable.
  bool durable() const { return store_ != nullptr; }
  /// What recovery found when this durable database was opened (null for
  /// an in-memory database).
  const RecoveryInfo* recovery_info() const {
    return store_ == nullptr ? nullptr : &store_->recovery_info();
  }
  /// Forces a checkpoint now: catalog serialized, fsynced, atomically
  /// renamed into place, WAL rotated. kInvalidArgument when the database
  /// is not durable.
  Status Checkpoint();

  /// Defines a relation from "Name(cols...) := quantifier-free formula".
  Status Define(const std::string& definition);
  /// Registers an already-built relation (e.g. a previous query's output —
  /// the closed-form property of Theorem 5.5 makes this sound).
  Status Register(const std::string& name, ConstraintRelation relation);
  Status Drop(const std::string& name);
  /// Appends the tuples of "Name(cols...) := formula" to the EXISTING
  /// relation Name (same arity required). Append-only: the old tuples stay
  /// an unchanged prefix, so the relation's base version is preserved and
  /// only its change version advances — cached queries that do not read
  /// Name stay hot, and materialized Datalog fixpoints over Name resume
  /// incrementally instead of recomputing. Durable databases log the delta
  /// write-ahead (WAL op Insert).
  Status Insert(const std::string& definition);
  std::vector<std::string> RelationNames() const { return catalog_.RelationNames(); }
  StatusOr<ConstraintRelation> Relation(const std::string& name) const {
    return catalog_.GetRelation(name);
  }

  /// Evaluates a CALC_F query under the exact semantics; the result is a
  /// constraint relation in closed form plus scalar/statistics extras.
  StatusOr<CalcFResult> Query(const std::string& text) const;

  /// The read-set of `text`: every relation the query mentions, sorted by
  /// name, each with the per-relation version the current catalog holds
  /// (0 = not currently defined). Computed by parsing, not evaluating —
  /// this is exactly the set the whole-query memo keys on, so an Insert
  /// into a relation OUTSIDE a query's read-set leaves its cached answer
  /// valid. The REPL's `.deps`.
  StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> ReadSet(
      const std::string& text) const;

  /// Runs a Datalog program with the catalog as EDB (every body relation
  /// not declared in idb_arities is read from one catalog snapshot).
  /// Unless a governor is set or a failpoint is armed (the memo gates of
  /// base/memo.h), the completed fixpoint is materialized per program and
  /// keyed on the EDB relations' versions:
  ///   - unchanged versions      -> the stored interpretation is returned
  ///                                (metric datalog_fixpoint_hits);
  ///   - append-only growth      -> semi-naive rounds resume from the
  ///     (equal base versions)      stored state with the new tuples as
  ///                                seed deltas (datalog_fixpoint_resumes);
  ///   - structural change, Z_k, -> recompute from scratch
  ///     or negated literals        (datalog_fixpoint_recomputes).
  /// Every path returns the same fixpoint a cold EvaluateDatalog would.
  StatusOr<std::map<std::string, ConstraintRelation>> Fixpoint(
      const DatalogProgram& program, const DatalogOptions& options = {},
      DatalogStats* stats = nullptr) const;

  /// Governed query: evaluates `text` under `policy`'s budgets, walking
  /// the graceful-degradation ladder when an attempt exhausts them —
  /// full quality first, then reduced precision (coarser approximation
  /// order / tolerances), then the linear-only fragment (Fourier–Motzkin
  /// without CAD). Each rung runs under a fresh governor armed with
  /// `policy.limits`. Returns the first rung's answer, or the last
  /// kResourceExhausted when every rung runs out; other errors surface
  /// immediately. `verdict`, when non-null, reports which rung answered
  /// and what the attempt consumed.
  StatusOr<CalcFResult> QueryWithPolicy(const std::string& text,
                                        const QueryPolicy& policy,
                                        QueryVerdict* verdict = nullptr) const;

  /// EXPLAIN: evaluates `text` like Query (whole-query memo included),
  /// additionally running the NUMERICAL EVALUATION stage when applicable,
  /// and reports the profile without QE round trees: per-stage wall
  /// times, cache / pool readings and the metric counters the evaluation
  /// moved. On a whole-query cache hit the cached plan is still reported
  /// (marked "cached", profile.from_cache), not an empty pipeline.
  StatusOr<ExplainAnalyzeResult> Explain(const std::string& text) const;

  /// EXPLAIN ANALYZE: ACTUALLY EXECUTES `text` with a profile sink armed
  /// and reports per-plan-node wall time (inclusive/exclusive), CAD cell
  /// counts, FM rounds, peak bigint bit length, cache temperature, and
  /// thread-pool utilization alongside the result. Bypasses the
  /// whole-query memo (the point is to observe the pipeline run; the QE /
  /// plan / resultant memo layers still apply and are what the cache
  /// temperature reports). The answer is byte-identical to Query(text) —
  /// profiling is observation only.
  StatusOr<ExplainAnalyzeResult> ExplainAnalyze(const std::string& text) const;

  /// PLAN: builds and renders the structure-aware query plan
  /// (plan/planner.h) for `text` WITHOUT executing it. Aggregate and
  /// analytic-function queries are not plannable as a single formula and
  /// return an error describing why.
  StatusOr<std::string> Plan(const std::string& text) const;

  /// Evaluates a pure first-order query under the finite precision
  /// semantics FO^F_QE with bit budget k (Section 4); partial — returns
  /// kUndefined on precision overflow. Aggregates and analytic functions
  /// are not part of FO^F_QE.
  StatusOr<CalcFResult> QueryFp(const std::string& text, std::uint32_t k,
                                FpQeStats* stats = nullptr) const;

  /// Full pipeline through NUMERICAL EVALUATION (Figure 1): runs the query
  /// and, when the answer set is finite, returns epsilon-approximations of
  /// all answer points (Theorem 3.2).
  StatusOr<std::vector<std::vector<Rational>>> Solve(
      const std::string& text, const Rational& epsilon) const;

  /// Membership of a point in a stored relation (index-accelerated).
  StatusOr<bool> Contains(const std::string& name,
                          const std::vector<Rational>& point) const {
    return catalog_.Contains(name, point);
  }

  Status Save(const std::string& path) const { return catalog_.SaveToFile(path); }
  Status Load(const std::string& path);

  /// Opens a session on this database: an isolated execution context
  /// carrying its own EngineConfig (thread count, query-log and other
  /// settings), a private thread pool of
  /// `config.threads` runners, a unique session id stamped into query-log
  /// records, and an optional pinned catalog snapshot
  /// (Session::PinSnapshot) under which every read runs until unpinned —
  /// MVCC: writers keep mutating the database while the session observes
  /// one consistent version. Two
  /// sessions with different configs coexist in one process; answers are
  /// byte-identical across configs (the determinism contract). The
  /// database must outlive the session.
  std::unique_ptr<Session> OpenSession(
      EngineConfig config = EngineConfig::Process());

  const Catalog& catalog() const { return catalog_; }
  const CalcFOptions& options() const { return options_; }

 private:
  friend class Session;

  /// The write-ahead path shared by every mutator: with `mutate_mu_` held,
  /// runs `precheck` (the mutation's precondition — anything that would
  /// make the logged record fail to replay must be rejected here, before
  /// the append), logs (op, payload) to the WAL — when durable — then runs
  /// `apply`, then checkpoints if the WAL crossed the byte threshold. The
  /// WAL append happens strictly before `apply`; an append failure means
  /// the mutation is not applied.
  Status MutateDurably(WalRecord::Op op, const std::string& payload,
                       const std::function<Status()>& precheck,
                       const std::function<Status()>& apply);
  /// Checkpoint body; caller holds `mutate_mu_`.
  Status CheckpointLocked();
  /// A default session bound to this instance (id 0, process config,
  /// global log, shared pool).
  std::unique_ptr<Session> DefaultSession();

  /// One materialized Datalog fixpoint: the completed state plus the
  /// per-relation EDB versions it was computed against.
  struct FixpointEntry {
    std::map<std::string, RelationVersion> edb_versions;
    DatalogFixpointState state;
  };

  CalcFOptions options_;
  Catalog catalog_;
  /// This instance's identity in whole-query memo keys, drawn from the
  /// process-global version counter at construction. Keys are otherwise
  /// built from per-relation read-set versions, so without it two
  /// instances (possibly holding different options) could alias on
  /// queries with an empty read-set.
  std::uint64_t db_id_;
  /// Serializes mutators (Define/Register/Drop/Insert/Load/Checkpoint) so
  /// the WAL order matches the apply order. Readers never take this — they
  /// read catalog snapshots.
  std::mutex mutate_mu_;
  /// Materialized fixpoint states, keyed on a deterministic program
  /// fingerprint. Guarded by fixpoint_mu_ (mutable: Fixpoint is a read in
  /// the catalog sense).
  mutable std::mutex fixpoint_mu_;
  mutable std::map<std::string, FixpointEntry> fixpoint_states_;
  DurabilityOptions durability_;
  /// Non-null iff the database was opened with OpenDurable.
  std::unique_ptr<DurableStore> store_;
  /// The facade's read path. Bound to this instance, so a move builds a
  /// fresh one for the new owner. Declared last: it reads options_.
  std::unique_ptr<Session> session_;
};

}  // namespace ccdb

#endif  // CCDB_ENGINE_DATABASE_H_
