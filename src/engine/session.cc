#include "engine/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "base/memo.h"
#include "base/metrics.h"
#include "base/query_log.h"
#include "base/trace.h"
#include "plan/planner.h"
#include "query/lower.h"
#include "query/parser.h"

namespace ccdb {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t NextSessionId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Process-wide memo of whole-query results, keyed on (database id, the
// per-relation versions of exactly the relations the query reads, query
// text). Versions are drawn from a process-global counter, so a version
// value identifies one state of one relation; a mutation invalidates
// precisely the entries whose read-set it touched — an Insert into S
// leaves every cached query that reads only R hot. Drop-and-redefine can
// never alias: the redefined relation carries a fresh (larger) version.
// The database id covers the degenerate empty-read-set key, which would
// otherwise collide across instances holding different options.
ShardedMemoCache<std::string, CalcFResult>& QueryResultCache() {
  static auto* cache =
      new ShardedMemoCache<std::string, CalcFResult>("query_cache", 256);
  return *cache;
}

std::string QueryCacheKey(
    std::uint64_t db_id, const std::string& text,
    const std::vector<std::pair<std::string, std::uint64_t>>& read_set) {
  std::string key = std::to_string(db_id);
  for (const auto& [name, version] : read_set) {
    key += '\x1e';
    key += name;
    key += '\x1d';
    key += std::to_string(version);
  }
  key += '\x1f';
  key += text;
  return key;
}

void CollectRelationNames(const QFormula& formula,
                          std::set<std::string>* names) {
  if (formula.kind == QFormula::Kind::kRelation) {
    names->insert(formula.relation_name);
  }
  for (const auto& child : formula.children) {
    CollectRelationNames(*child, names);
  }
}

// The relation names `text` mentions, sorted and deduplicated — the
// query's read-set, computed by a parse (no evaluation). Memoized on the
// text alone: the AST, hence the name set, is a pure function of it.
StatusOr<std::vector<std::string>> RelationsReadBy(const std::string& text) {
  static auto* cache =
      new ShardedMemoCache<std::string, std::vector<std::string>>(
          "read_set_cache", 64);
  std::vector<std::string> names;
  const bool use_cache = MemoCachesEnabled();
  if (use_cache && cache->Lookup(text, &names)) return names;
  CCDB_ASSIGN_OR_RETURN(auto parsed, ParseFormula(text));
  std::set<std::string> set;
  CollectRelationNames(*parsed, &set);
  names.assign(set.begin(), set.end());
  if (use_cache) cache->Insert(text, names);
  return names;
}

// Resolves a name set against one catalog snapshot: absent relations
// version as 0, so a later Define (nonzero version) changes the key.
std::vector<std::pair<std::string, std::uint64_t>> ResolveReadSet(
    const std::vector<std::string>& names, const Catalog::View& snapshot) {
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
  read_set.reserve(names.size());
  for (const std::string& name : names) {
    std::optional<RelationVersion> version = snapshot.GetRelationVersion(name);
    read_set.emplace_back(name,
                          version.has_value() ? version->version : 0);
  }
  return read_set;
}

std::map<std::string, std::uint64_t> MetricDeltas(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> deltas;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    std::uint64_t previous = it == before.end() ? 0 : it->second;
    // Max gauges can stay flat or even (after ResetAll) shrink; only
    // report meters that moved forward.
    if (value > previous) deltas[name] = value - previous;
  }
  return deltas;
}

std::uint64_t Delta(const std::map<std::string, std::uint64_t>& deltas,
                    const char* name) {
  auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

// Builds and appends one structured query-log record (base/query_log.h).
// Call only when the log is enabled; observation only — never affects the
// result being logged.
void AppendQueryLogRecord(
    QueryLog& log, std::uint64_t session_id,
    const std::string& config_fingerprint, const char* kind,
    const std::string& text, std::uint64_t catalog_version,
    const StatusOr<CalcFResult>& result, bool cache_hit,
    const QueryVerdict* verdict, double elapsed_seconds,
    const std::map<std::string, std::uint64_t>& deltas,
    const std::vector<std::pair<std::string, std::uint64_t>>* read_set,
    const std::string& profile_json = "") {
  std::uint64_t ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  JsonObjectBuilder record;
  record.Add("schema_version",
             static_cast<std::uint64_t>(QueryLog::kSchemaVersion))
      .Add("ts_us", ts_us)
      .Add("session_id", session_id)
      .Add("config", config_fingerprint)
      .Add("kind", std::string(kind))
      .Add("text_hash", QueryLog::HashText(text))
      .Add("text_len", static_cast<std::uint64_t>(text.size()))
      .Add("catalog_version", catalog_version)
      .Add("ok", result.ok())
      .Add("cache_hit", cache_hit)
      .Add("elapsed_seconds", elapsed_seconds);
  // Invalidation scope: with a known read-set, only a mutation of one of
  // the listed relations can invalidate this query's cached answer
  // ("relations:[...]"); without one (unparsable text), any mutation must
  // be assumed to ("global").
  if (read_set != nullptr) {
    std::string names = "[";
    std::string scope = "relations:[";
    for (std::size_t i = 0; i < read_set->size(); ++i) {
      const std::string& name = (*read_set)[i].first;
      if (i > 0) {
        names += ',';
        scope += ',';
      }
      names += '"' + JsonObjectBuilder::Escape(name) + '"';
      scope += name;
    }
    names += ']';
    scope += ']';
    record.AddRaw("read_set", names).Add("invalidation", scope);
  } else {
    record.AddRaw("read_set", "[]").Add("invalidation", std::string("global"));
  }
  if (result.ok()) {
    const CalcFResult& r = *result;
    record.Add("tuples", static_cast<std::uint64_t>(r.relation.tuples().size()))
        .Add("arity", static_cast<std::uint64_t>(r.relation.arity()))
        .Add("has_scalar", r.has_scalar)
        .Add("plan", r.stats.plan)
        .AddRaw("stats", r.stats.ToJson());
  } else {
    record.Add("error_code",
               std::string(StatusCodeToString(result.status().code())))
        .Add("error", result.status().message());
  }
  if (verdict != nullptr) {
    record.AddRaw("verdict",
                  JsonObjectBuilder()
                      .Add("ok", verdict->ok)
                      .Add("rung", verdict->rung)
                      .Add("attempts", static_cast<std::int64_t>(
                                           verdict->attempts))
                      .Add("exhausted_rungs",
                           static_cast<std::uint64_t>(
                               verdict->exhausted_rungs.size()))
                      .Add("steps_consumed", verdict->steps_consumed)
                      .Add("bytes_consumed", verdict->bytes_consumed)
                      .Add("elapsed_seconds", verdict->elapsed_seconds)
                      .Build());
  }
  // Cache temperature this query ran at: hit/miss deltas of the memo
  // layers (whole-query, QE result, resultant).
  record.AddRaw("caches",
                JsonObjectBuilder()
                    .Add("query_cache_hits", Delta(deltas, "query_cache_hits"))
                    .Add("qe_cache_hits", Delta(deltas, "qe_cache_hits"))
                    .Add("qe_cache_misses", Delta(deltas, "qe_cache_misses"))
                    .Add("resultant_cache_hits",
                         Delta(deltas, "resultant_cache_hits"))
                    .Build());
  if (!profile_json.empty()) record.AddRaw("profile", profile_json);
  log.Append(record.Build());
}

// A relation lookup pinned to one catalog snapshot: every relation a
// query instantiates comes from the same catalog version, even while
// writers mutate concurrently.
CalcFEvaluator::RelationLookup LookupFor(
    std::shared_ptr<const Catalog::View> snapshot) {
  return [snapshot = std::move(snapshot)](
             const std::string& name) -> StatusOr<ConstraintRelation> {
    return snapshot->GetRelation(name);
  };
}

// Deterministic identity of (program, evaluation-relevant options) for the
// materialized-fixpoint map. Rule order matters (it is the merge order),
// so the rendering is a faithful serialization, not a canonical form.
std::string ProgramFingerprint(const DatalogProgram& program,
                               const DatalogOptions& options) {
  std::ostringstream out;
  out << "k=" << options.precision_k << ";max=" << options.max_iterations
      << ";";
  for (const auto& [name, arity] : program.idb_arities) {
    out << name << "/" << arity << ";";
  }
  for (const DatalogRule& rule : program.rules) {
    out << rule.head << "(";
    for (std::size_t i = 0; i < rule.head_vars.size(); ++i) {
      if (i > 0) out << ",";
      out << rule.head_vars[i];
    }
    out << "):-";
    for (const DatalogLiteral& lit : rule.body) {
      if (lit.is_relation) {
        if (lit.negated) out << "!";
        out << lit.relation << "(";
        for (std::size_t i = 0; i < lit.args.size(); ++i) {
          if (i > 0) out << ",";
          out << lit.args[i];
        }
        out << ")";
      } else {
        out << "{" << lit.constraint.ToString() << "}";
      }
      out << ",";
    }
    out << ";";
  }
  return out.str();
}

// The tail both EXPLAIN forms share. When the evaluation succeeded, runs
// NUMERICAL EVALUATION (Figure 1, step 3) — only meaningful when the
// answer is a relation; a scalar aggregate is already a value. Then fills
// the profile's totals and its cache / pool / governor readings over the
// whole run. Returns the evaluation's status, else the numeric stage's.
Status FinishProfile(StatusOr<CalcFResult> outcome,
                     const std::map<std::string, std::uint64_t>& before,
                     SteadyClock::time_point start,
                     const CalcFOptions& options, ExplainAnalyzeResult* out) {
  QueryProfile& profile = out->profile;
  Status status = outcome.status();
  if (outcome.ok()) {
    out->result = *std::move(outcome);
    profile.stats = out->result.stats;
    if (!out->result.has_scalar && out->result.relation.arity() > 0) {
      profile.ran_numeric = true;
      auto numeric_start = SteadyClock::now();
      StatusOr<NumericalEvaluation> numeric =
          EvaluateNumerically(out->result.relation, /*gov=*/nullptr);
      profile.numeric_seconds = SecondsSince(numeric_start);
      if (numeric.ok()) {
        profile.numeric_finite = numeric->finite;
        profile.numeric_points = numeric->points.size();
      } else {
        status = numeric.status();
      }
    }
  }
  profile.total_seconds = SecondsSince(start);
  profile.metric_deltas =
      MetricDeltas(before, MetricsRegistry::Global().SnapshotValues());
  const auto& deltas = profile.metric_deltas;
  profile.qe_cache_hits = Delta(deltas, "qe_cache_hits");
  profile.qe_cache_misses = Delta(deltas, "qe_cache_misses");
  profile.resultant_cache_hits = Delta(deltas, "resultant_cache_hits");
  profile.pool_tasks_completed = Delta(deltas, "threadpool.tasks_completed");
  profile.pool_tasks_stolen = Delta(deltas, "threadpool.tasks_stolen");
  profile.pool_tasks_inline = Delta(deltas, "threadpool.tasks_inline");
  profile.pool_threads = static_cast<std::uint64_t>(
      ThreadPool::Resolve(options.qe.pool)->threads());
  if (options.qe.governor != nullptr) {
    profile.governed = true;
    ResourceGovernor::Consumption consumed = options.qe.governor->Snapshot();
    profile.governor_steps = consumed.steps;
    profile.governor_bytes = consumed.bytes;
  }
  return status;
}

}  // namespace

std::unique_ptr<Session> ConstraintDatabase::OpenSession(EngineConfig config) {
  CCDB_METRIC_COUNT("db.sessions_opened", 1);
  auto pool = std::make_unique<ThreadPool>(config.threads);
  return std::unique_ptr<Session>(new Session(this, std::move(config),
                                              NextSessionId(),
                                              std::move(pool)));
}

Session::Session(ConstraintDatabase* db, EngineConfig config, std::uint64_t id,
                 std::unique_ptr<ThreadPool> pool)
    : db_(db),
      config_(std::move(config)),
      fingerprint_(config_.Fingerprint()),
      id_(id),
      pool_(std::move(pool)),
      options_(db->options()) {
  if (pool_ != nullptr) options_.qe.pool = pool_.get();
}

Session::~Session() = default;

void Session::PinSnapshot() {
  std::shared_ptr<const Catalog::View> snapshot = db_->catalog().Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  pinned_ = std::move(snapshot);
}

void Session::Unpin() {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_ = nullptr;
}

bool Session::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_ != nullptr;
}

std::shared_ptr<const Catalog::View> Session::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_;
}

void Session::SetQueryLog(QueryLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = log;
}

std::shared_ptr<const Catalog::View> Session::ReadSnapshot() const {
  std::shared_ptr<const Catalog::View> pinned = snapshot();
  return pinned != nullptr ? pinned : db_->catalog().Snapshot();
}

QueryLog& Session::Log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_ != nullptr ? *log_ : QueryLog::Global();
}

StatusOr<CalcFResult> Session::Query(const std::string& text) const {
  return QueryImpl(text, nullptr);
}

StatusOr<CalcFResult> Session::QueryImpl(const std::string& text,
                                         bool* cache_hit) const {
  CCDB_TRACE_SPAN("db.query");
  CCDB_METRIC_COUNT("db.queries", 1);
  if (cache_hit != nullptr) *cache_hit = false;
  QueryLog& qlog = Log();
  const bool log = qlog.enabled();
  std::map<std::string, std::uint64_t> before;
  if (log) before = MetricsRegistry::Global().SnapshotValues();
  auto log_start = SteadyClock::now();
  bool hit = false;
  // One catalog snapshot for the whole query: the memo key's read-set
  // versions and every relation the evaluator instantiates come from the
  // same immutable catalog state, even under concurrent mutators. A pinned
  // session answers against its pinned version no matter what writers did
  // since.
  std::shared_ptr<const Catalog::View> snapshot = ReadSnapshot();
  // Pure memo on the whole pipeline: a hit returns exactly the result a
  // re-evaluation would produce (same text, same versions of the relations
  // the query reads, same immutable options). Governed evaluations bypass
  // the cache entirely so budget charging never depends on temperature.
  const bool use_cache = options_.governor == nullptr &&
                         options_.qe.governor == nullptr && MemoCachesEnabled();
  // The query's read-set at this snapshot — the memo key and the log's
  // invalidation scope. Unparsable text has no read-set (the evaluator
  // below reports the parse error) and is never cached.
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
  bool have_read_set = false;
  if (use_cache || log) {
    if (StatusOr<std::vector<std::string>> names = RelationsReadBy(text);
        names.ok()) {
      read_set = ResolveReadSet(*names, *snapshot);
      have_read_set = true;
    }
  }
  StatusOr<CalcFResult> outcome = [&]() -> StatusOr<CalcFResult> {
    std::string key;
    if (use_cache && have_read_set) {
      key = QueryCacheKey(db_->db_id_, text, read_set);
      CalcFResult cached;
      if (QueryResultCache().Lookup(key, &cached)) {
        hit = true;
        return cached;
      }
    }
    CalcFEvaluator evaluator(LookupFor(snapshot), options_);
    CCDB_ASSIGN_OR_RETURN(CalcFResult result, evaluator.EvaluateText(text));
    if (use_cache && have_read_set) QueryResultCache().Insert(key, result);
    return result;
  }();
  if (cache_hit != nullptr) *cache_hit = hit;
  if (log) {
    AppendQueryLogRecord(
        qlog, id_, fingerprint_, "query", text, snapshot->version(), outcome,
        hit, /*verdict=*/nullptr, SecondsSince(log_start),
        MetricDeltas(before, MetricsRegistry::Global().SnapshotValues()),
        have_read_set ? &read_set : nullptr);
  }
  return outcome;
}

StatusOr<CalcFResult> Session::QueryWithPolicy(const std::string& text,
                                               const QueryPolicy& policy,
                                               QueryVerdict* verdict) const {
  CCDB_TRACE_SPAN("db.query_with_policy");
  CCDB_METRIC_COUNT("db.governed_queries", 1);
  QueryLog& qlog = Log();
  QueryVerdict local;
  QueryVerdict& v = verdict != nullptr ? *verdict : local;
  v = QueryVerdict{};
  const bool log = qlog.enabled();
  std::map<std::string, std::uint64_t> before;
  if (log) before = MetricsRegistry::Global().SnapshotValues();
  auto log_start = SteadyClock::now();
  // One snapshot across every rung: a degraded retry answers against the
  // same catalog state the full-quality attempt saw.
  std::shared_ptr<const Catalog::View> snapshot = ReadSnapshot();
  StatusOr<CalcFResult> outcome = [&]() -> StatusOr<CalcFResult> {
    static constexpr const char* kRungNames[] = {"full", "reduced-precision",
                                                 "linear-only"};
    const int num_rungs = policy.allow_degradation ? 3 : 1;
    Status last = Status::Ok();
    for (int rung = 0; rung < num_rungs; ++rung) {
      // Each rung gets a fresh governor so degraded attempts receive the
      // full budget, not the exhausted remainder of the previous attempt.
      ResourceGovernor gov(policy.limits, policy.cancel);
      CalcFOptions opts = options_;
      opts.governor = &gov;
      opts.qe.governor = &gov;
      if (rung >= 1) {
        // Reduced precision: halve the approximation order and coarsen the
        // tolerances — cheaper modules, same query semantics up to epsilon.
        opts.approx_order = std::max(2, opts.approx_order / 2);
        opts.tolerance = std::max(opts.tolerance * 1e3, 1e-6);
        opts.eval_epsilon = Rational(BigInt(1), BigInt::Pow2(12));
      }
      if (rung >= 2) {
        // Linear-only: Fourier-Motzkin without the CAD fallback. Queries
        // that genuinely need CAD exhaust immediately instead of blowing
        // up.
        opts.qe.linear_only = true;
      }
      CalcFEvaluator evaluator(LookupFor(snapshot), opts);
      StatusOr<CalcFResult> result = evaluator.EvaluateText(text);
      ++v.attempts;
      // One coherent snapshot: workers spawned by a parallel attempt all
      // charge this governor, so the three readings are taken through the
      // governor's atomic snapshot rather than three bare field reads.
      ResourceGovernor::Consumption consumed = gov.Snapshot();
      v.steps_consumed = consumed.steps;
      v.bytes_consumed = consumed.bytes;
      v.elapsed_seconds = consumed.elapsed_seconds;
      if (result.ok()) {
        v.ok = true;
        v.rung = kRungNames[rung];
        CCDB_METRIC_COUNT(rung == 0 ? "db.governed_answered_full"
                                    : "db.governed_answered_degraded",
                          1);
        return result;
      }
      if (result.status().code() != StatusCode::kResourceExhausted) {
        // Semantic errors (parse failure, kUndefined, ...) are not budget
        // problems; degrading would not help.
        return result.status();
      }
      v.exhausted_rungs.push_back(std::string(kRungNames[rung]) + ": " +
                                  result.status().message());
      last = result.status();
      if (gov.reason() == ExhaustionReason::kCancelled) break;  // user stop
    }
    CCDB_METRIC_COUNT("db.governed_exhausted", 1);
    return last;
  }();
  if (log) {
    std::vector<std::pair<std::string, std::uint64_t>> read_set;
    bool have_read_set = false;
    if (StatusOr<std::vector<std::string>> names = RelationsReadBy(text);
        names.ok()) {
      read_set = ResolveReadSet(*names, *snapshot);
      have_read_set = true;
    }
    AppendQueryLogRecord(
        qlog, id_, fingerprint_, "governed", text, snapshot->version(),
        outcome, /*cache_hit=*/false, &v, SecondsSince(log_start),
        MetricDeltas(before, MetricsRegistry::Global().SnapshotValues()),
        have_read_set ? &read_set : nullptr);
  }
  return outcome;
}

StatusOr<ExplainAnalyzeResult> Session::Explain(const std::string& text) const {
  CCDB_TRACE_SPAN("db.explain");
  CCDB_METRIC_COUNT("db.explains", 1);
  auto before = MetricsRegistry::Global().SnapshotValues();
  auto start = SteadyClock::now();
  // The whole-query memo applies (Query already logs the record); the
  // profile carries no QE round trees.
  ExplainAnalyzeResult out;
  CCDB_RETURN_IF_ERROR(FinishProfile(QueryImpl(text, &out.profile.from_cache),
                                     before, start, options_, &out));
  return out;
}

StatusOr<ExplainAnalyzeResult> Session::ExplainAnalyze(
    const std::string& text) const {
  CCDB_TRACE_SPAN("db.explain_analyze");
  CCDB_METRIC_COUNT("db.explain_analyzes", 1);
  QueryLog& qlog = Log();
  const bool log = qlog.enabled();
  auto before = MetricsRegistry::Global().SnapshotValues();
  auto start = SteadyClock::now();
  // Run the actual pipeline with a profile sink armed — the whole-query
  // memo is bypassed on purpose (EXPLAIN ANALYZE observes an execution,
  // not a memo lookup); the QE / resultant memo layers still apply
  // and surface as cache temperature. The sink is observation only: the
  // evaluation is byte-identical to Query(text).
  ProfileSink sink;
  CalcFOptions opts = options_;
  opts.qe.profile = &sink;
  std::shared_ptr<const Catalog::View> snapshot = ReadSnapshot();
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
  bool have_read_set = false;
  if (log) {
    if (StatusOr<std::vector<std::string>> names = RelationsReadBy(text);
        names.ok()) {
      read_set = ResolveReadSet(*names, *snapshot);
      have_read_set = true;
    }
  }
  CalcFEvaluator evaluator(LookupFor(snapshot), opts);
  ExplainAnalyzeResult out;
  Status status =
      FinishProfile(evaluator.EvaluateText(text), before, start, opts, &out);
  out.profile.qe_rounds = sink.Take();
  // One record per call, whichever stage failed.
  if (log) {
    AppendQueryLogRecord(
        qlog, id_, fingerprint_, "explain_analyze", text, snapshot->version(),
        status.ok() ? StatusOr<CalcFResult>(out.result)
                    : StatusOr<CalcFResult>(status),
        /*cache_hit=*/false, /*verdict=*/nullptr, out.profile.total_seconds,
        out.profile.metric_deltas, have_read_set ? &read_set : nullptr,
        status.ok() ? out.profile.ToJson() : "");
  }
  CCDB_RETURN_IF_ERROR(status);
  return out;
}

StatusOr<std::string> Session::Plan(const std::string& text) const {
  CCDB_TRACE_SPAN("db.plan");
  CCDB_METRIC_COUNT("db.plans", 1);
  CCDB_ASSIGN_OR_RETURN(auto parsed, ParseFormula(text));
  std::vector<std::string> columns = parsed->FreeVarNames();
  VarEnv env;
  for (const std::string& column : columns) env.Intern(column);
  int arity = env.next_index;
  CCDB_ASSIGN_OR_RETURN(Formula lowered, LowerFormula(*parsed, &env));
  CCDB_ASSIGN_OR_RETURN(
      Formula instantiated,
      lowered.InstantiateRelations(LookupFor(ReadSnapshot())));
  QueryPlan plan = PlanQuery(instantiated, arity, options_.qe);
  return plan.ToString(env.NamesByIndex());
}

StatusOr<CalcFResult> Session::QueryFp(const std::string& text,
                                       std::uint32_t k,
                                       FpQeStats* stats) const {
  CCDB_TRACE_SPAN("db.query_fp");
  CCDB_METRIC_COUNT("db.fp_queries", 1);
  CCDB_ASSIGN_OR_RETURN(auto parsed, ParseFormula(text));
  std::vector<std::string> columns = parsed->FreeVarNames();
  VarEnv env;
  for (const std::string& column : columns) env.Intern(column);
  int arity = env.next_index;
  CCDB_ASSIGN_OR_RETURN(Formula lowered, LowerFormula(*parsed, &env));
  CCDB_ASSIGN_OR_RETURN(
      Formula instantiated,
      lowered.InstantiateRelations(LookupFor(ReadSnapshot())));
  CalcFResult result;
  CCDB_ASSIGN_OR_RETURN(
      result.relation,
      EliminateQuantifiersFp(instantiated, arity, FpContext{k}, stats));
  result.column_names = std::move(columns);
  return result;
}

StatusOr<std::vector<std::vector<Rational>>> Session::Solve(
    const std::string& text, const Rational& epsilon) const {
  CCDB_TRACE_SPAN("db.solve");
  CCDB_METRIC_COUNT("db.solves", 1);
  CCDB_ASSIGN_OR_RETURN(CalcFResult result, QueryImpl(text, nullptr));
  return ApproximateSolutions(result.relation, epsilon, /*gov=*/nullptr);
}

StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> Session::ReadSet(
    const std::string& text) const {
  CCDB_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        RelationsReadBy(text));
  return ResolveReadSet(names, *ReadSnapshot());
}

StatusOr<std::map<std::string, ConstraintRelation>> Session::Fixpoint(
    const DatalogProgram& program, const DatalogOptions& caller_options,
    DatalogStats* stats) const {
  CCDB_TRACE_SPAN("db.fixpoint");
  CCDB_METRIC_COUNT("db.fixpoints", 1);
  DatalogOptions options = caller_options;
  // The session pool drives the per-rule fan-out unless the caller brought
  // a pool of their own.
  if (options.qe.pool == nullptr) options.qe.pool = options_.qe.pool;
  // One snapshot: the EDB contents and the versions they are keyed under
  // come from the same catalog state.
  std::shared_ptr<const Catalog::View> snapshot = ReadSnapshot();
  std::map<std::string, ConstraintRelation> edb;
  std::map<std::string, RelationVersion> versions;
  for (const DatalogRule& rule : program.rules) {
    for (const DatalogLiteral& lit : rule.body) {
      if (!lit.is_relation || program.idb_arities.count(lit.relation) > 0 ||
          edb.count(lit.relation) > 0) {
        continue;
      }
      CCDB_ASSIGN_OR_RETURN(ConstraintRelation relation,
                            snapshot->GetRelation(lit.relation));
      versions[lit.relation] =
          snapshot->GetRelationVersion(lit.relation).value_or(
              RelationVersion{});
      edb.emplace(lit.relation, std::move(relation));
    }
  }
  DatalogStats local_stats;
  DatalogStats* s = stats != nullptr ? stats : &local_stats;
  *s = DatalogStats{};
  // Materialized state is a memo layer: off under a governor (budget
  // charging must not depend on temperature) and while a failpoint is
  // armed, exactly like the whole-query memo.
  const bool use_state =
      options.qe.governor == nullptr && MemoCachesEnabled();
  std::mutex& states_mu = db_->fixpoint_mu_;
  auto& states = db_->fixpoint_states_;
  std::string key;
  if (use_state) {
    key = ProgramFingerprint(program, options);
    ConstraintDatabase::FixpointEntry entry;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(states_mu);
      auto it = states.find(key);
      if (it != states.end()) {
        entry = it->second;
        found = true;
      }
    }
    if (found && entry.edb_versions.size() == versions.size()) {
      bool exact = true;
      bool grown_only = true;  // equal bases: old tuples are a prefix
      for (const auto& [name, old_version] : entry.edb_versions) {
        auto current = versions.find(name);
        if (current == versions.end() ||
            current->second.base != old_version.base) {
          exact = grown_only = false;
          break;
        }
        if (current->second.version != old_version.version) exact = false;
      }
      if (exact) {
        // Nothing the program reads changed: replay the stored fixpoint.
        CCDB_METRIC_COUNT("datalog_fixpoint_hits", 1);
        s->reached_fixpoint = true;
        return entry.state.idb;
      }
      if (grown_only) {
        // Append-only growth: resume semi-naive rounds from the stored
        // state with the new tuples as seed deltas. ResumeDatalog itself
        // rejects the ineligible cases (negation, Z_k, a shrunk EDB) —
        // those fall through to the cold recompute below.
        StatusOr<std::map<std::string, ConstraintRelation>> resumed =
            ResumeDatalog(program, edb, &entry.state, options, s);
        if (resumed.ok()) {
          CCDB_METRIC_COUNT("datalog_fixpoint_resumes", 1);
          entry.edb_versions = versions;
          std::lock_guard<std::mutex> lock(states_mu);
          states[key] = std::move(entry);
          return resumed;
        }
        *s = DatalogStats{};
      }
    }
  }
  StatusOr<std::map<std::string, ConstraintRelation>> idb_or =
      EvaluateDatalog(program, edb, options, s);
  if (!idb_or.ok()) return idb_or.status();
  std::map<std::string, ConstraintRelation>& idb = *idb_or;
  if (use_state) {
    CCDB_METRIC_COUNT("datalog_fixpoint_recomputes", 1);
    // EvaluateDatalog only returns OK at a true fixpoint, so the state is
    // always resumable-from.
    ConstraintDatabase::FixpointEntry entry;
    entry.edb_versions = std::move(versions);
    entry.state.idb = idb;
    for (const auto& [name, relation] : edb) {
      entry.state.edb_sizes[name] = relation.tuples().size();
    }
    std::lock_guard<std::mutex> lock(states_mu);
    states[key] = std::move(entry);
  }
  return std::move(idb);
}

Status Session::Define(const std::string& definition) {
  return db_->Define(definition);
}

Status Session::Register(const std::string& name,
                         ConstraintRelation relation) {
  return db_->Register(name, std::move(relation));
}

Status Session::Drop(const std::string& name) { return db_->Drop(name); }

Status Session::Insert(const std::string& definition) {
  return db_->Insert(definition);
}

}  // namespace ccdb
