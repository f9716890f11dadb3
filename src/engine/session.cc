#include "engine/session.h"

#include <atomic>
#include <chrono>
#include <optional>
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

using ReadVersions = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t NextSessionId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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

std::string QueryCacheKey(std::uint64_t db_id, const std::string& text,
                          const ReadVersions& read_set) {
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
// text alone: the AST, hence the name set, is a pure function of it. A
// non-null `parsed` gets the parse when there was one (a memo miss), so
// the evaluation that follows need not parse the text again.
StatusOr<std::vector<std::string>> RelationsReadBy(
    const std::string& text, std::optional<ParsedQuery>* parsed = nullptr) {
  static auto* cache =
      new ShardedMemoCache<std::string, std::vector<std::string>>(
          "read_set_cache", 64);
  std::vector<std::string> names;
  const bool use_cache = MemoCachesEnabled();
  if (use_cache && cache->Lookup(text, &names)) return names;
  CCDB_ASSIGN_OR_RETURN(ParsedQuery parse, ParseQuery(text));
  std::set<std::string> set;
  CollectRelationNames(*parse.formula, &set);
  if (parsed != nullptr) *parsed = std::move(parse);
  names.assign(set.begin(), set.end());
  if (use_cache) cache->Insert(text, names);
  return names;
}

// Resolves a name set against one catalog snapshot: absent relations
// version as 0, so a later Define (nonzero version) changes the key.
ReadVersions ResolveReadSet(const std::vector<std::string>& names,
                            const Catalog::View& snapshot) {
  ReadVersions read_set;
  read_set.reserve(names.size());
  for (const std::string& name : names) {
    std::optional<RelationVersion> version = snapshot.GetRelationVersion(name);
    read_set.emplace_back(name,
                          version.has_value() ? version->version : 0);
  }
  return read_set;
}

// The query's read-set at `snapshot`: the whole-query memo key and the
// log's invalidation scope. Unparsable text has none (the evaluator
// reports the parse error), so it is never cached. `parsed` as for
// RelationsReadBy.
std::optional<ReadVersions> ReadSetAt(const std::string& text,
                                      const Catalog::View& snapshot,
                                      std::optional<ParsedQuery>* parsed) {
  StatusOr<std::vector<std::string>> names = RelationsReadBy(text, parsed);
  if (!names.ok()) return std::nullopt;
  return ResolveReadSet(*names, snapshot);
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

// Builds and appends one structured query-log record (base/query_log.h).
// Call only when the log is enabled; observation only — never affects the
// result being logged.
void AppendQueryLogRecord(
    QueryLog& log, std::uint64_t session_id,
    const std::string& config_fingerprint, const char* kind,
    const std::string& text, std::uint64_t catalog_version,
    const StatusOr<CalcFResult>& result, bool cache_hit,
    const ResourceGovernor* governor, double elapsed_seconds,
    const std::map<std::string, std::uint64_t>& deltas,
    const std::optional<ReadVersions>& read_set,
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
  if (read_set.has_value()) {
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
  // What a governed evaluation consumed, read through the governor's one
  // coherent snapshot (pool workers charge it concurrently).
  if (governor != nullptr) {
    ResourceGovernor::Consumption consumed = governor->Snapshot();
    record.AddRaw("verdict",
                  JsonObjectBuilder()
                      .Add("ok", result.ok())
                      .Add("steps_consumed", consumed.steps)
                      .Add("bytes_consumed", consumed.bytes)
                      .Add("elapsed_seconds", consumed.elapsed_seconds)
                      .Build());
  }
  // Cache temperature this query ran at: hit/miss deltas of the memo
  // layers (whole-query, QE result, resultant).
  JsonObjectBuilder caches;
  for (const char* name : {"query_cache_hits", "qe_cache_hits",
                           "qe_cache_misses", "resultant_cache_hits"}) {
    caches.Add(name, MetricDelta(deltas, name));
  }
  record.AddRaw("caches", caches.Build());
  if (!profile_json.empty()) record.AddRaw("profile", profile_json);
  log.Append(record.Build());
}

// A relation lookup pinned to one catalog snapshot: every relation a
// query instantiates comes from the same catalog version, even while
// writers mutate concurrently.
CalcFEvaluator::RelationLookup LookupFor(
    std::shared_ptr<const Catalog::View> snapshot) {
  return [snapshot = std::move(snapshot)](
             const std::string& name) -> StatusOr<RelationBody> {
    return snapshot->GetBody(name);
  };
}

// A query text parsed, lowered with its free variables as the output
// columns (indices 0..arity-1) and instantiated at `snapshot`: what Plan
// and QueryFp hand to elimination.
struct InstantiatedQuery {
  std::vector<std::string> columns;
  VarEnv env;
  int arity = 0;
  Formula formula = Formula::True();
};

StatusOr<InstantiatedQuery> InstantiateText(
    const std::string& text, std::shared_ptr<const Catalog::View> snapshot) {
  CCDB_ASSIGN_OR_RETURN(auto parsed, ParseFormula(text));
  InstantiatedQuery query;
  query.columns = parsed->FreeVarNames();
  for (const std::string& column : query.columns) query.env.Intern(column);
  query.arity = query.env.next_index;
  CCDB_ASSIGN_OR_RETURN(Formula lowered, LowerFormula(*parsed, &query.env));
  CCDB_ASSIGN_OR_RETURN(
      query.formula,
      lowered.InstantiateRelations(LookupFor(std::move(snapshot))));
  return query;
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
                     const TraceSpan& span, const CalcFOptions& options,
                     ExplainAnalyzeResult* out) {
  QueryProfile& profile = out->profile;
  Status status = outcome.status();
  if (outcome.ok()) {
    out->result = *std::move(outcome);
    profile.stats = out->result.stats;
    if (!out->result.has_scalar && out->result.relation.arity() > 0) {
      profile.ran_numeric = true;
      StatusOr<NumericalEvaluation> numeric = EvaluateNumerically(
          out->result.relation, options.qe.governor, options.qe.pool);
      if (numeric.ok()) {
        profile.numeric_seconds = numeric->elapsed_us * 1e-6;
        profile.numeric_finite = numeric->finite;
        profile.numeric_points = numeric->points.size();
      } else {
        status = numeric.status();
      }
    }
  }
  profile.total_seconds = span.ElapsedUs() * 1e-6;
  profile.metric_deltas =
      MetricDeltas(before, MetricsRegistry::Global().SnapshotValues());
  profile.pool_threads =
      static_cast<std::uint64_t>(options.qe.pool->threads());
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
  return std::unique_ptr<Session>(
      new Session(this, std::move(config), NextSessionId()));
}

Session::Session(ConstraintDatabase* db, EngineConfig config, std::uint64_t id)
    : db_(db),
      config_(std::move(config)),
      fingerprint_(config_.Fingerprint()),
      id_(id),
      options_(db->options()) {
  // An opened session runs on a pool of its own; so does the default
  // session, unless the database was built with an explicit qe.pool.
  if (id_ != 0 || options_.qe.pool == nullptr) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    options_.qe.pool = pool_.get();
  }
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
  return QueryImpl(text, options_, "query", nullptr);
}

StatusOr<CalcFResult> Session::QueryWithPolicy(
    const std::string& text, const QueryPolicy& policy) const {
  CCDB_TRACE_SPAN("db.query_with_policy");
  CCDB_METRIC_COUNT("db.governed_queries", 1);
  ResourceGovernor gov(policy.limits, policy.cancel);
  CalcFOptions options = options_;
  options.qe.governor = &gov;
  StatusOr<CalcFResult> outcome = QueryImpl(text, options, "governed", nullptr);
  if (outcome.status().code() == StatusCode::kResourceExhausted) {
    CCDB_METRIC_COUNT("db.governed_exhausted", 1);
  }
  return outcome;
}

StatusOr<CalcFResult> Session::QueryImpl(const std::string& text,
                                         const CalcFOptions& options,
                                         const char* kind,
                                         bool* cache_hit) const {
  TraceSpan span("db.query");
  CCDB_METRIC_COUNT("db.queries", 1);
  if (cache_hit != nullptr) *cache_hit = false;
  QueryLog& qlog = Log();
  const bool log = qlog.enabled();
  std::map<std::string, std::uint64_t> before;
  if (log) before = MetricsRegistry::Global().SnapshotValues();
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
  const bool use_cache = options.qe.governor == nullptr && MemoCachesEnabled();
  std::optional<ReadVersions> read_set;
  std::optional<ParsedQuery> parsed;  // set when the read-set lookup parsed
  if (use_cache || log) read_set = ReadSetAt(text, *snapshot, &parsed);
  StatusOr<CalcFResult> outcome = [&]() -> StatusOr<CalcFResult> {
    std::string key;
    if (use_cache && read_set) {
      key = QueryCacheKey(db_->db_id_, text, *read_set);
      CalcFResult cached;
      if (QueryResultCache().Lookup(key, &cached)) {
        hit = true;
        return cached;
      }
    }
    CalcFEvaluator evaluator(LookupFor(snapshot), options);
    CCDB_ASSIGN_OR_RETURN(CalcFResult result,
                          parsed.has_value() ? evaluator.Evaluate(*parsed)
                                             : evaluator.EvaluateText(text));
    if (use_cache && read_set) QueryResultCache().Insert(key, result);
    return result;
  }();
  if (cache_hit != nullptr) *cache_hit = hit;
  if (log) {
    AppendQueryLogRecord(
        qlog, id_, fingerprint_, kind, text, snapshot->version(), outcome, hit,
        options.qe.governor, span.ElapsedUs() * 1e-6,
        MetricDeltas(before, MetricsRegistry::Global().SnapshotValues()),
        read_set);
  }
  return outcome;
}

StatusOr<ExplainAnalyzeResult> Session::Explain(const std::string& text) const {
  TraceSpan span("db.explain");
  CCDB_METRIC_COUNT("db.explains", 1);
  auto before = MetricsRegistry::Global().SnapshotValues();
  // The whole-query memo applies (Query already logs the record); the
  // profile carries no QE round trees.
  ExplainAnalyzeResult out;
  CCDB_RETURN_IF_ERROR(FinishProfile(QueryImpl(text, options_, "query",
                                               &out.profile.from_cache),
                                     before, span, options_, &out));
  return out;
}

StatusOr<ExplainAnalyzeResult> Session::ExplainAnalyze(
    const std::string& text) const {
  TraceSpan span("db.explain_analyze");
  CCDB_METRIC_COUNT("db.explain_analyzes", 1);
  QueryLog& qlog = Log();
  const bool log = qlog.enabled();
  auto before = MetricsRegistry::Global().SnapshotValues();
  // Run the actual pipeline with the span tree collected under this span
  // — the whole-query memo is bypassed on purpose (EXPLAIN ANALYZE
  // observes an execution, not a memo lookup); the QE / resultant memo
  // layers still apply and surface as cache temperature. Collection is
  // observation only: the evaluation is byte-identical to Query(text).
  span.CollectProfile();
  std::shared_ptr<const Catalog::View> snapshot = ReadSnapshot();
  std::optional<ReadVersions> read_set;
  std::optional<ParsedQuery> parsed;
  if (log) read_set = ReadSetAt(text, *snapshot, &parsed);
  CalcFEvaluator evaluator(LookupFor(snapshot), options_);
  ExplainAnalyzeResult out;
  Status status = FinishProfile(parsed.has_value()
                                    ? evaluator.Evaluate(*parsed)
                                    : evaluator.EvaluateText(text),
                                before, span, options_, &out);
  out.profile.span_tree = span.TakeProfile();
  // One record per call, whichever stage failed.
  if (log) {
    AppendQueryLogRecord(
        qlog, id_, fingerprint_, "explain_analyze", text, snapshot->version(),
        status.ok() ? StatusOr<CalcFResult>(out.result)
                    : StatusOr<CalcFResult>(status),
        /*cache_hit=*/false, options_.qe.governor, out.profile.total_seconds,
        out.profile.metric_deltas, read_set,
        status.ok() ? out.profile.ToJson() : "");
  }
  CCDB_RETURN_IF_ERROR(status);
  return out;
}

StatusOr<std::string> Session::Plan(const std::string& text) const {
  CCDB_TRACE_SPAN("db.plan");
  CCDB_METRIC_COUNT("db.plans", 1);
  CCDB_ASSIGN_OR_RETURN(InstantiatedQuery query,
                        InstantiateText(text, ReadSnapshot()));
  CCDB_ASSIGN_OR_RETURN(QueryPlan plan,
                        PlanQuery(query.formula, query.arity,
                                  options_.qe.governor));
  return plan.ToString(query.env.NamesByIndex());
}

StatusOr<CalcFResult> Session::QueryFp(const std::string& text,
                                       std::uint32_t k,
                                       FpQeStats* stats) const {
  CCDB_TRACE_SPAN("db.query_fp");
  CCDB_METRIC_COUNT("db.fp_queries", 1);
  CCDB_ASSIGN_OR_RETURN(InstantiatedQuery query,
                        InstantiateText(text, ReadSnapshot()));
  CalcFResult result;
  CCDB_ASSIGN_OR_RETURN(
      result.relation,
      EliminateQuantifiersFp(query.formula, query.arity, FpContext{k}, stats,
                             pool()));
  result.column_names = std::move(query.columns);
  return result;
}

StatusOr<std::vector<std::vector<Rational>>> Session::Solve(
    const std::string& text, const Rational& epsilon) const {
  CCDB_TRACE_SPAN("db.solve");
  CCDB_METRIC_COUNT("db.solves", 1);
  CCDB_ASSIGN_OR_RETURN(CalcFResult result,
                        QueryImpl(text, options_, "query", nullptr));
  return ApproximateSolutions(result.relation, epsilon, options_.qe.governor,
                              pool());
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
