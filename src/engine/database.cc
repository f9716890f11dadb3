#include "engine/database.h"

#include <iomanip>
#include <sstream>
#include <utility>

#include "base/logging.h"
#include "base/metrics.h"
#include "engine/session.h"
#include "query/parser.h"

namespace ccdb {

namespace {

std::string FormatMillis(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms";
  return out.str();
}

}  // namespace

std::string QueryProfile::ToString() const {
  std::ostringstream out;
  if (span_tree.has_value()) {
    out << "EXPLAIN ANALYZE (profiled execution)\n";
  } else {
    out << "EXPLAIN (Figure-1 pipeline"
        << (from_cache ? ", whole-query cache hit" : "") << ")\n";
  }
  if (!stats.plan.empty()) {
    out << "  PLAN                    " << stats.plan
        << (from_cache ? "  (cached)" : "") << "\n";
  }
  if (stats.parse_seconds > 0.0) {
    out << "  PARSE                   " << FormatMillis(stats.parse_seconds)
        << "\n";
  }
  auto delta = [this](const char* name) {
    return MetricDelta(metric_deltas, name);
  };
  out << "  INSTANTIATION           "
      << FormatMillis(stats.instantiation_seconds)
      << "  (tuples_kept=" << delta("query.instantiate.tuples_kept")
      << ", tuples_pruned=" << delta("query.instantiate.tuples_pruned")
      << ")\n";
  out << "  QUANTIFIER ELIMINATION  " << FormatMillis(stats.qe_seconds)
      << "  (rounds=" << stats.qe_rounds
      << ", max_bits=" << stats.max_intermediate_bits << ")\n";
  if (ran_numeric) {
    out << "  NUMERICAL EVALUATION    " << FormatMillis(numeric_seconds)
        << "  ("
        << (numeric_finite
                ? "finite, " + std::to_string(numeric_points) + " point(s)"
                : "infinite answer set")
        << ")\n";
  } else {
    out << "  NUMERICAL EVALUATION    skipped (scalar aggregate answer)\n";
  }
  out << "  AGGREGATE EVALUATION    " << FormatMillis(stats.aggregate_seconds)
      << "  (aggregate_calls=" << stats.aggregate_calls
      << ", approximation_calls=" << stats.approximation_calls << ")\n";
  out << "  TOTAL                   " << FormatMillis(total_seconds) << "\n";
  if (span_tree.has_value()) out << "span tree:\n" << span_tree->ToString(1);
  out << "caches: qe_cache hits=" << delta("qe_cache_hits")
      << " misses=" << delta("qe_cache_misses")
      << "  resultant_cache hits=" << delta("resultant_cache_hits") << "\n";
  out << "pool: threads=" << pool_threads
      << " tasks_completed=" << delta("threadpool.tasks_completed")
      << " stolen=" << delta("threadpool.tasks_stolen")
      << " inline=" << delta("threadpool.tasks_inline") << "\n";
  if (governed) {
    out << "governor: steps=" << governor_steps << " bytes=" << governor_bytes
        << "\n";
  }
  if (!metric_deltas.empty()) {
    out << "metrics moved by this query:\n";
    for (const auto& [name, delta] : metric_deltas) {
      out << "  " << name << " += " << delta << "\n";
    }
  }
  return out.str();
}

std::uint64_t MetricDelta(const std::map<std::string, std::uint64_t>& deltas,
                          const std::string& name) {
  auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

std::string QueryProfile::ToJson() const {
  JsonObjectBuilder delta_obj;
  for (const auto& [name, value] : metric_deltas) delta_obj.Add(name, value);
  JsonObjectBuilder caches, pool;
  for (const char* name :
       {"qe_cache_hits", "qe_cache_misses", "resultant_cache_hits"}) {
    caches.Add(name, MetricDelta(metric_deltas, name));
  }
  pool.Add("threads", pool_threads);
  for (const char* name : {"tasks_completed", "tasks_stolen", "tasks_inline"}) {
    pool.Add(name, MetricDelta(metric_deltas, std::string("threadpool.") +
                                                  name));
  }
  return JsonObjectBuilder()
      .Add("total_seconds", total_seconds)
      .AddRaw("stats", stats.ToJson())
      .Add("from_cache", from_cache)
      .AddRaw("span_tree", span_tree.has_value() ? span_tree->ToJson() : "null")
      .Add("ran_numeric", ran_numeric)
      .Add("numeric_finite", numeric_finite)
      .Add("numeric_points", static_cast<std::uint64_t>(numeric_points))
      .Add("numeric_seconds", numeric_seconds)
      .AddRaw("caches", caches.Build())
      .AddRaw("pool", pool.Build())
      .AddRaw("governor", JsonObjectBuilder()
                              .Add("governed", governed)
                              .Add("steps", governor_steps)
                              .Add("bytes", governor_bytes)
                              .Build())
      .AddRaw("metric_deltas", delta_obj.Build())
      .Build();
}

std::string ExplainAnalyzeResult::ToString() const {
  std::ostringstream out;
  out << profile.ToString();
  out << "result: " << result.relation.tuples().size() << " generalized "
      << "tuple(s), arity " << result.relation.arity();
  if (result.has_scalar) {
    out << ", scalar "
        << (result.scalar.exact ? result.scalar.exact_value.ToString()
                                : std::to_string(result.scalar.approx_value));
  }
  out << "\n";
  return out.str();
}

ConstraintDatabase::ConstraintDatabase(CalcFOptions options)
    : options_(std::move(options)),
      db_id_(Catalog::ReserveVersion()),
      session_(new Session(this, EngineConfig::Process(), /*id=*/0)) {}

ConstraintDatabase::ConstraintDatabase(ConstraintDatabase&& other) noexcept
    : options_(std::move(other.options_)),
      catalog_(std::move(other.catalog_)),
      db_id_(other.db_id_),
      durability_(other.durability_),
      store_(std::move(other.store_)),
      session_(std::move(other.session_)) {
  session_->db_ = this;
  std::lock_guard<std::mutex> lock(other.fixpoint_mu_);
  fixpoint_states_ = std::move(other.fixpoint_states_);
}

ConstraintDatabase& ConstraintDatabase::operator=(
    ConstraintDatabase&& other) noexcept {
  if (this == &other) return *this;
  options_ = std::move(other.options_);
  catalog_ = std::move(other.catalog_);
  db_id_ = other.db_id_;
  durability_ = other.durability_;
  store_ = std::move(other.store_);
  session_ = std::move(other.session_);
  session_->db_ = this;
  std::scoped_lock lock(fixpoint_mu_, other.fixpoint_mu_);
  fixpoint_states_ = std::move(other.fixpoint_states_);
  return *this;
}

ConstraintDatabase::~ConstraintDatabase() {
  // Close-time checkpoint: fold any WAL records into a checkpoint so the
  // next open recovers without replay. Best effort — on failure the WAL
  // still holds everything acknowledged, so nothing is lost.
  if (store_ != nullptr && store_->wal_record_bytes() > 0) {
    Status st = CheckpointLocked();
    if (!st.ok()) {
      CCDB_LOG(WARN) << "close-time checkpoint failed (WAL retains state): "
                     << st.ToString();
    }
  }
}

StatusOr<ConstraintDatabase> ConstraintDatabase::OpenDurable(
    const std::string& dir, CalcFOptions options,
    DurabilityOptions durability) {
  CCDB_METRIC_COUNT("db.durable_opens", 1);
  ConstraintDatabase db(std::move(options));
  db.durability_ = durability;
  CCDB_ASSIGN_OR_RETURN(db.store_, DurableStore::Open(dir, durability));
  db.catalog_ = db.store_->TakeCatalog();
  return db;
}

Status ConstraintDatabase::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return CheckpointLocked();
}

Status ConstraintDatabase::CheckpointLocked() {
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint requires a durable database (OpenDurable)");
  }
  // A fresh stamp exceeds every record logged so far (stamps are reserved
  // before their append), so replay after this checkpoint skips them all.
  return store_->WriteCheckpoint(catalog_.Serialize(),
                                 Catalog::ReserveVersion());
}

Status ConstraintDatabase::MutateDurably(
    WalRecord::Op op, const std::string& payload,
    const std::function<Status()>& precheck,
    const std::function<Status()>& apply) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Preconditions run under the same lock as the append: a record that
  // reaches the WAL is guaranteed replayable (no duplicate-name Define, no
  // Drop of a missing relation can be logged even under racing mutators).
  CCDB_RETURN_IF_ERROR(precheck());
  if (store_ != nullptr) {
    // Write-ahead: reserve the version stamp, log, and only then apply.
    // If the append fails (injected fault, full disk) the mutation is
    // rejected — the catalog never holds state the log does not.
    CCDB_RETURN_IF_ERROR(
        store_->LogMutation(op, payload, Catalog::ReserveVersion()));
  }
  CCDB_RETURN_IF_ERROR(apply());
  if (store_ != nullptr &&
      store_->wal_record_bytes() >= durability_.checkpoint_bytes) {
    Status st = CheckpointLocked();
    if (!st.ok()) {
      // The mutation itself is durable (it is in the WAL); a failed
      // rotation only defers compaction to the next attempt.
      CCDB_LOG(WARN) << "auto-checkpoint failed (retrying later): "
                     << st.ToString();
    }
  }
  return Status::Ok();
}

Status ConstraintDatabase::Define(const std::string& definition) {
  // Parse BEFORE logging: a record in the WAL must be replayable, so
  // anything that would fail to apply is rejected up front.
  CCDB_ASSIGN_OR_RETURN(ParsedRelationDef def, ParseRelationDef(definition));
  // Log the canonical rendering, not the user's text: replay goes through
  // the same serializer/parser pair as checkpoints, so the recovered
  // relation is bit-identical however the definition was spelled.
  const std::string payload = SerializeRelationDef(def.name, def.relation);
  std::string name = def.name;
  ConstraintRelation relation = std::move(def.relation);
  return MutateDurably(
      WalRecord::Op::kDefine, payload,
      [&]() {
        if (catalog_.HasRelation(name)) {
          return Status::AlreadyExists("relation " + name +
                                       " already exists");
        }
        return Status::Ok();
      },
      [&]() { return catalog_.AddRelation(name, std::move(relation)); });
}

Status ConstraintDatabase::Register(const std::string& name,
                                    ConstraintRelation relation) {
  const std::string payload = SerializeRelationDef(name, relation);
  return MutateDurably(
      WalRecord::Op::kRegister, payload,
      [&]() {
        if (catalog_.HasRelation(name)) {
          return Status::AlreadyExists("relation " + name +
                                       " already exists");
        }
        return Status::Ok();
      },
      [&]() { return catalog_.AddRelation(name, std::move(relation)); });
}

Status ConstraintDatabase::Drop(const std::string& name) {
  return MutateDurably(
      WalRecord::Op::kDrop, name,
      [&]() {
        if (!catalog_.HasRelation(name)) {
          return Status::NotFound("relation " + name + " not found");
        }
        return Status::Ok();
      },
      [&]() { return catalog_.DropRelation(name); });
}

Status ConstraintDatabase::Insert(const std::string& definition) {
  // Parse BEFORE logging and log the canonical rendering, exactly like
  // Define: a kInsert record in the WAL must replay bit-identically.
  CCDB_ASSIGN_OR_RETURN(ParsedRelationDef def, ParseRelationDef(definition));
  const std::string payload = SerializeRelationDef(def.name, def.relation);
  std::string name = def.name;
  ConstraintRelation delta = std::move(def.relation);
  return MutateDurably(
      WalRecord::Op::kInsert, payload,
      [&]() {
        // The catalog re-checks both conditions, but they must hold BEFORE
        // the WAL append — a logged record that cannot apply would poison
        // replay.
        StatusOr<RelationBody> existing = catalog_.Snapshot()->GetBody(name);
        if (!existing.ok()) return existing.status();
        if (existing->arity() != delta.arity()) {
          return Status::InvalidArgument(
              "insert arity " + std::to_string(delta.arity()) +
              " does not match relation " + name + " arity " +
              std::to_string(existing->arity()));
        }
        return Status::Ok();
      },
      [&]() { return catalog_.InsertTuples(name, delta); });
}

Status ConstraintDatabase::Load(const std::string& path) {
  CCDB_ASSIGN_OR_RETURN(Catalog loaded, Catalog::LoadFromFile(path));
  // A wholesale load is one logical mutation: the WAL record carries the
  // full serialization so replay reproduces exactly this catalog state.
  return MutateDurably(
      WalRecord::Op::kLoad, loaded.Serialize(),
      []() { return Status::Ok(); },
      [&]() {
        catalog_ = std::move(loaded);
        return Status::Ok();
      });
}

StatusOr<CalcFResult> ConstraintDatabase::Query(const std::string& text) const {
  return session_->Query(text);
}

StatusOr<CalcFResult> ConstraintDatabase::QueryWithPolicy(
    const std::string& text, const QueryPolicy& policy) const {
  return session_->QueryWithPolicy(text, policy);
}

StatusOr<ExplainAnalyzeResult> ConstraintDatabase::Explain(
    const std::string& text) const {
  return session_->Explain(text);
}

StatusOr<ExplainAnalyzeResult> ConstraintDatabase::ExplainAnalyze(
    const std::string& text) const {
  return session_->ExplainAnalyze(text);
}

StatusOr<std::string> ConstraintDatabase::Plan(const std::string& text) const {
  return session_->Plan(text);
}

StatusOr<CalcFResult> ConstraintDatabase::QueryFp(const std::string& text,
                                                  std::uint32_t k,
                                                  FpQeStats* stats) const {
  return session_->QueryFp(text, k, stats);
}

StatusOr<std::vector<std::vector<Rational>>> ConstraintDatabase::Solve(
    const std::string& text, const Rational& epsilon) const {
  return session_->Solve(text, epsilon);
}

StatusOr<std::map<std::string, ConstraintRelation>>
ConstraintDatabase::Fixpoint(const DatalogProgram& program,
                             const DatalogOptions& options,
                             DatalogStats* stats) const {
  return session_->Fixpoint(program, options, stats);
}

StatusOr<std::vector<std::pair<std::string, std::uint64_t>>>
ConstraintDatabase::ReadSet(const std::string& text) const {
  return session_->ReadSet(text);
}

}  // namespace ccdb
