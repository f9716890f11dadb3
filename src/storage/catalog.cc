#include "storage/catalog.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "qe/fourier_motzkin.h"
#include "query/parser.h"
#include "storage/wal.h"

namespace ccdb {

namespace {

// Process-global version source shared by every Catalog instance: a fresh
// stamp per mutation means no two catalog states can ever share a version,
// including a catalog replaced wholesale by Deserialize/LoadFromFile.
// Recovery raises the counter past every stamp found on disk
// (EnsureVersionAtLeast), so the guarantee extends across crashes.
std::atomic<std::uint64_t>& CatalogVersionCounter() {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}

std::uint64_t NextCatalogVersion() {
  return CatalogVersionCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

// Deserialize guard: a "line" this long is hostile input (the biggest
// legitimate definitions are a few KB), and feeding it to the parser would
// only burn memory before failing anyway.
constexpr std::size_t kMaxCatalogLineBytes = 1u << 20;

}  // namespace

std::uint64_t Catalog::ReserveVersion() { return NextCatalogVersion(); }

void Catalog::EnsureVersionAtLeast(std::uint64_t version) {
  std::atomic<std::uint64_t>& counter = CatalogVersionCounter();
  std::uint64_t current = counter.load(std::memory_order_relaxed);
  while (current < version &&
         !counter.compare_exchange_weak(current, version,
                                        std::memory_order_relaxed)) {
  }
}

Catalog::Catalog() {
  // Even an empty catalog has a unique version (two fresh catalogs must
  // not alias each other in the whole-query memo).
  auto initial = std::make_shared<View>();
  initial->version_ = NextCatalogVersion();
  view_ = std::move(initial);
}

Catalog::Catalog(const Catalog& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  view_ = other.view_;
}

Catalog& Catalog::operator=(const Catalog& other) {
  if (this == &other) return *this;
  std::shared_ptr<const View> theirs;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    theirs = other.view_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  view_ = std::move(theirs);
  return *this;
}

Catalog::Catalog(Catalog&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  view_ = std::move(other.view_);
  other.view_ = std::make_shared<View>();
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  std::shared_ptr<const View> theirs;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    theirs = std::move(other.view_);
    other.view_ = std::make_shared<View>();
  }
  std::lock_guard<std::mutex> lock(mu_);
  view_ = std::move(theirs);
  return *this;
}

std::shared_ptr<const Catalog::View> Catalog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

void Catalog::RefreshVersion() {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<View>(*view_);
  // Per-relation stamps first, in name order (deterministic draw order),
  // then the catalog stamp — every stamp in the refreshed view is fresher
  // than anything drawn before the refresh.
  for (auto& [name, entry] : next->relations_) {
    (void)name;
    auto fresh = std::make_shared<Entry>(*entry);
    fresh->version.version = NextCatalogVersion();
    fresh->version.base = fresh->version.version;
    entry = std::move(fresh);
  }
  next->version_ = NextCatalogVersion();
  view_ = std::move(next);
}

std::uint64_t Catalog::version() const { return Snapshot()->version(); }

Status Catalog::AddRelation(const std::string& name,
                            ConstraintRelation relation) {
  CCDB_METRIC_COUNT("catalog.relations_added", 1);
  std::lock_guard<std::mutex> lock(mu_);
  if (view_->relations_.count(name) != 0) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  // Simulated mid-ingest failure: must not leak a half-built entry into
  // the published view (the swap below is the single commit point).
  CCDB_FAILPOINT("catalog.add");
  auto next = std::make_shared<View>(*view_);
  std::vector<TupleBox> boxes;
  std::unordered_set<std::size_t> hashes;
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    boxes.push_back(TupleBox::Of(tuple, relation.arity()));
    hashes.insert(tuple.Hash());
  }
  next->version_ = NextCatalogVersion();
  // A (re)definition is a structural change: version and base move
  // together, so any cache entry keyed on the old stamps — including one
  // for a previously dropped relation of the same name — misses.
  next->relations_.emplace(
      name, std::make_shared<const Entry>(Entry{
                RelationBody(std::move(relation), std::move(boxes)),
                std::move(hashes), {next->version_, next->version_}}));
  view_ = std::move(next);
  return Status::Ok();
}

Status Catalog::InsertTuples(const std::string& name,
                             const ConstraintRelation& delta) {
  CCDB_METRIC_COUNT("catalog.inserts", 1);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = view_->relations_.find(name);
  if (it == view_->relations_.end()) {
    return Status::NotFound("relation " + name + " not found");
  }
  const Entry& old = *it->second;
  const int arity = old.body.arity();
  if (delta.arity() != arity) {
    return Status::InvalidArgument(
        "insert arity " + std::to_string(delta.arity()) + " != relation " +
        name + " arity " + std::to_string(arity));
  }
  CCDB_FAILPOINT("catalog.insert");
  auto next = std::make_shared<View>(*view_);
  ConstraintRelation relation = old.body.relation();
  std::vector<TupleBox> boxes = old.body.Boxes();
  std::unordered_set<std::size_t> hashes = old.tuple_hashes;
  // Canonicalize the delta and drop syntactic duplicates of existing (or
  // earlier delta) tuples — exactly the normal form a serialize/parse
  // round trip produces, so a checkpoint after the insert reloads to the
  // same tuple vector. The existing prefix is never touched.
  std::vector<GeneralizedTuple> appended =
      SimplifyTuples(std::vector<GeneralizedTuple>(delta.tuples()));
  for (GeneralizedTuple& tuple : appended) {
    const std::size_t hash = tuple.Hash();
    // Only a hash hit scans the tuples: equal hashes may still differ.
    const std::vector<GeneralizedTuple>& tuples = relation.tuples();
    if (hashes.count(hash) != 0 &&
        std::find(tuples.begin(), tuples.end(), tuple) != tuples.end()) {
      continue;
    }
    hashes.insert(hash);
    boxes.push_back(TupleBox::Of(tuple, arity));
    relation.AddTuple(std::move(tuple));
    CCDB_METRIC_COUNT("catalog.tuples_inserted", 1);
  }
  next->version_ = NextCatalogVersion();
  // base unchanged: append-only
  RelationVersion version{next->version_, old.version.base};
  next->relations_[name] = std::make_shared<const Entry>(
      Entry{RelationBody(std::move(relation), std::move(boxes)),
            std::move(hashes), version});
  view_ = std::move(next);
  return Status::Ok();
}

Status Catalog::InsertTuplesFromText(const std::string& definition) {
  CCDB_ASSIGN_OR_RETURN(ParsedRelationDef def, ParseRelationDef(definition));
  return InsertTuples(def.name, def.relation);
}

Status Catalog::AddRelationFromText(const std::string& definition) {
  CCDB_ASSIGN_OR_RETURN(ParsedRelationDef def, ParseRelationDef(definition));
  return AddRelation(def.name, std::move(def.relation));
}

Status Catalog::DropRelation(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (view_->relations_.count(name) == 0) {
    return Status::NotFound("relation " + name + " not found");
  }
  auto next = std::make_shared<View>(*view_);
  next->relations_.erase(name);
  next->version_ = NextCatalogVersion();
  view_ = std::move(next);
  return Status::Ok();
}

bool Catalog::HasRelation(const std::string& name) const {
  return Snapshot()->HasRelation(name);
}

StatusOr<ConstraintRelation> Catalog::GetRelation(
    const std::string& name) const {
  return Snapshot()->GetRelation(name);
}

std::vector<std::string> Catalog::RelationNames() const {
  return Snapshot()->RelationNames();
}

StatusOr<bool> Catalog::Contains(const std::string& name,
                                 const std::vector<Rational>& point) const {
  return Snapshot()->Contains(name, point);
}

std::string Catalog::Serialize() const { return Snapshot()->Serialize(); }

bool Catalog::View::HasRelation(const std::string& name) const {
  return relations_.count(name) != 0;
}

StatusOr<ConstraintRelation> Catalog::View::GetRelation(
    const std::string& name) const {
  CCDB_ASSIGN_OR_RETURN(RelationBody body, GetBody(name));
  return body.relation();
}

StatusOr<RelationBody> Catalog::View::GetBody(const std::string& name) const {
  CCDB_METRIC_COUNT("catalog.lookups", 1);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    CCDB_METRIC_COUNT("catalog.lookup_misses", 1);
    return Status::NotFound("relation " + name + " not found");
  }
  return it->second->body;
}

std::optional<RelationVersion> Catalog::View::GetRelationVersion(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return std::nullopt;
  return it->second->version;
}

std::vector<std::string> Catalog::View::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, entry] : relations_) names.push_back(name);
  return names;
}

StatusOr<bool> Catalog::View::Contains(
    const std::string& name, const std::vector<Rational>& point) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + name + " not found");
  }
  const Entry& entry = *it->second;
  const ConstraintRelation& relation = entry.body.relation();
  if (static_cast<int>(point.size()) != relation.arity()) {
    return Status::InvalidArgument("point arity mismatch");
  }
  const std::vector<TupleBox>& boxes = entry.body.Boxes();
  for (std::size_t i = 0; i < relation.tuples().size(); ++i) {
    if (!boxes[i].MayContain(point)) {
      // Index fast path: the bounding box proves non-membership without
      // evaluating the tuple's polynomial constraints.
      CCDB_METRIC_COUNT("catalog.box_index.pruned", 1);
      continue;
    }
    CCDB_METRIC_COUNT("catalog.box_index.evaluated", 1);
    if (relation.tuples()[i].SatisfiedAt(point)) return true;
  }
  return false;
}

std::string SerializeRelationDef(const std::string& name,
                                 const ConstraintRelation& rel) {
  std::ostringstream out;
  std::vector<std::string> columns;
  for (int v = 0; v < rel.arity(); ++v) {
    columns.push_back("x" + std::to_string(v));
  }
  out << name << "(";
  for (int v = 0; v < rel.arity(); ++v) {
    if (v > 0) out << ", ";
    out << columns[v];
  }
  out << ") := ";
  if (rel.tuples().empty()) {
    out << "false";
  } else {
    for (std::size_t t = 0; t < rel.tuples().size(); ++t) {
      if (t > 0) out << " or ";
      const GeneralizedTuple& tuple = rel.tuples()[t];
      out << "(";
      if (tuple.atoms.empty()) {
        out << "0 = 0";
      }
      for (std::size_t a = 0; a < tuple.atoms.size(); ++a) {
        if (a > 0) out << " and ";
        out << tuple.atoms[a].poly.ToString(columns) << " "
            << RelOpToString(tuple.atoms[a].op) << " 0";
      }
      out << ")";
    }
  }
  return out.str();
}

std::string Catalog::View::Serialize() const {
  std::ostringstream out;
  out << "# ccdb catalog v1\n";
  for (const auto& [name, entry] : relations_) {
    out << SerializeRelationDef(name, entry->body.relation()) << "\n";
  }
  return out.str();
}

StatusOr<Catalog> Catalog::Deserialize(const std::string& text) {
  Catalog catalog;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.size() > kMaxCatalogLineBytes) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": definition exceeds " +
          std::to_string(kMaxCatalogLineBytes) + " bytes");
    }
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    // Empty relations serialize as "... := false", which the definition
    // parser handles through the 'false' keyword. Duplicate relation
    // names surface as kAlreadyExists from AddRelation; any other
    // garbage as the parser's kInvalidArgument — always a clean Status
    // carrying the line number.
    Status added = catalog.AddRelationFromText(line);
    if (!added.ok()) {
      return Status(added.code(), "line " + std::to_string(line_number) +
                                      ": " + added.message());
    }
  }
  return catalog;
}

Status Catalog::SaveToFile(const std::string& path) const {
  // Atomic replace (tmp + fsync + rename): a crash at any point leaves
  // either the old file or the new one, never a torn mix.
  return AtomicWriteFile(path, Serialize(), "save");
}

StatusOr<Catalog> Catalog::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Deserialize(buffer.str());
}

}  // namespace ccdb
