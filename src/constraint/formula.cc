#include "constraint/formula.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "base/logging.h"
#include "base/metrics.h"

namespace ccdb {

/// An interned formula node. Immutable after Finish(); every node reachable
/// from a Formula handle lives in the arena, so node identity (pointer or
/// id) coincides with structural identity.
struct Formula::Node {
  Kind kind = Kind::kTrue;
  Atom atom;
  std::string relation_name;
  std::vector<int> relation_args;
  std::vector<Formula> children;
  int var = -1;

  // Caches, computed once by Finish() before interning.
  std::size_t hash = 0;
  std::uint64_t id = 0;
  bool quantifier_free = true;
  bool has_relations = false;
  std::set<int> free_vars;

  static void Finish(Node* node);
  static bool Equal(const Node& a, const Node& b);
  /// Deterministic structural 3-way comparison. Hash-first is an
  /// optimization, not an order change: the hash is structural (FNV over
  /// content), so the order is identical across runs and thread counts.
  static int Compare(const Node& a, const Node& b);
};

void Formula::Node::Finish(Node* node) {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::size_t value) { h = h * 1099511628211ull + value; };
  mix(static_cast<std::size_t>(node->kind));
  switch (node->kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      break;
    case Kind::kAtom: {
      mix(node->atom.Hash());
      const Polynomial& p = node->atom.poly;
      for (int v = 0; v <= p.max_var(); ++v) {
        if (p.Mentions(v)) node->free_vars.insert(v);
      }
      break;
    }
    case Kind::kRelation:
      mix(std::hash<std::string>{}(node->relation_name));
      for (int a : node->relation_args) {
        mix(static_cast<std::size_t>(a));
        node->free_vars.insert(a);
      }
      node->has_relations = true;
      break;
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
      for (const Formula& child : node->children) {
        mix(child.node_->hash);
        node->quantifier_free &= child.node_->quantifier_free;
        node->has_relations |= child.node_->has_relations;
        node->free_vars.insert(child.node_->free_vars.begin(),
                               child.node_->free_vars.end());
      }
      break;
    case Kind::kExists:
    case Kind::kForall: {
      const Node& body = *node->children[0].node_;
      mix(static_cast<std::size_t>(node->var));
      mix(body.hash);
      node->quantifier_free = false;
      node->has_relations = body.has_relations;
      node->free_vars = body.free_vars;
      node->free_vars.erase(node->var);
      break;
    }
  }
  node->hash = h;
}

bool Formula::Node::Equal(const Node& a, const Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return true;
    case Kind::kAtom:
      return a.atom == b.atom;
    case Kind::kRelation:
      return a.relation_name == b.relation_name &&
             a.relation_args == b.relation_args;
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr: {
      if (a.children.size() != b.children.size()) return false;
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        // Children are interned, so structural equality is pointer equality.
        if (a.children[i].node_ != b.children[i].node_) return false;
      }
      return true;
    }
    case Kind::kExists:
    case Kind::kForall:
      return a.var == b.var && a.children[0].node_ == b.children[0].node_;
  }
  return false;
}

int Formula::Node::Compare(const Node& a, const Node& b) {
  if (&a == &b) return 0;
  if (a.hash != b.hash) return a.hash < b.hash ? -1 : 1;
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  }
  switch (a.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return 0;
    case Kind::kAtom: {
      if (a.atom.poly != b.atom.poly) {
        return a.atom.poly < b.atom.poly ? -1 : 1;
      }
      return static_cast<int>(a.atom.op) - static_cast<int>(b.atom.op);
    }
    case Kind::kRelation: {
      int cmp = a.relation_name.compare(b.relation_name);
      if (cmp != 0) return cmp;
      if (a.relation_args != b.relation_args) {
        return a.relation_args < b.relation_args ? -1 : 1;
      }
      return 0;
    }
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr: {
      if (a.children.size() != b.children.size()) {
        return a.children.size() < b.children.size() ? -1 : 1;
      }
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        int cmp = Compare(*a.children[i].node_, *b.children[i].node_);
        if (cmp != 0) return cmp;
      }
      return 0;
    }
    case Kind::kExists:
    case Kind::kForall: {
      if (a.var != b.var) return a.var < b.var ? -1 : 1;
      return Compare(*a.children[0].node_, *b.children[0].node_);
    }
  }
  return 0;
}

/// The process-wide hash-consing arena. Holds WEAK references: a node dies
/// with its last Formula handle, so the arena bounds itself to the set of
/// reachable formulas (expired entries are compacted on bucket access).
/// Ids are assigned from a monotone counter and never reused.
struct Formula::Arena {
  static constexpr std::size_t kShards = 16;

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::size_t, std::vector<std::weak_ptr<const Node>>>
        buckets;
  };
  Shard shards[kShards];
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::size_t> total_interned{0};

  static Arena& Global() {
    static Arena* arena = new Arena();  // leaked: process lifetime
    return *arena;
  }

  std::shared_ptr<const Node> Intern(std::shared_ptr<Node> node) {
    Node::Finish(node.get());
    Shard& shard = shards[node->hash % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& bucket = shard.buckets[node->hash];
    std::shared_ptr<const Node> found;
    std::size_t live = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      std::shared_ptr<const Node> existing = bucket[i].lock();
      if (existing == nullptr) continue;  // expired: compacted away below
      if (found == nullptr && Node::Equal(*existing, *node)) found = existing;
      bucket[live++] = bucket[i];
    }
    bucket.resize(live);
    if (found != nullptr) {
      CCDB_METRIC_COUNT("formula_intern_hits", 1);
      return found;
    }
    node->id = next_id.fetch_add(1, std::memory_order_relaxed);
    total_interned.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<const Node> owned = std::move(node);
    bucket.push_back(owned);
    return owned;
  }

  FormulaArenaStats Stats() {
    FormulaArenaStats stats;
    stats.total_interned = total_interned.load(std::memory_order_relaxed);
    for (Shard& shard : shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [hash, bucket] : shard.buckets) {
        for (const auto& weak : bucket) {
          if (!weak.expired()) ++stats.live_nodes;
        }
      }
    }
    return stats;
  }
};

FormulaArenaStats Formula::ArenaStats() { return Arena::Global().Stats(); }

FormulaArenaStats GetFormulaArenaStats() { return Formula::ArenaStats(); }

Formula::Formula(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

Formula::Formula() : node_(True().node_) {}

Formula Formula::True() {
  static const Formula* singleton = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kTrue;
    return new Formula(Arena::Global().Intern(std::move(node)));
  }();
  return *singleton;
}

Formula Formula::False() {
  static const Formula* singleton = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kFalse;
    return new Formula(Arena::Global().Intern(std::move(node)));
  }();
  return *singleton;
}

Formula Formula::MakeAtom(Atom atom) {
  Atom canonical = atom.Canonical();
  if (canonical.poly.is_constant()) {
    return SignSatisfies(canonical.poly.constant_value().sign(), canonical.op)
               ? True()
               : False();
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAtom;
  node->atom = std::move(canonical);
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::Compare(const Polynomial& lhs, RelOp op,
                         const Polynomial& rhs) {
  return MakeAtom(Atom(lhs - rhs, op));
}

Formula Formula::Relation(std::string name, std::vector<int> args) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRelation;
  node->relation_name = std::move(name);
  node->relation_args = std::move(args);
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::Not(Formula f) {
  switch (f.kind()) {
    case Kind::kTrue:
      return False();
    case Kind::kFalse:
      return True();
    case Kind::kAtom:
      // Atoms absorb negation via the operator complement; the canonical
      // constructor then unifies e.g. ¬(p < 0) with p >= 0.
      return MakeAtom(f.atom().Negated());
    case Kind::kNot:
      return f.children()[0];  // ¬¬φ → φ
    default:
      break;
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->children.push_back(std::move(f));
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::And(Formula a, Formula b) {
  return And(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Formula::Or(Formula a, Formula b) {
  return Or(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Formula::And(const std::vector<Formula>& fs) {
  std::vector<Formula> kept;
  for (const Formula& f : fs) {
    if (f.kind() == Kind::kFalse) return False();
    if (f.kind() == Kind::kTrue) continue;
    if (f.kind() == Kind::kAnd) {
      kept.insert(kept.end(), f.children().begin(), f.children().end());
    } else {
      kept.push_back(f);
    }
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (kept.empty()) return True();
  if (kept.size() == 1) return kept[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->children = std::move(kept);
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::Or(const std::vector<Formula>& fs) {
  std::vector<Formula> kept;
  for (const Formula& f : fs) {
    if (f.kind() == Kind::kTrue) return True();
    if (f.kind() == Kind::kFalse) continue;
    if (f.kind() == Kind::kOr) {
      kept.insert(kept.end(), f.children().begin(), f.children().end());
    } else {
      kept.push_back(f);
    }
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (kept.empty()) return False();
  if (kept.size() == 1) return kept[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->children = std::move(kept);
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::Exists(int var, Formula body) {
  // ∃x φ ≡ φ when x is not free in φ (the domain ℝ is nonempty); also
  // covers ∃x true / ∃x false.
  if (body.FreeVars().count(var) == 0) return body;
  auto node = std::make_shared<Node>();
  node->kind = Kind::kExists;
  node->var = var;
  node->children.push_back(std::move(body));
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula Formula::Forall(int var, Formula body) {
  if (body.FreeVars().count(var) == 0) return body;
  auto node = std::make_shared<Node>();
  node->kind = Kind::kForall;
  node->var = var;
  node->children.push_back(std::move(body));
  return Formula(Arena::Global().Intern(std::move(node)));
}

Formula::Kind Formula::kind() const { return node_->kind; }

const Atom& Formula::atom() const {
  CCDB_CHECK(node_->kind == Kind::kAtom);
  return node_->atom;
}

const std::string& Formula::relation_name() const {
  CCDB_CHECK(node_->kind == Kind::kRelation);
  return node_->relation_name;
}

const std::vector<int>& Formula::relation_args() const {
  CCDB_CHECK(node_->kind == Kind::kRelation);
  return node_->relation_args;
}

const std::vector<Formula>& Formula::children() const {
  return node_->children;
}

int Formula::quantified_var() const {
  CCDB_CHECK(node_->kind == Kind::kExists || node_->kind == Kind::kForall);
  return node_->var;
}

bool Formula::is_quantifier_free() const { return node_->quantifier_free; }

bool Formula::has_relation_symbols() const { return node_->has_relations; }

bool Formula::operator==(const Formula& other) const {
  return node_ == other.node_;
}

bool Formula::operator<(const Formula& other) const {
  return Node::Compare(*node_, *other.node_) < 0;
}

std::size_t Formula::Hash() const { return node_->hash; }

std::uint64_t Formula::id() const { return node_->id; }

const std::set<int>& Formula::FreeVars() const { return node_->free_vars; }

Formula RelationToFormula(const ConstraintRelation& relation,
                          const std::vector<int>& column_vars) {
  CCDB_CHECK(static_cast<int>(column_vars.size()) == relation.arity());
  std::vector<Formula> disjuncts;
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    std::vector<Formula> conjuncts;
    for (const Atom& atom : tuple.atoms) {
      CCDB_CHECK_MSG(atom.poly.max_var() < relation.arity(),
                     "relation body mentions variable beyond its arity");
      Polynomial renamed = atom.poly.RenameVars(column_vars);
      conjuncts.push_back(Formula::MakeAtom(Atom(renamed, atom.op)));
    }
    disjuncts.push_back(Formula::And(conjuncts));
  }
  return Formula::Or(disjuncts);
}

StatusOr<Formula> Formula::InstantiateRelations(
    const std::function<StatusOr<ConstraintRelation>(const std::string&)>&
        lookup) const {
  switch (kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      return *this;
    case Kind::kRelation: {
      CCDB_ASSIGN_OR_RETURN(ConstraintRelation relation,
                            lookup(relation_name()));
      if (static_cast<int>(relation_args().size()) != relation.arity()) {
        return Status::InvalidArgument(
            "relation " + relation_name() + " used with arity " +
            std::to_string(relation_args().size()) + ", declared " +
            std::to_string(relation.arity()));
      }
      return RelationToFormula(relation, relation_args());
    }
    case Kind::kNot: {
      CCDB_ASSIGN_OR_RETURN(Formula inner,
                            children()[0].InstantiateRelations(lookup));
      return Not(std::move(inner));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<Formula> mapped;
      for (const Formula& child : children()) {
        CCDB_ASSIGN_OR_RETURN(Formula m, child.InstantiateRelations(lookup));
        mapped.push_back(std::move(m));
      }
      return kind() == Kind::kAnd ? And(mapped) : Or(mapped);
    }
    case Kind::kExists:
    case Kind::kForall: {
      CCDB_ASSIGN_OR_RETURN(Formula inner,
                            children()[0].InstantiateRelations(lookup));
      return kind() == Kind::kExists ? Exists(quantified_var(), inner)
                                     : Forall(quantified_var(), inner);
    }
  }
  return Status::Internal("unreachable formula kind");
}

Formula Formula::SubstituteValue(int var, const Rational& value) const {
  switch (kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return *this;
    case Kind::kAtom: {
      Polynomial substituted = node_->atom.poly.Substitute(var, value);
      // MakeAtom folds the constant case to true/false.
      return MakeAtom(Atom(std::move(substituted), node_->atom.op));
    }
    case Kind::kRelation:
      for (int a : relation_args()) {
        CCDB_CHECK_MSG(a != var,
                       "substitute into uninstantiated relation argument");
      }
      return *this;
    case Kind::kNot:
      return Not(children()[0].SubstituteValue(var, value));
    case Kind::kAnd:
    case Kind::kOr: {
      if (FreeVars().count(var) == 0) return *this;
      std::vector<Formula> mapped;
      for (const Formula& child : children()) {
        mapped.push_back(child.SubstituteValue(var, value));
      }
      return kind() == Kind::kAnd ? And(mapped) : Or(mapped);
    }
    case Kind::kExists:
    case Kind::kForall: {
      if (quantified_var() == var) return *this;
      Formula inner = children()[0].SubstituteValue(var, value);
      return kind() == Kind::kExists ? Exists(quantified_var(), inner)
                                     : Forall(quantified_var(), inner);
    }
  }
  CCDB_CHECK(false);
  return *this;
}

bool Formula::EvaluateAt(const std::vector<Rational>& point) const {
  switch (kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return node_->atom.SatisfiedAt(point);
    case Kind::kNot:
      return !children()[0].EvaluateAt(point);
    case Kind::kAnd:
      for (const Formula& child : children()) {
        if (!child.EvaluateAt(point)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Formula& child : children()) {
        if (child.EvaluateAt(point)) return true;
      }
      return false;
    case Kind::kRelation:
    case Kind::kExists:
    case Kind::kForall:
      CCDB_CHECK_MSG(false, "EvaluateAt requires quantifier/relation-free");
  }
  return false;
}

std::string Formula::ToString(const std::vector<std::string>& names) const {
  auto var_name = [&names](int v) {
    if (v >= 0 && v < static_cast<int>(names.size())) return names[v];
    return "x" + std::to_string(v);
  };
  switch (kind()) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return node_->atom.ToString(names);
    case Kind::kRelation: {
      std::string out = relation_name() + "(";
      for (std::size_t i = 0; i < relation_args().size(); ++i) {
        if (i > 0) out += ", ";
        out += var_name(relation_args()[i]);
      }
      return out + ")";
    }
    case Kind::kNot:
      return "not (" + children()[0].ToString(names) + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string op = kind() == Kind::kAnd ? " and " : " or ";
      std::string out = "(";
      for (std::size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += op;
        out += children()[i].ToString(names);
      }
      return out + ")";
    }
    case Kind::kExists:
    case Kind::kForall: {
      std::string q = kind() == Kind::kExists ? "exists " : "forall ";
      return q + var_name(quantified_var()) + " (" +
             children()[0].ToString(names) + ")";
    }
  }
  return "?";
}

Formula ToNnf(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
    case Formula::Kind::kAtom:
    case Formula::Kind::kRelation:
      return f;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      // An unchanged child list would re-intern to f itself: return f.
      std::vector<Formula> mapped;
      mapped.reserve(f.children().size());
      bool changed = false;
      for (const Formula& child : f.children()) {
        mapped.push_back(ToNnf(child));
        changed |= mapped.back() != child;
      }
      if (!changed) return f;
      return f.kind() == Formula::Kind::kAnd ? Formula::And(mapped)
                                             : Formula::Or(mapped);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      Formula body = ToNnf(f.children()[0]);
      if (body == f.children()[0]) return f;
      return f.kind() == Formula::Kind::kExists
                 ? Formula::Exists(f.quantified_var(), std::move(body))
                 : Formula::Forall(f.quantified_var(), std::move(body));
    }
    case Formula::Kind::kNot: {
      const Formula& inner = f.children()[0];
      switch (inner.kind()) {
        case Formula::Kind::kTrue:
          return Formula::False();
        case Formula::Kind::kFalse:
          return Formula::True();
        case Formula::Kind::kAtom:
          return Formula::MakeAtom(inner.atom().Negated());
        case Formula::Kind::kRelation:
          // Negated relation atoms survive NNF; they are eliminated by
          // instantiation before QE.
          return f;
        case Formula::Kind::kNot:
          return ToNnf(inner.children()[0]);
        case Formula::Kind::kAnd:
        case Formula::Kind::kOr: {
          std::vector<Formula> mapped;
          for (const Formula& child : inner.children()) {
            mapped.push_back(ToNnf(Formula::Not(child)));
          }
          return inner.kind() == Formula::Kind::kAnd ? Formula::Or(mapped)
                                                     : Formula::And(mapped);
        }
        case Formula::Kind::kExists:
          return Formula::Forall(
              inner.quantified_var(),
              ToNnf(Formula::Not(inner.children()[0])));
        case Formula::Kind::kForall:
          return Formula::Exists(
              inner.quantified_var(),
              ToNnf(Formula::Not(inner.children()[0])));
      }
    }
  }
  CCDB_CHECK(false);
  return f;
}

namespace {

// The renaming pass of NormalizeForQe over an NNF, relation-free formula:
// strips the quantifiers into `prefix` in pre-order and maps every bound
// variable straight to its prefix target, returning the matrix.
class PrefixStripper {
 public:
  explicit PrefixStripper(int num_free_vars) : num_free_vars_(num_free_vars) {}

  Formula Strip(const Formula& g) {
    if (g.is_quantifier_free() && !Moves(g)) return g;
    switch (g.kind()) {
      case Formula::Kind::kAtom: {
        const Polynomial& p = g.atom().poly;
        std::vector<int> mapping(static_cast<std::size_t>(p.max_var()) + 1);
        for (int v = 0; v <= p.max_var(); ++v) mapping[v] = Target(v);
        ++atoms_renamed;
        return Formula::MakeAtom(Atom(p.RenameVars(mapping), g.atom().op));
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        std::vector<Formula> mapped;
        mapped.reserve(g.children().size());
        for (const Formula& child : g.children()) {
          mapped.push_back(Strip(child));
        }
        return g.kind() == Formula::Kind::kAnd ? Formula::And(mapped)
                                               : Formula::Or(mapped);
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        const int var = g.quantified_var();
        const int target = num_free_vars_ + static_cast<int>(prefix.size());
        prefix.push_back({g.kind() == Formula::Kind::kExists, target});
        if (static_cast<std::size_t>(var) >= map_.size()) {
          const int old_size = static_cast<int>(map_.size());
          map_.resize(static_cast<std::size_t>(var) + 1);
          for (int v = old_size; v <= var; ++v) map_[v] = v;
        }
        // Scoped: an inner quantifier on the same variable shadows this
        // binding, and the outer binding comes back after its scope.
        const int outer = map_[var];
        map_[var] = target;
        Formula matrix = Strip(g.children()[0]);
        map_[var] = outer;
        return matrix;
      }
      default:
        CCDB_CHECK_MSG(false, "NormalizeForQe requires a relation-free NNF");
        return g;
    }
  }

  std::vector<PrenexBlock> prefix;
  std::uint64_t atoms_renamed = 0;

 private:
  int Target(int var) const {
    return static_cast<std::size_t>(var) < map_.size() ? map_[var] : var;
  }
  bool Moves(const Formula& g) const {
    for (int v : g.FreeVars()) {
      if (Target(v) != v) return true;
    }
    return false;
  }

  const int num_free_vars_;
  std::vector<int> map_;  // variable -> target in the current scope
};

// The disjuncts of a quantifier-free, relation-free NNF formula, unsorted.
std::vector<GeneralizedTuple> Disjuncts(const Formula& g) {
  switch (g.kind()) {
    case Formula::Kind::kTrue:
      return {GeneralizedTuple()};
    case Formula::Kind::kFalse:
      return {};
    case Formula::Kind::kAtom:
      return {GeneralizedTuple({g.atom()})};
    case Formula::Kind::kOr: {
      std::vector<GeneralizedTuple> out;
      for (const Formula& child : g.children()) {
        auto sub = Disjuncts(child);
        out.insert(out.end(), std::make_move_iterator(sub.begin()),
                   std::make_move_iterator(sub.end()));
      }
      return out;
    }
    case Formula::Kind::kAnd: {
      std::vector<GeneralizedTuple> acc{GeneralizedTuple()};
      for (const Formula& child : g.children()) {
        auto sub = Disjuncts(child);
        std::vector<GeneralizedTuple> next;
        for (const GeneralizedTuple& left : acc) {
          for (const GeneralizedTuple& right : sub) {
            GeneralizedTuple merged = left;
            merged.atoms.insert(merged.atoms.end(), right.atoms.begin(),
                                right.atoms.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
    default:
      CCDB_CHECK_MSG(false,
                     "ToDnf requires a quantifier/relation-free formula");
      return {};
  }
}

// DNF of a quantifier-free, relation-free NNF formula. Atoms of interned
// nodes are canonical and non-constant (MakeAtom folds constants), so each
// disjunct only needs its atoms sorted and deduplicated to be canonical.
std::vector<GeneralizedTuple> DnfOfNnf(const Formula& nnf) {
  std::vector<GeneralizedTuple> tuples = Disjuncts(nnf);
  // Sort each disjunct and drop syntactically duplicate ones (first
  // occurrence kept, so order stays input-derived).
  std::vector<GeneralizedTuple> kept;
  std::unordered_map<std::size_t, std::vector<std::size_t>> seen;
  for (GeneralizedTuple& tuple : tuples) {
    std::sort(tuple.atoms.begin(), tuple.atoms.end());
    tuple.atoms.erase(std::unique(tuple.atoms.begin(), tuple.atoms.end()),
                      tuple.atoms.end());
    std::size_t hash = tuple.Hash();
    bool duplicate = false;
    for (std::size_t index : seen[hash]) {
      if (kept[index] == tuple) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen[hash].push_back(kept.size());
    kept.push_back(std::move(tuple));
  }
  return kept;
}

}  // namespace

QeNormalForm NormalizeForQe(const Formula& f, int num_free_vars) {
  PrefixStripper stripper(num_free_vars);
  QeNormalForm out;
  out.matrix = stripper.Strip(ToNnf(f));
  out.prefix = std::move(stripper.prefix);
  out.tuples = DnfOfNnf(out.matrix);
  CCDB_METRIC_COUNT("qe.normalize.atoms_renamed", stripper.atoms_renamed);
  return out;
}

std::vector<GeneralizedTuple> ToDnf(const Formula& f) {
  return DnfOfNnf(ToNnf(f));
}

}  // namespace ccdb
