#ifndef CCDB_CONSTRAINT_FORMULA_H_
#define CCDB_CONSTRAINT_FORMULA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "constraint/atom.h"

namespace ccdb {

class RelationBody;
/// Where instantiation finds a relation's stored body by name.
using RelationLookup =
    std::function<StatusOr<RelationBody>(const std::string&)>;

/// First-order formula over the real closed field extended with database
/// relation symbols (the language L ∪ σ of the paper, Section 3).
///
/// Variables are global integer indices; the caller (query layer) owns the
/// mapping from names to indices.
///
/// Formulas are immutable, HASH-CONSED values: every constructor
/// canonicalizes its node (atoms gcd-reduced and sign-normalized;
/// AND/OR children flattened, structurally sorted, and deduplicated;
/// ¬¬φ → φ; constants folded; vacuous quantifiers elided — sound over the
/// nonempty domain ℝ) and interns it in a process-wide thread-safe arena,
/// so structurally equal formulas share one node and operator== is a
/// single pointer comparison. Each interned node carries a unique id()
/// (stable for the node's lifetime) that the QE/memo caches use as a key,
/// and caches of derived values: free variables, quantifier-freeness,
/// relation-symbol presence, and a structural hash — all O(1) to read.
///
/// The child order of AND/OR is the deterministic STRUCTURAL order (hash,
/// then full structural comparison), never intern or pointer order, so a
/// formula prints and evaluates byte-identically at every thread count.
class Formula {
 public:
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,      // polynomial constraint
    kRelation,  // database relation symbol applied to variables
    kNot,
    kAnd,
    kOr,
    kExists,
    kForall,
  };

  /// Constructs the formula "true".
  Formula();

  static Formula True();
  static Formula False();
  static Formula MakeAtom(Atom atom);
  /// Convenience: lhs op rhs as the atom (lhs - rhs) op 0.
  static Formula Compare(const Polynomial& lhs, RelOp op,
                         const Polynomial& rhs);
  /// R(args...): the named relation applied to variable indices.
  static Formula Relation(std::string name, std::vector<int> args);
  static Formula Not(Formula f);
  static Formula And(Formula a, Formula b);
  static Formula Or(Formula a, Formula b);
  static Formula And(const std::vector<Formula>& fs);
  static Formula Or(const std::vector<Formula>& fs);
  static Formula Exists(int var, Formula body);
  static Formula Forall(int var, Formula body);

  Kind kind() const;
  /// Atom payload; requires kind() == kAtom.
  const struct Atom& atom() const;
  /// Relation payload; requires kind() == kRelation.
  const std::string& relation_name() const;
  const std::vector<int>& relation_args() const;
  /// Child formulas (1 for kNot/kExists/kForall, 2+ for kAnd/kOr).
  const std::vector<Formula>& children() const;
  /// Bound variable; requires a quantifier kind.
  int quantified_var() const;

  bool is_quantifier_free() const;
  bool has_relation_symbols() const;

  /// Free variable indices (cached at construction; O(1)).
  const std::set<int>& FreeVars() const;

  /// Structural equality — a pointer comparison, because construction
  /// hash-conses: equal formulas share one interned node.
  bool operator==(const Formula& other) const;
  bool operator!=(const Formula& other) const { return !(*this == other); }
  /// Deterministic structural total order (used to sort AND/OR children).
  bool operator<(const Formula& other) const;

  /// Structural hash, cached at construction.
  std::size_t Hash() const;
  /// Unique id of the interned node, assigned at intern time. Stable while
  /// any handle to the node lives; ids are never reused, so (id, id) pairs
  /// are sound memo-cache keys. NOT deterministic across runs or thread
  /// counts — never let an id influence output.
  std::uint64_t id() const;

  /// Replaces every occurrence of relation symbols by their definitions:
  /// the INSTANTIATION step of query evaluation (paper, Section 2).
  /// `lookup(name)` returns the relation's stored body (columns are
  /// variables 0..arity-1); each occurrence becomes
  /// RelationBody::Instantiate of its argument variables. A subformula
  /// without relation symbols is returned as is.
  StatusOr<Formula> InstantiateRelations(const RelationLookup& lookup) const;

  /// Substitutes a rational value for a free variable (into atoms).
  Formula SubstituteValue(int var, const Rational& value) const;

  /// Truth of a quantifier-free, relation-free formula at a point.
  bool EvaluateAt(const std::vector<Rational>& point) const;

  std::string ToString(const std::vector<std::string>& names = {}) const;

  /// Occupancy of the process-wide formula arena (see FormulaArenaStats).
  static struct FormulaArenaStats ArenaStats();

 private:
  struct Node;
  struct Arena;
  explicit Formula(std::shared_ptr<const Node> node);
  std::shared_ptr<const Node> node_;
};

/// Occupancy of the hash-consing arena, for REPL `.stats` and bench
/// node-count columns. The arena holds weak references: nodes die with
/// their last handle, so `live_nodes` tracks reachable formulas while
/// `total_interned` counts every distinct node ever interned.
struct FormulaArenaStats {
  std::size_t live_nodes = 0;
  std::size_t total_interned = 0;
};
FormulaArenaStats GetFormulaArenaStats();

/// Negation-normal form: negations pushed to atoms (atoms absorb them via
/// operator complement), quantifiers dualized. A subtree already in NNF is
/// returned as the same interned node, so ToNnf of an NNF formula costs one
/// walk and no interning.
Formula ToNnf(const Formula& f);

/// One quantifier of a prenex prefix.
struct PrenexBlock {
  bool is_exists;
  int var;
};

/// The input of quantifier elimination: a relation-free formula in prenex
/// form with its quantified variables compacted and its matrix in DNF.
struct QeNormalForm {
  /// Quantifier prefix, outermost first; block i binds num_free_vars + i.
  std::vector<PrenexBlock> prefix;
  /// The quantifier-free matrix over variables 0..num_free_vars+|prefix|-1.
  Formula matrix;
  /// ToDnf(matrix).
  std::vector<GeneralizedTuple> tuples;
};

/// The one normalization prologue of quantifier elimination (PlanQuery
/// runs it once per elimination). `f` must be relation-free with free
/// variables among 0..num_free_vars-1. In one scoped pre-order pass over
/// ToNnf(f) it numbers the k-th quantifier met num_free_vars + k and maps
/// its variable straight to that index; a quantifier-free subtree none of
/// whose free variables moves is kept as is, never re-interned. Sibling
/// quantifier scopes are numbered in the structural child order of the NNF
/// input. Adds the number of atoms it re-interned to the metric
/// qe.normalize.atoms_renamed.
QeNormalForm NormalizeForQe(const Formula& f, int num_free_vars);

/// Disjunctive normal form of a quantifier-free, relation-free formula, as
/// a list of generalized tuples, each with its atoms sorted and
/// deduplicated, and with syntactically duplicate disjuncts dropped (first
/// occurrence kept). Interned atoms are canonical and non-constant, so the
/// tuples come out canonical (GeneralizedTuple::Canonicalize would not
/// change them) and no disjunct is trivially false.
std::vector<GeneralizedTuple> ToDnf(const Formula& f);

/// The disjunction of the tuples, each the conjunction of its atoms, over
/// the tuples' own variables. A single tuple yields its conjunction and a
/// single atom the atom itself (And/Or of one child is that child).
Formula TuplesToFormula(std::span<const GeneralizedTuple> tuples);

/// Builds the formula of a constraint relation body (the disjunction of its
/// generalized tuples), with relation columns already mapped to the given
/// variable indices. Adds the atoms it interns to query.instantiate_atoms.
/// In the engine only RelationBody calls it, to build a version's body.
Formula RelationToFormula(const ConstraintRelation& relation,
                          const std::vector<int>& column_vars);

/// One relation version as instantiation reads it: the relation and its
/// body, the interned Or of its tuples' Ands over columns 0..arity-1.
/// The body is built once, by RelationToFormula, on the first Body() or
/// identity Instantiate(). Another column map is built by
/// RelationToFormula(relation(), args) too, and the last one is memoized.
/// catalog.relation_formula_builds counts the builds.
///
/// A cheap handle: copies share the relation, the body and the memo, so
/// every reader of one version builds it once. Safe to use from any
/// number of threads.
class RelationBody {
 public:
  explicit RelationBody(ConstraintRelation relation);

  int arity() const;
  const ConstraintRelation& relation() const;
  /// The body over columns 0..arity-1.
  const Formula& Body() const;
  /// The body with column v renamed to args[v]; args.size() == arity().
  Formula Instantiate(const std::vector<int>& args) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_FORMULA_H_
