#ifndef CCDB_CONSTRAINT_FORMULA_H_
#define CCDB_CONSTRAINT_FORMULA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/resource.h"
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
  /// RelationBody::Instantiate of its argument variables, filtered by the
  /// single-variable bounds its sibling conjuncts imply: a linear atom in
  /// one variable (a constant argument's binding c - 7 = 0 included), and
  /// a sibling that instantiated to a conjunction, counting only the
  /// atoms outside its own ∃ variables. Since A ∧ (t₁ ∨ … ∨ tₙ) is
  /// equivalent to A ∧ (the tᵢ whose box meets A), the rewrite is sound
  /// under ¬ and ∀ as well. A subformula without relation symbols is
  /// returned as is.
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
/// qe.normalize.atoms_renamed. The matrix's DNF charges a non-null `gov`
/// as ToDnf does.
StatusOr<QeNormalForm> NormalizeForQe(const Formula& f, int num_free_vars,
                                      const ResourceGovernor* gov = nullptr);

/// Disjunctive normal form of a quantifier-free, relation-free formula, as
/// a list of generalized tuples, each with its atoms sorted and
/// deduplicated, and with syntactically duplicate disjuncts dropped (first
/// occurrence kept). Interned atoms are canonical and non-constant, so the
/// tuples come out canonical (GeneralizedTuple::Canonicalize would not
/// change them) and no disjunct is trivially false. Each disjunct a
/// conjunction's product builds charges a non-null `gov` one step at stage
/// "formula.dnf" plus its atoms' bytes, so the product's blow-up (the
/// negation of a union of m tuples has the product of their sizes as
/// disjuncts) trips the governor instead of running unbounded; with a null
/// `gov` it cannot fail.
StatusOr<std::vector<GeneralizedTuple>> ToDnf(
    const Formula& f, const ResourceGovernor* gov = nullptr);

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

/// Closed bounds on one variable; a missing end is unbounded.
struct VarBounds {
  std::optional<Rational> lower;
  std::optional<Rational> upper;

  bool bounded() const { return lower.has_value() || upper.has_value(); }
  void TightenLower(const Rational& value);
  void TightenUpper(const Rational& value);
  /// Both ends of `other` tightened into this one.
  void Intersect(const VarBounds& other);
  /// True iff the two closed ranges share a point.
  bool Meets(const VarBounds& other) const;
};

/// Per-tuple bounding box: a closed over-approximation of the tuple's
/// point set, one VarBounds per column, missing ends unbounded. Built from
/// the tuple's single-variable linear atoms, then tightened by one
/// interval-propagation pass over its multi-variable linear atoms, so the
/// box of a rectangle, or of a triangle cut from one by a diagonal, is its
/// vertex hull. Nonlinear and != atoms are skipped, and strict bounds are
/// taken as closed, so every point that satisfies the tuple lies in its
/// box. The selection index of RelationBody — the constraint-database
/// analogue of the spatial indexing the paper cites ([KRVV93]).
struct TupleBox {
  std::vector<VarBounds> columns;

  /// Derives the box of one generalized tuple of the given arity.
  static TupleBox Of(const GeneralizedTuple& tuple, int arity);
  /// False when the point provably does not satisfy the tuple.
  bool MayContain(const std::vector<Rational>& point) const;
  /// False when no point within `query` (one entry per column) can
  /// satisfy the tuple.
  bool Meets(std::span<const VarBounds> query) const;
};

/// One relation version as instantiation reads it: the relation, its
/// tuples' boxes, and its body, the interned Or of its tuples' Ands over
/// columns 0..arity-1. The body is built once, by RelationToFormula, on
/// the first Body() or unfiltered identity Instantiate(). Another column
/// map is built by RelationToFormula(relation(), args) too, and the last
/// one is memoized. catalog.relation_formula_builds counts the builds.
///
/// A cheap handle: copies share the relation, the boxes, the body and the
/// memo, so every reader of one version builds each once. Safe to use from
/// any number of threads.
class RelationBody {
 public:
  explicit RelationBody(ConstraintRelation relation);
  /// With the tuples' boxes already built (boxes[i] of tuple i).
  RelationBody(ConstraintRelation relation, std::vector<TupleBox> boxes);

  int arity() const;
  const ConstraintRelation& relation() const;
  /// One box per tuple, in tuple order; built on the first call when the
  /// body was made without them.
  const std::vector<TupleBox>& Boxes() const;
  /// The body over columns 0..arity-1.
  const Formula& Body() const;
  /// The body with column v renamed to args[v]; args.size() == arity().
  /// With `column_bounds` (one entry per column, or empty), only the tuples
  /// whose box meets them: the Or of those tuples, built per call, or the
  /// memoized body when no column is bounded or every tuple is kept. So
  /// the result equals the body wherever every column v lies within
  /// column_bounds[v]. Adds to query.instantiate.tuples_kept the tuples
  /// instantiated and to query.instantiate.tuples_pruned those dropped.
  Formula Instantiate(const std::vector<int>& args,
                      std::span<const VarBounds> column_bounds = {}) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_FORMULA_H_
