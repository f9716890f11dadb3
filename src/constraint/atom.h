#ifndef CCDB_CONSTRAINT_ATOM_H_
#define CCDB_CONSTRAINT_ATOM_H_

#include <string>
#include <vector>

#include "arith/rational.h"
#include "poly/polynomial.h"

namespace ccdb {

/// Comparison operator of an atomic constraint "p(x) op 0".
enum class RelOp {
  kEq,   // = 0
  kNeq,  // != 0
  kLt,   // < 0
  kLe,   // <= 0
  kGt,   // > 0
  kGe,   // >= 0
};

/// The logical negation of an operator.
RelOp NegateOp(RelOp op);
/// The operator satisfied by -p whenever p satisfies `op` (mirror across
/// zero): < and > swap, <= and >= swap, = and != are fixed.
RelOp FlipOp(RelOp op);
/// True iff `sign` (of a polynomial value, in {-1,0,1}) satisfies `op`.
bool SignSatisfies(int sign, RelOp op);
/// "=", "!=", "<", "<=", ">", ">=".
const char* RelOpToString(RelOp op);

/// Atomic polynomial constraint over the reals: poly(x) op 0 (paper,
/// Section 3: atomic formulas of the language of the real closed field).
struct Atom {
  Polynomial poly;
  RelOp op = RelOp::kEq;

  Atom() = default;
  Atom(Polynomial p, RelOp o) : poly(std::move(p)), op(o) {}

  /// The negated atom (same polynomial, complemented operator).
  Atom Negated() const { return Atom(poly, NegateOp(op)); }

  /// The canonical representative of this atom's equivalence class: the
  /// polynomial is gcd-reduced to its primitive integer form with positive
  /// leading coefficient (flipping the operator when the sign flipped, so
  /// "-x < 0" and "x > 0" — and hence ¬(p < 0) and p >= 0 — canonicalize
  /// identically) and interned in the polynomial pool. Idempotent.
  Atom Canonical() const;

  /// Truth at a rational point (must cover the polynomial's variables).
  bool SatisfiedAt(const std::vector<Rational>& point) const {
    return SignSatisfies(poly.Evaluate(point).sign(), op);
  }

  bool operator==(const Atom& other) const {
    return op == other.op && poly == other.poly;
  }
  bool operator!=(const Atom& other) const { return !(*this == other); }
  /// Deterministic structural order (polynomial order, then operator).
  bool operator<(const Atom& other) const;

  std::size_t Hash() const {
    return poly.Hash() * 1099511628211ull + static_cast<std::size_t>(op);
  }

  std::string ToString(const std::vector<std::string>& names = {}) const;
};

/// A generalized tuple (paper, Section 3): a conjunction of atomic
/// constraints over k variables, denoting a (possibly infinite) subset of
/// R^k. An empty conjunction denotes all of R^k.
struct GeneralizedTuple {
  std::vector<Atom> atoms;

  GeneralizedTuple() = default;
  explicit GeneralizedTuple(std::vector<Atom> a) : atoms(std::move(a)) {}

  bool SatisfiedAt(const std::vector<Rational>& point) const {
    for (const Atom& atom : atoms) {
      if (!atom.SatisfiedAt(point)) return false;
    }
    return true;
  }

  /// Syntactic check for a tuple that is identically false because it
  /// contains a constant atom violating its operator. (Full emptiness
  /// checking is the QE engine's job.)
  bool TriviallyFalse() const;
  /// Removes constant atoms that hold identically; returns false when the
  /// tuple became trivially false instead.
  bool SimplifyConstants();

  /// Full canonicalization: canonicalizes every atom (Atom::Canonical),
  /// folds constant atoms as SimplifyConstants does, then sorts and
  /// deduplicates the conjunction. Returns false when the tuple is
  /// trivially false. Idempotent; equal conjunctions (up to atom order,
  /// scaling, and sign) canonicalize to equal tuples.
  bool Canonicalize();

  /// Order-sensitive structural hash (canonicalize first to get an
  /// order-insensitive one).
  std::size_t Hash() const;

  bool operator==(const GeneralizedTuple& other) const {
    return atoms == other.atoms;
  }
  /// Deterministic structural order (lexicographic over atoms). Sorting a
  /// union of canonicalized disjuncts with this order makes the union's
  /// rendering independent of derivation order (and so of the thread
  /// count).
  bool operator<(const GeneralizedTuple& other) const;

  std::string ToString(const std::vector<std::string>& names = {}) const;
};

/// A finitely representable relation (paper, Section 3): a finite set of
/// generalized tuples over a fixed arity, denoting their union. Variables
/// 0..arity-1 are the relation's columns.
class ConstraintRelation {
 public:
  ConstraintRelation() = default;
  explicit ConstraintRelation(int arity) : arity_(arity) {}
  ConstraintRelation(int arity, std::vector<GeneralizedTuple> tuples)
      : arity_(arity), tuples_(std::move(tuples)) {}

  int arity() const { return arity_; }
  const std::vector<GeneralizedTuple>& tuples() const { return tuples_; }
  std::vector<GeneralizedTuple>* mutable_tuples() { return &tuples_; }

  /// Syntactically empty (no tuples). An empty relation denotes the empty
  /// set; a relation may denote the empty set without being syntactically
  /// empty.
  bool is_empty_syntactically() const { return tuples_.empty(); }

  void AddTuple(GeneralizedTuple tuple) { tuples_.push_back(std::move(tuple)); }

  /// Membership test for a rational point of length arity().
  bool Contains(const std::vector<Rational>& point) const;

  /// Every polynomial mentioned, deduplicated.
  std::vector<Polynomial> CollectPolynomials() const;

  /// Largest coefficient bit length over all atoms (the paper's input-size
  /// measure for Theorems 4.1-4.3).
  std::uint64_t MaxCoefficientBitLength() const;
  /// Number of distinct polynomials (the "m" of the class K_{d,m}).
  std::size_t DistinctPolynomialCount() const;
  /// Max degree of any polynomial (the "d" of the class K_{d,m}).
  std::uint32_t MaxDegree() const;

  std::string ToString(const std::vector<std::string>& names = {}) const;

 private:
  int arity_ = 0;
  std::vector<GeneralizedTuple> tuples_;
};

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_ATOM_H_
