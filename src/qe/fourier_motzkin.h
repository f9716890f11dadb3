#ifndef CCDB_QE_FOURIER_MOTZKIN_H_
#define CCDB_QE_FOURIER_MOTZKIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "constraint/atom.h"

namespace ccdb {

/// True iff every atom of every tuple is linear (total degree <= 1).
bool IsLinearSystem(const std::vector<GeneralizedTuple>& tuples);

/// Eliminates "exists x_var" from a union of generalized tuples with LINEAR
/// atoms by Fourier-Motzkin elimination (existential quantification
/// distributes over the union). Equations are used for exact substitution;
/// disequalities split into strict inequalities. Returns the resulting
/// union (may be larger). Fails with kInvalidArgument on nonlinear atoms.
///
/// This is the quantifier-elimination procedure for the linear fragment
/// FO(<=, +, 0, 1) of Theorem 4.2; its intermediate coefficient bit lengths
/// grow only linearly in the input bit length (Lemma 4.4 for the linear
/// case), which bench E6 measures.
/// A non-null `gov` is charged once per eliminated tuple and per generated
/// cross constraint (stage "qe.fm"); on a budget trip the round fails with
/// kResourceExhausted.
///
/// Disjuncts are eliminated independently across `pool` (null = the
/// calling thread) and merged in input order, so the output is identical
/// at every thread count.
StatusOr<std::vector<GeneralizedTuple>> EliminateExistsLinear(
    const std::vector<GeneralizedTuple>& tuples, int var,
    const ResourceGovernor* gov = nullptr, ThreadPool* pool = nullptr);

/// Removes syntactically redundant atoms and trivially false tuples.
std::vector<GeneralizedTuple> SimplifyTuples(
    std::vector<GeneralizedTuple> tuples);

/// Exact emptiness of a conjunction of LINEAR atoms: Fourier-Motzkin
/// eliminates every variable it mentions, highest index first, and the
/// tuple is empty iff nothing survives. `gov` and `pool` are passed to
/// each EliminateExistsLinear round.
StatusOr<bool> LinearTupleEmpty(const GeneralizedTuple& tuple,
                                const ResourceGovernor* gov = nullptr,
                                ThreadPool* pool = nullptr);

/// Where one atom stands against a LinearBounds view of a tuple t.
enum class BoundVerdict {
  kEntailed,  // t implies the atom
  kDisjoint,  // t and the atom have no common point
  kUnknown,   // the bounds of the atom's direction cannot tell
};

/// Per-direction bounds of one tuple, keyed geas-style. A linear atom
/// p op 0 is read as `d op' b`: d is the primitive integer form of p's
/// non-constant part with positive leading coefficient, interned, so atoms
/// on parallel hyperplanes (`2x - 1 <= 0`, `x - 7 <= 0`) share one d and
/// compare by pointer; b = -c/s is exact for p = s*d + c, and op' is op
/// mirrored when s < 0. Per direction the view keeps the tightest lower
/// and upper bound with their strictness, and the values `!=` excludes.
/// Nonlinear atoms of the tuple contribute nothing. Every bound is implied
/// by the tuple, so every verdict is exact.
class LinearBounds {
 public:
  explicit LinearBounds(const GeneralizedTuple& tuple);

  /// True when the bounds of one direction contradict each other (or a
  /// constant atom is false), so the tuple is empty. False says nothing.
  bool contradictory() const { return contradictory_; }

  /// Entailment of `atom` by the tuple from the bounds of the atom's
  /// direction alone; kUnknown for a nonlinear atom or a direction the
  /// tuple does not bound.
  BoundVerdict Decide(const Atom& atom) const;

  /// The tuple the bounds describe: per direction the tightest lower and
  /// upper bound (one equation when they pin a value) and the `!=` atoms
  /// the interval does not already imply; the false atom `1 = 0` when the
  /// bounds contradict. Equivalent to the source tuple when that was
  /// linear, with every redundant parallel bound dropped.
  GeneralizedTuple Tightest() const;

 private:
  struct Side {
    bool present = false;
    Rational value;
    bool strict = false;
  };
  // The bounds on one direction d.
  struct Range {
    Polynomial direction;
    Side lower;
    Side upper;
    std::vector<Rational> excluded;

    // Every point of the range has d < v (`strict`) or d <= v.
    bool Below(const Rational& v, bool strict) const;
    // Every point of the range has d > v (`strict`) or d >= v.
    bool Above(const Rational& v, bool strict) const;
    // The range is {v} or empty.
    bool Pinned(const Rational& v) const {
      return Below(v, false) && Above(v, false);
    }
    // No point of the range has d = v.
    bool Excludes(const Rational& v) const;
  };

  const Range* Find(const Polynomial& direction) const;

  std::vector<Range> ranges_;
  bool contradictory_ = false;
};

/// Exact containment of one linear tuple t in other linear tuples u:
/// t ⊆ u iff t is empty or t implies every atom of u. An atom the bounds
/// of t entail needs no work; an atom disjoint from t settles the pair as
/// "t is empty", decided once per t by LinearTupleEmpty; an atom `a` the
/// bounds leave open is decided by the emptiness of t ∧ ¬a (`¬(p = 0)`
/// splits into two strict tuples). No verdict comes from a heuristic, so
/// the answer equals ¬∃x̄ (t ∧ ¬u) decided by the QE driver.
class LinearContainment {
 public:
  explicit LinearContainment(const GeneralizedTuple& t,
                             const ResourceGovernor* gov = nullptr,
                             ThreadPool* pool = nullptr);

  /// t ⊆ u. Every atom of `u` must be linear.
  StatusOr<bool> In(const GeneralizedTuple& u);

  /// Calls of In whose verdict needed an elimination of t ∧ ¬a.
  std::uint64_t eliminations() const { return eliminations_; }

 private:
  StatusOr<bool> Empty();
  // Emptiness of t ∧ `extra` (none when null), on t's tightest form.
  StatusOr<bool> EmptyWith(const Atom* extra);

  LinearBounds bounds_;
  std::optional<GeneralizedTuple> tightest_;  // built on first elimination
  const ResourceGovernor* gov_;
  ThreadPool* pool_;
  std::optional<bool> empty_;
  std::uint64_t eliminations_ = 0;
};

}  // namespace ccdb

#endif  // CCDB_QE_FOURIER_MOTZKIN_H_
