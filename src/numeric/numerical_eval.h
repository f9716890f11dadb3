#ifndef CCDB_NUMERIC_NUMERICAL_EVAL_H_
#define CCDB_NUMERIC_NUMERICAL_EVAL_H_

#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "constraint/atom.h"
#include "qe/algebraic_point.h"

namespace ccdb {

/// Result of the NUMERICAL EVALUATION step (paper, Section 2 step 3 and
/// Theorem 3.2): the set defined by a quantifier-free formula is either
/// recognized as finite — in which case every solution is produced as an
/// exact algebraic point, approximable to any epsilon — or reported
/// infinite (step 3 "does not come into the picture").
struct NumericalEvaluation {
  bool finite = false;
  /// The solution points (exact); present only when finite.
  std::vector<AlgebraicPoint> points;
};

/// Decides finiteness of the solution set of `relation` and extracts the
/// solutions when finite, via a CAD of the relation's polynomials: the set
/// is finite iff every satisfied cell is a section at every level
/// (dimension-0 cells). PTIME data complexity for fixed arity
/// (Theorem 3.2).
/// A non-null `gov` bounds the underlying CAD construction (stage
/// "numeric.eval") and fails with kResourceExhausted on a budget trip.
StatusOr<NumericalEvaluation> EvaluateNumerically(
    const ConstraintRelation& relation, const ResourceGovernor* gov = nullptr);

/// Convenience: epsilon-approximations of all solutions of a finite
/// solution set, in lexicographic cell order. Fails with kInvalidArgument
/// when the set is infinite.
StatusOr<std::vector<std::vector<Rational>>> ApproximateSolutions(
    const ConstraintRelation& relation, const Rational& epsilon,
    const ResourceGovernor* gov = nullptr);

/// Exact 1-D measure data of a unary relation: the satisfied cells of its
/// CAD, described as intervals between algebraic endpoints.
struct UnaryDecomposition {
  /// Closed/open makes no measure difference; a piece is either a single
  /// point or an interval with endpoints; unbounded pieces have
  /// has_lower/has_upper false.
  struct Piece {
    bool is_point = false;
    bool has_lower = true;
    bool has_upper = true;
    AlgebraicNumber lower;
    AlgebraicNumber upper;
    Piece() : lower(Rational(0)), upper(Rational(0)) {}
  };
  std::vector<Piece> pieces;
};

/// Decomposes the solution set of a unary relation into maximal-cell
/// pieces (CAD base phase).
StatusOr<UnaryDecomposition> DecomposeUnary(
    const ConstraintRelation& relation, const ResourceGovernor* gov = nullptr);

}  // namespace ccdb

#endif  // CCDB_NUMERIC_NUMERICAL_EVAL_H_
