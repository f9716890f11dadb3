#ifndef CCDB_QE_ALGEBRAIC_POINT_H_
#define CCDB_QE_ALGEBRAIC_POINT_H_

#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "poly/algebraic_number.h"
#include "poly/polynomial.h"

namespace ccdb {

/// A point in R^k whose coordinates are real algebraic numbers, with exact
/// multivariate sign evaluation. This is the sample-point machinery of the
/// CAD algorithm ("for each cell, sample points are exhibited to be able to
/// check the value of the polynomials on the sample points" — paper,
/// Appendix I).
///
/// SignAt first substitutes the rational coordinates. With one irrational
/// coordinate left it is a univariate sign (AlgebraicNumber::SignOfPolyAt).
/// With two, alpha and beta, a certain interval sign answers at once; an
/// ambiguous one is decided exactly by gcd(q(alpha, y), N(y)) over
/// Q(alpha) (NumberField), N being beta's defining polynomial, and a
/// nonzero value is then refined until its sign is certain. Only points
/// with three or more irrational coordinates fall back to ValueAt:
/// q(alpha_1,...,alpha_k) as a real algebraic number, obtained by
/// eliminating each coordinate's defining polynomial from z - q via
/// iterated resultants and identified among the candidate roots by
/// interval refinement.
class AlgebraicPoint {
 public:
  AlgebraicPoint() = default;

  int dimension() const { return static_cast<int>(coords_.size()); }
  const std::vector<AlgebraicNumber>& coords() const { return coords_; }
  const AlgebraicNumber& coord(int i) const { return coords_[i]; }

  /// Extends the point with one more coordinate (variable index
  /// dimension()).
  void Append(AlgebraicNumber value) { coords_.push_back(std::move(value)); }
  /// A copy extended by one coordinate.
  AlgebraicPoint Extended(AlgebraicNumber value) const;

  /// True iff every coordinate is (represented as) rational.
  bool AllRational() const;
  /// The rational coordinates; requires AllRational().
  std::vector<Rational> RationalCoords() const;

  /// Exact sign of p at this point. p may mention variables 0..dim-1 only.
  int SignAt(const Polynomial& p) const;

  /// Exact value of p at this point as an algebraic number.
  AlgebraicNumber ValueAt(const Polynomial& p) const;

  /// The distinct real roots of y -> p(point, y) in increasing order, where
  /// y is the variable with index dimension(). Each root is returned as an
  /// algebraic number over Q (via the iterated-resultant candidate set).
  /// Fails with kNumericalFailure in the degenerate case where the
  /// candidate resultant vanishes identically, and with kInvalidArgument
  /// when p vanishes identically over the stack. A non-null `gov` is
  /// charged during root isolation and candidate filtering and turns
  /// budget trips into kResourceExhausted.
  StatusOr<std::vector<AlgebraicNumber>> StackRoots(
      const Polynomial& p, const ResourceGovernor* gov = nullptr) const;

  /// Rational approximations of all coordinates within epsilon.
  std::vector<Rational> Approximate(const Rational& epsilon) const;

  std::string ToString() const;

 private:
  // Eliminates all non-rational coordinates from q (rational coordinates
  // are substituted exactly). Variable `extra_var`, if >= 0, is kept.
  // Returns a polynomial mentioning only extra_var (or a constant). The
  // iterated resultants charge `gov` when non-null.
  StatusOr<Polynomial> EliminateCoords(Polynomial q, int extra_var,
                                       const ResourceGovernor* gov) const;

  std::vector<AlgebraicNumber> coords_;
};

}  // namespace ccdb

#endif  // CCDB_QE_ALGEBRAIC_POINT_H_
