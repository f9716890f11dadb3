#ifndef CCDB_POLY_ALGEBRAIC_NUMBER_H_
#define CCDB_POLY_ALGEBRAIC_NUMBER_H_

#include <string>
#include <vector>

#include "arith/interval.h"
#include "arith/rational.h"
#include "poly/root_isolation.h"
#include "poly/upoly.h"

namespace ccdb {

/// A real algebraic number, represented the way the paper's Appendix I
/// describes CAD sample points: "an algebraic number is defined by its
/// minimal polynomial p and an isolating interval for the particular root
/// of p". We relax "minimal" to "squarefree" (a squarefree polynomial with
/// exactly one root in the isolating interval), which every exact operation
/// below tolerates.
///
/// Mutable only through refinement, which shrinks the isolating interval
/// while always containing the same real number.
class AlgebraicNumber {
 public:
  /// The rational number r (defining polynomial x - r, point interval).
  explicit AlgebraicNumber(Rational value);
  /// A root of `defining` (made squarefree internally) isolated by
  /// `root`, as produced by IsolateRealRoots(defining).
  AlgebraicNumber(const UPoly& defining, IsolatedRoot root);

  /// All real roots of p, in increasing order, as algebraic numbers. The
  /// squarefree part of p is taken once here; isolation and every
  /// resulting number share it.
  static std::vector<AlgebraicNumber> RootsOf(const UPoly& p);

  /// Governed variant: root isolation charges `gov` and fails with
  /// kResourceExhausted on budget trip. Null governor never fails.
  static StatusOr<std::vector<AlgebraicNumber>> RootsOf(
      const UPoly& p, const ResourceGovernor* gov);

  /// True iff the number is (known) rational. Numbers constructed from
  /// irrational roots stay non-exact even when the underlying value happens
  /// to be rational but undetected; exactness is a representation property.
  bool is_rational() const { return root_.is_exact; }
  /// The exact rational value; requires is_rational().
  const Rational& rational_value() const;

  /// Squarefree defining polynomial.
  const UPoly& defining_polynomial() const { return poly_; }
  /// Current isolating interval (always contains the number).
  const Interval& isolating_interval() const { return root_.interval; }

  /// Shrinks the isolating interval to at most `width`.
  void RefineTo(const Rational& width) const;

  /// Sign of this number: refined until certain.
  int Sign() const;

  /// Exact sign of q evaluated at this number. A certain interval sign at
  /// the current isolating interval answers at once; otherwise q(alpha) == 0
  /// is decided exactly via gcd with the defining polynomial, and a nonzero
  /// sign by refining until the interval sign is certain.
  int SignOfPolyAt(const UPoly& q) const;

  /// Exact three-way comparison with another algebraic number.
  int Compare(const AlgebraicNumber& other) const;
  /// Exact three-way comparison with a rational.
  int CompareRational(const Rational& value) const;

  bool operator==(const AlgebraicNumber& other) const {
    return Compare(other) == 0;
  }
  bool operator<(const AlgebraicNumber& other) const {
    return Compare(other) < 0;
  }

  /// Rational approximation within `epsilon` of the true value.
  Rational Approximate(const Rational& epsilon) const;
  double ToDouble() const;

  std::string ToString() const;

 private:
  struct TrustSquarefree {};
  // `squarefree` is already squarefree (RootsOf holds the squarefree part).
  AlgebraicNumber(UPoly squarefree, IsolatedRoot root, TrustSquarefree);

  UPoly poly_;               // squarefree, nonzero at non-exact endpoints
  mutable IsolatedRoot root_;  // refined lazily by const operations
};

}  // namespace ccdb

#endif  // CCDB_POLY_ALGEBRAIC_NUMBER_H_
