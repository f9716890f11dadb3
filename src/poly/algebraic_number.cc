#include "poly/algebraic_number.h"

#include "base/logging.h"

namespace ccdb {

AlgebraicNumber::AlgebraicNumber(Rational value)
    : poly_(UPoly({-value, Rational(1)})), root_{Interval(value), true} {}

AlgebraicNumber::AlgebraicNumber(const UPoly& defining, IsolatedRoot root)
    : AlgebraicNumber(defining.SquarefreePart(), std::move(root),
                      TrustSquarefree{}) {}

AlgebraicNumber::AlgebraicNumber(UPoly squarefree, IsolatedRoot root,
                                 TrustSquarefree)
    : poly_(std::move(squarefree)), root_(std::move(root)) {
  CCDB_CHECK_MSG(poly_.degree() >= 1, "defining polynomial must be nonconstant");
  if (root_.is_exact) {
    CCDB_CHECK_MSG(poly_.SignAt(root_.interval.lo()) == 0,
                   "exact root does not satisfy defining polynomial");
  } else {
    CCDB_CHECK_MSG(poly_.SignAt(root_.interval.lo()) *
                           poly_.SignAt(root_.interval.hi()) <
                       0,
                   "isolating interval endpoints must straddle a sign change");
  }
}

std::vector<AlgebraicNumber> AlgebraicNumber::RootsOf(const UPoly& p) {
  auto numbers = RootsOf(p, nullptr);
  CCDB_CHECK(numbers.ok());  // a null governor never trips
  return *std::move(numbers);
}

StatusOr<std::vector<AlgebraicNumber>> AlgebraicNumber::RootsOf(
    const UPoly& p, const ResourceGovernor* gov) {
  std::vector<AlgebraicNumber> numbers;
  UPoly f = p.SquarefreePart();
  CCDB_ASSIGN_OR_RETURN(std::vector<IsolatedRoot> isolated,
                        IsolateSquarefreeRoots(f, gov));
  for (IsolatedRoot& root : isolated) {
    if (root.is_exact) {
      numbers.emplace_back(root.interval.lo());
    } else {
      numbers.push_back(AlgebraicNumber(f, std::move(root), TrustSquarefree{}));
    }
  }
  return numbers;
}

const Rational& AlgebraicNumber::rational_value() const {
  CCDB_CHECK(root_.is_exact);
  return root_.interval.lo();
}

void AlgebraicNumber::RefineTo(const Rational& width) const {
  root_ = RefineRoot(poly_, std::move(root_), width);
}

int AlgebraicNumber::Sign() const {
  if (root_.is_exact) return root_.interval.lo().sign();
  return SignOfPolyAt(UPoly::X());
}

int AlgebraicNumber::SignOfPolyAt(const UPoly& q) const {
  if (q.is_zero()) return 0;
  if (root_.is_exact) return q.SignAt(root_.interval.lo());
  // A certain enclosure sign already proves q(alpha) != 0; only an
  // ambiguous one needs the exact zero test.
  int sign = q.EvaluateInterval(root_.interval).CertainSign();
  if (sign != Interval::kAmbiguousSign) return sign;
  // q(alpha) == 0 iff alpha is a common root of q and the defining
  // polynomial, iff gcd(q, poly_) has a root in the isolating interval.
  UPoly g = UPoly::Gcd(q, poly_);
  if (g.degree() >= 1) {
    std::vector<UPoly> chain = g.SturmChain();
    const Interval& iv = root_.interval;
    // The interval is open with poly_ (hence g) nonzero at endpoints; the
    // half-open Sturm count equals the open count.
    if (UPoly::SturmCountRoots(chain, iv.lo(), iv.hi()) > 0) return 0;
  }
  // Nonzero: refine until the interval enclosure of q has a certain sign.
  while (true) {
    Rational half_width =
        root_.interval.Width() * Rational(BigInt(1), BigInt(2));
    root_ = RefineRoot(poly_, std::move(root_), half_width);
    if (root_.is_exact) return q.SignAt(root_.interval.lo());
    sign = q.EvaluateInterval(root_.interval).CertainSign();
    if (sign != Interval::kAmbiguousSign) return sign;
  }
}

int AlgebraicNumber::Compare(const AlgebraicNumber& other) const {
  if (root_.is_exact && other.root_.is_exact) {
    return root_.interval.lo().Compare(other.root_.interval.lo());
  }
  if (other.root_.is_exact) return CompareRational(other.root_.interval.lo());
  if (root_.is_exact) return -other.CompareRational(root_.interval.lo());
  // Equality test via the shared factor.
  UPoly g = UPoly::Gcd(poly_, other.poly_);
  if (g.degree() >= 1 && root_.interval.Intersects(other.root_.interval)) {
    Rational lo = std::max(root_.interval.lo(), other.root_.interval.lo());
    Rational hi = std::min(root_.interval.hi(), other.root_.interval.hi());
    if (lo <= hi) {
      std::vector<UPoly> chain = g.SturmChain();
      // Count roots of g in [lo, hi]; endpoints of either isolating
      // interval are not roots of the respective polynomial, but may be
      // roots of g only if they are the other number — handle by closing
      // the interval with the half-open count from a nudged left end.
      int count = UPoly::SturmCountRoots(chain, lo, hi);
      if (g.SignAt(lo) == 0) ++count;
      if (count > 0) {
        // A common root gamma lies in both isolating intervals; gamma is a
        // root of poly_ in this interval, hence equals *this; likewise for
        // other. So the numbers are equal.
        return 0;
      }
    }
  }
  // Distinct: refine until the intervals separate.
  while (root_.interval.Intersects(other.root_.interval)) {
    Rational w1 = root_.interval.Width() * Rational(BigInt(1), BigInt(2));
    Rational w2 =
        other.root_.interval.Width() * Rational(BigInt(1), BigInt(2));
    root_ = RefineRoot(poly_, std::move(root_), w1);
    other.root_ = RefineRoot(other.poly_, std::move(other.root_), w2);
    if (root_.is_exact && other.root_.is_exact) {
      return root_.interval.lo().Compare(other.root_.interval.lo());
    }
    if (root_.is_exact) return -other.CompareRational(root_.interval.lo());
    if (other.root_.is_exact) {
      return CompareRational(other.root_.interval.lo());
    }
  }
  return root_.interval.hi() <= other.root_.interval.lo() ? -1 : 1;
}

int AlgebraicNumber::CompareRational(const Rational& value) const {
  if (root_.is_exact) return root_.interval.lo().Compare(value);
  // alpha == value iff poly_(value) == 0 and value is in the interval.
  if (root_.interval.Contains(value) && poly_.SignAt(value) == 0) {
    return 0;
  }
  while (root_.interval.Contains(value)) {
    Rational w = root_.interval.Width() * Rational(BigInt(1), BigInt(2));
    root_ = RefineRoot(poly_, std::move(root_), w);
    if (root_.is_exact) return root_.interval.lo().Compare(value);
  }
  return root_.interval.hi() <= value ? -1 : 1;
}

Rational AlgebraicNumber::Approximate(const Rational& epsilon) const {
  CCDB_CHECK(epsilon.sign() > 0);
  if (root_.is_exact) return root_.interval.lo();
  root_ = RefineRoot(poly_, std::move(root_), epsilon);
  if (root_.is_exact) return root_.interval.lo();
  return root_.interval.Midpoint();
}

double AlgebraicNumber::ToDouble() const {
  return Approximate(Rational(BigInt(1), BigInt::Pow2(60))).ToDouble();
}

std::string AlgebraicNumber::ToString() const {
  if (root_.is_exact) return root_.interval.lo().ToString();
  return "root of " + poly_.ToString() + " in " + root_.interval.ToString();
}

}  // namespace ccdb
