#ifndef CCDB_POLY_UPOLY_H_
#define CCDB_POLY_UPOLY_H_

#include <string>
#include <vector>

#include "arith/interval.h"
#include "arith/rational.h"
#include "base/status.h"
#include "poly/polynomial.h"

namespace ccdb {

/// Dense univariate polynomial over the rationals.
///
/// This is the workhorse of the base phase of CAD and of numerical
/// evaluation: Sturm sequences, real root isolation and refinement all
/// operate on UPoly. coefficients()[i] is the coefficient of x^i; the
/// leading coefficient is nonzero (zero polynomial has an empty vector).
class UPoly {
 public:
  /// Constructs the zero polynomial.
  UPoly() = default;
  /// Constructs from dense coefficients (low degree first); trailing zeros
  /// are trimmed.
  explicit UPoly(std::vector<Rational> coefficients);

  static UPoly Constant(Rational value);
  /// The monomial c * x^degree.
  static UPoly Monomial(Rational coefficient, std::uint32_t degree);
  /// The variable x.
  static UPoly X();

  /// Converts a Polynomial mentioning at most the single variable `var`.
  /// Returns kInvalidArgument if other variables occur.
  static StatusOr<UPoly> FromPolynomial(const Polynomial& p, int var);
  /// Embeds into the multivariate ring with variable index `var`.
  Polynomial ToPolynomial(int var) const;

  bool is_zero() const { return coeffs_.empty(); }
  bool is_constant() const { return coeffs_.size() <= 1; }
  /// Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  const std::vector<Rational>& coefficients() const { return coeffs_; }
  const Rational& leading_coefficient() const;
  Rational coefficient(std::size_t i) const {
    return i < coeffs_.size() ? coeffs_[i] : Rational(0);
  }

  UPoly operator-() const;
  UPoly operator+(const UPoly& other) const;
  UPoly operator-(const UPoly& other) const;
  UPoly operator*(const UPoly& other) const;
  UPoly Scale(const Rational& factor) const;

  /// Euclidean division over the field Q: returns {quotient, remainder}
  /// with deg(remainder) < deg(divisor). Requires a nonzero divisor.
  std::pair<UPoly, UPoly> DivMod(const UPoly& divisor) const;
  /// Exact division; returns kInvalidArgument when the remainder is
  /// nonzero.
  StatusOr<UPoly> DivideExact(const UPoly& divisor) const;

  /// Monic gcd over Q; Gcd(0,0) == 0. The remainder sequence runs on
  /// primitive integer polynomials (positive pseudo-remainders), so no step
  /// divides over Q.
  static UPoly Gcd(const UPoly& a, const UPoly& b);

  UPoly Derivative() const;
  /// Makes the leading coefficient 1 (identity on zero).
  UPoly MakeMonic() const;
  /// Squarefree part: this / gcd(this, this').
  UPoly SquarefreePart() const;

  /// The value at x. Callers that only need the sign use SignAt.
  Rational Evaluate(const Rational& x) const;
  /// sign(this(x)) in {-1, 0, +1}, computed in integers: no gcd, no
  /// Rational. Always the sign of the value Evaluate(x).
  int SignAt(const Rational& x) const;
  /// The coefficients times the lcm of their denominators: a positive
  /// integer multiple of this polynomial, so it has the same sign at every
  /// point. Compute it once and pass it to IntegerSignAt when evaluating
  /// the sign of one polynomial at many points.
  std::vector<BigInt> IntegerCoefficients() const;
  /// Sign at x = p/q (q > 0) of the integer polynomial sum c_i x^i, by
  /// homogenised Horner on sum c_i p^i q^(n-i) = q^n * value. p/q need not
  /// be in lowest terms.
  static int IntegerSignAt(const std::vector<BigInt>& coefficients,
                           const BigInt& p, const BigInt& q);
  static int IntegerSignAt(const std::vector<BigInt>& coefficients,
                           const Rational& x) {
    return IntegerSignAt(coefficients, x.numerator(), x.denominator());
  }
  Interval EvaluateInterval(const Interval& x) const;

  /// Number of sign variations of the coefficient sequence (for Descartes
  /// style bounds).
  int SignVariations() const;

  /// Cauchy root bound: every real root lies in (-B, B).
  Rational CauchyRootBound() const;

  /// Sturm chain of this (starting with this, this'). Each member is a
  /// primitive integer polynomial, a positive multiple of the member the
  /// rational chain would have: remainders are negated positive
  /// pseudo-remainders, so no step divides over Q.
  std::vector<UPoly> SturmChain() const;
  /// Number of distinct real roots in the half-open interval (a, b], given
  /// a precomputed Sturm chain for this polynomial. Requires a <= b and
  /// a squarefree-compatible chain (chain of this).
  static int SturmCountRoots(const std::vector<UPoly>& chain,
                             const Rational& a, const Rational& b);
  /// Sign variation count of the chain evaluated at x.
  static int SturmVariationsAt(const std::vector<UPoly>& chain,
                               const Rational& x);

  bool operator==(const UPoly& other) const { return coeffs_ == other.coeffs_; }
  bool operator!=(const UPoly& other) const { return !(*this == other); }

  std::string ToString(const std::string& var_name = "x") const;

 private:
  void Trim();
  std::vector<Rational> coeffs_;
};

std::ostream& operator<<(std::ostream& os, const UPoly& p);

}  // namespace ccdb

#endif  // CCDB_POLY_UPOLY_H_
