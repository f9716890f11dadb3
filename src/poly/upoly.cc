#include "poly/upoly.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "base/logging.h"
#include "base/metrics.h"

namespace ccdb {

UPoly::UPoly(std::vector<Rational> coefficients)
    : coeffs_(std::move(coefficients)) {
  Trim();
}

void UPoly::Trim() {
  while (!coeffs_.empty() && coeffs_.back().is_zero()) coeffs_.pop_back();
}

UPoly UPoly::Constant(Rational value) {
  UPoly p;
  if (!value.is_zero()) p.coeffs_.push_back(std::move(value));
  return p;
}

UPoly UPoly::Monomial(Rational coefficient, std::uint32_t degree) {
  UPoly p;
  if (!coefficient.is_zero()) {
    p.coeffs_.assign(degree + 1, Rational(0));
    p.coeffs_[degree] = std::move(coefficient);
  }
  return p;
}

UPoly UPoly::X() { return Monomial(Rational(1), 1); }

StatusOr<UPoly> UPoly::FromPolynomial(const Polynomial& p, int var) {
  std::vector<Rational> coeffs(p.DegreeIn(var) + 1, Rational(0));
  for (const auto& [monomial, coeff] : p.terms()) {
    std::uint32_t e = monomial.exponent(var);
    if (monomial.total_degree() != e) {
      return Status::InvalidArgument(
          "polynomial mentions variables other than the requested one");
    }
    coeffs[e] += coeff;
  }
  return UPoly(std::move(coeffs));
}

Polynomial UPoly::ToPolynomial(int var) const {
  Polynomial result;
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    result += Polynomial::Term(coeffs_[i],
                               Monomial::Var(var, static_cast<std::uint32_t>(i)));
  }
  return result;
}

const Rational& UPoly::leading_coefficient() const {
  CCDB_CHECK_MSG(!coeffs_.empty(), "leading coefficient of zero polynomial");
  return coeffs_.back();
}

UPoly UPoly::operator-() const {
  UPoly result = *this;
  for (auto& c : result.coeffs_) c = -c;
  return result;
}

UPoly UPoly::operator+(const UPoly& other) const {
  std::vector<Rational> coeffs(std::max(coeffs_.size(), other.coeffs_.size()),
                               Rational(0));
  for (std::size_t i = 0; i < coeffs_.size(); ++i) coeffs[i] += coeffs_[i];
  for (std::size_t i = 0; i < other.coeffs_.size(); ++i) {
    coeffs[i] += other.coeffs_[i];
  }
  return UPoly(std::move(coeffs));
}

UPoly UPoly::operator-(const UPoly& other) const { return *this + (-other); }

UPoly UPoly::operator*(const UPoly& other) const {
  if (is_zero() || other.is_zero()) return UPoly();
  std::vector<Rational> coeffs(coeffs_.size() + other.coeffs_.size() - 1,
                               Rational(0));
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i].is_zero()) continue;
    for (std::size_t j = 0; j < other.coeffs_.size(); ++j) {
      coeffs[i + j] += coeffs_[i] * other.coeffs_[j];
    }
  }
  return UPoly(std::move(coeffs));
}

UPoly UPoly::Scale(const Rational& factor) const {
  if (factor.is_zero()) return UPoly();
  UPoly result = *this;
  for (auto& c : result.coeffs_) c *= factor;
  return result;
}

std::pair<UPoly, UPoly> UPoly::DivMod(const UPoly& divisor) const {
  CCDB_CHECK_MSG(!divisor.is_zero(), "polynomial division by zero");
  UPoly remainder = *this;
  if (degree() < divisor.degree()) return {UPoly(), remainder};
  std::vector<Rational> quotient(degree() - divisor.degree() + 1, Rational(0));
  Rational lead_inv = divisor.leading_coefficient().Inverse();
  while (!remainder.is_zero() && remainder.degree() >= divisor.degree()) {
    int shift = remainder.degree() - divisor.degree();
    Rational factor = remainder.leading_coefficient() * lead_inv;
    quotient[shift] = factor;
    // remainder -= factor * x^shift * divisor
    for (std::size_t i = 0; i < divisor.coeffs_.size(); ++i) {
      remainder.coeffs_[i + shift] -= factor * divisor.coeffs_[i];
    }
    remainder.Trim();
  }
  return {UPoly(std::move(quotient)), std::move(remainder)};
}

StatusOr<UPoly> UPoly::DivideExact(const UPoly& divisor) const {
  auto [quotient, remainder] = DivMod(divisor);
  if (!remainder.is_zero()) {
    return Status::InvalidArgument("inexact polynomial division");
  }
  return quotient;
}

namespace {

// Dense integer polynomial, low degree first, no trailing zeros. The
// remainder sequences below run on these, so no step divides over Q.
using IntPoly = std::vector<BigInt>;

void TrimIntPoly(IntPoly* p) {
  while (!p->empty() && p->back().is_zero()) p->pop_back();
}

// Divides out the content (the positive gcd of the coefficients), which
// keeps the sign of every value. Positive scalings leave every sign
// evaluation unchanged, so this is sound inside Euclidean remainder
// sequences and Sturm chains — and it is what keeps their coefficient bit
// lengths from swelling exponentially.
void MakePrimitive(IntPoly* p) {
  BigInt content(0);
  for (const BigInt& c : *p) {
    content = BigInt::Gcd(content, c);
    if (content.is_one()) return;
  }
  if (content.is_zero()) return;
  for (BigInt& c : *p) c = c / content;
}

// The primitive integer polynomial that is a positive multiple of p.
IntPoly PrimitiveIntegerPart(const UPoly& p) {
  IntPoly result = p.IntegerCoefficients();
  MakePrimitive(&result);
  return result;
}

IntPoly IntegerDerivative(const IntPoly& p) {
  IntPoly result;
  for (std::size_t i = 1; i < p.size(); ++i) {
    result.push_back(p[i] * BigInt(static_cast<std::int64_t>(i)));
  }
  TrimIntPoly(&result);
  return result;
}

UPoly FromIntegers(const IntPoly& p) {
  return UPoly(std::vector<Rational>(p.begin(), p.end()));
}

// A positive multiple of x mod y (the remainder over Q), computed in
// integers: each elimination step multiplies the running remainder by
// |lc(y)| > 0 before cancelling its leading term, so the result is
// |lc(y)|^k * (x mod y) for some k <= deg x - deg y + 1. Requires y nonzero.
IntPoly PositivePseudoRemainder(IntPoly x, const IntPoly& y) {
  const std::size_t dy = y.size() - 1;
  const BigInt scale = y.back().Abs();
  const bool negative_lead = y.back().is_negative();
  while (!x.empty() && x.size() - 1 >= dy) {
    const std::size_t shift = x.size() - 1 - dy;
    // x <- |lc(y)| * x - sign(lc(y)) * lc(x) * t^shift * y.
    BigInt factor = negative_lead ? -x.back() : x.back();
    x.pop_back();
    if (!scale.is_one()) {
      for (BigInt& c : x) c *= scale;
    }
    for (std::size_t j = 0; j < dy; ++j) {
      if (!y[j].is_zero()) x[j + shift] -= factor * y[j];
    }
    TrimIntPoly(&x);
  }
  return x;
}

}  // namespace

UPoly UPoly::Gcd(const UPoly& a, const UPoly& b) {
  IntPoly x = PrimitiveIntegerPart(a);
  IntPoly y = PrimitiveIntegerPart(b);
  while (!y.empty()) {
    IntPoly r = PositivePseudoRemainder(std::move(x), y);
    MakePrimitive(&r);
    x = std::move(y);
    y = std::move(r);
  }
  return FromIntegers(x).MakeMonic();
}

UPoly UPoly::Derivative() const {
  if (coeffs_.size() <= 1) return UPoly();
  std::vector<Rational> coeffs(coeffs_.size() - 1, Rational(0));
  for (std::size_t i = 1; i < coeffs_.size(); ++i) {
    coeffs[i - 1] = coeffs_[i] * Rational(static_cast<std::int64_t>(i));
  }
  return UPoly(std::move(coeffs));
}

UPoly UPoly::MakeMonic() const {
  if (is_zero()) return UPoly();
  return Scale(leading_coefficient().Inverse());
}

UPoly UPoly::SquarefreePart() const {
  if (degree() <= 1) return MakeMonic();
  CCDB_METRIC_COUNT("poly.squarefree_gcds", 1);
  UPoly g = Gcd(*this, Derivative());
  if (g.degree() == 0) return MakeMonic();
  auto result = DivideExact(g);
  CCDB_CHECK(result.ok());
  return result->MakeMonic();
}

std::vector<UPoly> UPoly::SquarefreeDecomposition() const {
  // Yun's algorithm over a field of characteristic 0.
  std::vector<UPoly> factors;
  if (degree() <= 0) return factors;
  UPoly f = MakeMonic();
  UPoly fp = f.Derivative();
  UPoly a = Gcd(f, fp);
  UPoly b = *f.DivideExact(a);
  UPoly c = *fp.DivideExact(a);
  UPoly d = c - b.Derivative();
  while (b.degree() > 0) {
    UPoly factor = Gcd(b, d);
    factors.push_back(factor);
    b = *b.DivideExact(factor);
    c = *d.DivideExact(factor);
    d = c - b.Derivative();
  }
  return factors;
}

Rational UPoly::Evaluate(const Rational& x) const {
  Rational result(0);
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    result = result * x + coeffs_[i];
  }
  return result;
}

namespace {

// Sign of sum_{i<size} c_i x^i at x = p/q (q > 0), where coefficient(i)
// returns c_i as a BigInt. Homogenised Horner evaluates
// sum c_i p^i q^(n-i) = q^n * value, whose sign is the value's: integer
// multiplications only, no gcd.
template <typename CoefficientAt>
int HomogenizedSign(std::size_t size, const CoefficientAt& coefficient,
                    const Rational& x) {
  if (size == 0) return 0;
  const BigInt& p = x.numerator();
  const BigInt& q = x.denominator();
  BigInt acc = coefficient(size - 1);
  if (q.is_one()) {
    for (std::size_t i = size - 1; i-- > 0;) acc = acc * p + coefficient(i);
    return acc.sign();
  }
  BigInt q_power = q;  // q^(n-i) for the coefficient being folded in
  for (std::size_t i = size - 1; i-- > 0;) {
    acc *= p;
    const BigInt& c = coefficient(i);
    if (!c.is_zero()) acc += c * q_power;
    if (i > 0) q_power *= q;
  }
  return acc.sign();
}

}  // namespace

int UPoly::SignAt(const Rational& x) const {
  for (const Rational& c : coeffs_) {
    if (!c.is_integer()) return IntegerSignAt(IntegerCoefficients(), x);
  }
  return HomogenizedSign(
      coeffs_.size(),
      [this](std::size_t i) -> const BigInt& { return coeffs_[i].numerator(); },
      x);
}

std::vector<BigInt> UPoly::IntegerCoefficients() const {
  BigInt den_lcm(1);
  for (const Rational& c : coeffs_) {
    const BigInt& d = c.denominator();
    if (!d.is_one()) den_lcm = den_lcm / BigInt::Gcd(den_lcm, d) * d;
  }
  std::vector<BigInt> result;
  result.reserve(coeffs_.size());
  for (const Rational& c : coeffs_) {
    result.push_back(c.numerator() * (den_lcm / c.denominator()));
  }
  return result;
}

int UPoly::IntegerSignAt(const std::vector<BigInt>& coefficients,
                         const Rational& x) {
  return HomogenizedSign(
      coefficients.size(),
      [&coefficients](std::size_t i) -> const BigInt& {
        return coefficients[i];
      },
      x);
}

Interval UPoly::EvaluateInterval(const Interval& x) const {
  Interval result{Rational(0)};
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    result = result * x + Interval(coeffs_[i]);
  }
  return result;
}

UPoly UPoly::Compose(const UPoly& inner) const {
  UPoly result;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    result = result * inner + Constant(coeffs_[i]);
  }
  return result;
}

int UPoly::SignVariations() const {
  int variations = 0;
  int last = 0;
  for (const Rational& c : coeffs_) {
    int s = c.sign();
    if (s == 0) continue;
    if (last != 0 && s != last) ++variations;
    last = s;
  }
  return variations;
}

Rational UPoly::CauchyRootBound() const {
  CCDB_CHECK_MSG(!is_zero(), "root bound of zero polynomial");
  Rational lead = leading_coefficient().Abs();
  Rational max_ratio(0);
  for (std::size_t i = 0; i + 1 < coeffs_.size(); ++i) {
    Rational ratio = coeffs_[i].Abs() / lead;
    if (ratio > max_ratio) max_ratio = ratio;
  }
  return max_ratio + Rational(1);
}

std::vector<UPoly> UPoly::SturmChain() const {
  std::vector<UPoly> chain;
  if (is_zero()) return chain;
  IntPoly a = PrimitiveIntegerPart(*this);
  IntPoly b = IntegerDerivative(a);
  MakePrimitive(&b);
  chain.push_back(FromIntegers(a));
  while (!b.empty()) {
    chain.push_back(FromIntegers(b));
    IntPoly r = PositivePseudoRemainder(std::move(a), b);
    for (BigInt& c : r) c = -c;
    MakePrimitive(&r);
    a = std::move(b);
    b = std::move(r);
  }
  return chain;
}

int UPoly::SturmVariationsAt(const std::vector<UPoly>& chain,
                             const Rational& x) {
  int variations = 0;
  int last = 0;
  for (const UPoly& p : chain) {
    int s = p.SignAt(x);
    if (s == 0) continue;
    if (last != 0 && s != last) ++variations;
    last = s;
  }
  return variations;
}

int UPoly::SturmCountRoots(const std::vector<UPoly>& chain, const Rational& a,
                           const Rational& b) {
  CCDB_CHECK(a <= b);
  if (chain.empty()) return 0;
  return SturmVariationsAt(chain, a) - SturmVariationsAt(chain, b);
}

std::string UPoly::ToString(const std::string& var_name) const {
  if (is_zero()) return "0";
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    const Rational& c = coeffs_[i];
    if (c.is_zero()) continue;
    Rational magnitude = c.Abs();
    if (first) {
      if (c.sign() < 0) out << "-";
      first = false;
    } else {
      out << (c.sign() < 0 ? " - " : " + ");
    }
    if (i == 0) {
      out << magnitude.ToString();
    } else {
      if (magnitude != Rational(1)) out << magnitude.ToString() << "*";
      out << var_name;
      if (i > 1) out << "^" << i;
    }
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const UPoly& p) {
  return os << p.ToString();
}

}  // namespace ccdb
