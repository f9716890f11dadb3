#include "poly/number_field.h"

#include <algorithm>

#include "base/logging.h"

namespace ccdb {

NumberField::NumberField(AlgebraicNumber alpha)
    : modulus_(alpha.defining_polynomial().MakeMonic()),
      alpha_(std::move(alpha)) {}

UPoly NumberField::Reduce(const UPoly& q) const {
  if (q.degree() < modulus_.degree()) return q;
  return q.DivMod(modulus_).second;
}

int NumberField::Sign(const UPoly& a) const {
  return alpha_.SignOfPolyAt(Reduce(a));
}

void NumberField::SplitModulus(const UPoly& factor) {
  UPoly monic = factor.MakeMonic();
  CCDB_CHECK_MSG(monic.degree() >= 1 && monic.degree() < modulus_.degree(),
                 "split factor must be proper");
  // alpha must be a root of exactly one of {factor, modulus/factor}.
  UPoly cofactor = *modulus_.DivideExact(monic);
  const UPoly& keep =
      alpha_.SignOfPolyAt(monic) == 0 ? monic : cofactor;
  CCDB_CHECK_MSG(alpha_.SignOfPolyAt(keep) == 0,
                 "alpha lost during modulus split");
  modulus_ = keep.MakeMonic();
  // Rebuild alpha over the smaller defining polynomial. The current
  // isolating interval still isolates alpha among the (fewer) roots.
  if (alpha_.is_rational()) return;
  IsolatedRoot root{alpha_.isolating_interval(), false};
  alpha_ = AlgebraicNumber(modulus_, std::move(root));
}

UPoly NumberField::Inverse(const UPoly& a) {
  while (true) {
    UPoly r = Reduce(a);
    CCDB_CHECK_MSG(!IsZero(r), "inverse of zero field element");
    // Extended Euclid: maintain r0 = s0*m + t0*a-ish; we only need the
    // cofactor of `r` against the modulus.
    UPoly r0 = modulus_;
    UPoly r1 = r;
    UPoly t0;                      // coefficient of r in r0's combination
    UPoly t1 = UPoly::Constant(Rational(1));
    while (!r1.is_zero()) {
      auto [q, rem] = r0.DivMod(r1);
      UPoly t2 = t0 - q * t1;
      r0 = std::move(r1);
      r1 = std::move(rem);
      t0 = std::move(t1);
      t1 = std::move(t2);
    }
    // r0 = gcd(modulus, r), t0 satisfies t0*r ≡ r0 (mod modulus).
    if (r0.degree() == 0) {
      return Reduce(t0.Scale(r0.leading_coefficient().Inverse()));
    }
    // Zero divisor found: r vanishes on the roots of r0 but not at alpha
    // (r(alpha) != 0), so alpha is a root of modulus/r0 — split and retry.
    SplitModulus(r0);
  }
}

Interval NumberField::Enclose(const UPoly& a, const Rational& width) const {
  UPoly r = Reduce(a);
  if (r.is_constant()) {
    Rational v = r.is_zero() ? Rational(0) : r.coefficient(0);
    return Interval(v);
  }
  const AlgebraicNumber& alpha = alpha_;
  while (true) {
    Interval value = r.EvaluateInterval(alpha.isolating_interval());
    if (value.Width() <= width) return value;
    Rational half =
        alpha.isolating_interval().Width() * Rational(BigInt(1), BigInt(2));
    alpha.RefineTo(half);
    if (alpha.is_rational()) {
      return Interval(r.Evaluate(alpha.rational_value()));
    }
  }
}

FieldPoly::FieldPoly(std::vector<UPoly> coefficients)
    : coeffs_(std::move(coefficients)) {}

void FieldPoly::Normalize(const NumberField& field) {
  for (UPoly& c : coeffs_) c = field.Reduce(c);
  while (!coeffs_.empty() && field.IsZero(coeffs_.back())) {
    coeffs_.pop_back();
  }
}

const UPoly& FieldPoly::leading_coefficient() const {
  CCDB_CHECK(!coeffs_.empty());
  return coeffs_.back();
}

FieldPoly FieldPoly::operator-() const {
  FieldPoly result = *this;
  for (UPoly& c : result.coeffs_) c = -c;
  return result;
}

FieldPoly FieldPoly::Add(const FieldPoly& other,
                         const NumberField& field) const {
  std::vector<UPoly> coeffs(std::max(coeffs_.size(), other.coeffs_.size()));
  for (std::size_t i = 0; i < coeffs_.size(); ++i) coeffs[i] = coeffs_[i];
  for (std::size_t i = 0; i < other.coeffs_.size(); ++i) {
    coeffs[i] = coeffs[i] + other.coeffs_[i];
  }
  FieldPoly result(std::move(coeffs));
  result.Normalize(field);
  return result;
}

FieldPoly FieldPoly::Sub(const FieldPoly& other,
                         const NumberField& field) const {
  return Add(-other, field);
}

FieldPoly FieldPoly::Mul(const FieldPoly& other,
                         const NumberField& field) const {
  if (coeffs_.empty() || other.coeffs_.empty()) return FieldPoly();
  std::vector<UPoly> coeffs(coeffs_.size() + other.coeffs_.size() - 1);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    for (std::size_t j = 0; j < other.coeffs_.size(); ++j) {
      coeffs[i + j] = coeffs[i + j] + field.Mul(coeffs_[i], other.coeffs_[j]);
    }
  }
  FieldPoly result(std::move(coeffs));
  result.Normalize(field);
  return result;
}

FieldPoly FieldPoly::Derivative(const NumberField& field) const {
  if (coeffs_.size() <= 1) return FieldPoly();
  std::vector<UPoly> coeffs(coeffs_.size() - 1);
  for (std::size_t i = 1; i < coeffs_.size(); ++i) {
    coeffs[i - 1] = coeffs_[i].Scale(Rational(static_cast<std::int64_t>(i)));
  }
  FieldPoly result(std::move(coeffs));
  result.Normalize(field);
  return result;
}

FieldPoly FieldPoly::Rem(const FieldPoly& divisor, NumberField& field) const {
  CCDB_CHECK_MSG(!divisor.is_zero(), "field polynomial division by zero");
  FieldPoly remainder = *this;
  remainder.Normalize(field);
  UPoly lead_inv = field.Inverse(divisor.leading_coefficient());
  while (!remainder.is_zero() && remainder.degree() >= divisor.degree()) {
    int shift = remainder.degree() - divisor.degree();
    UPoly factor = field.Mul(remainder.leading_coefficient(), lead_inv);
    for (int i = 0; i <= divisor.degree(); ++i) {
      remainder.coeffs_[i + shift] = field.Sub(
          remainder.coeffs_[i + shift], field.Mul(factor, divisor.coeffs_[i]));
    }
    remainder.Normalize(field);
  }
  return remainder;
}

FieldPoly FieldPoly::Gcd(FieldPoly a, FieldPoly b, NumberField& field) {
  a.Normalize(field);
  b.Normalize(field);
  while (!b.is_zero()) {
    FieldPoly r = a.Rem(b, field);
    a = std::move(b);
    b = std::move(r);
  }
  return a.MakeMonic(field);
}

FieldPoly FieldPoly::MakeMonic(NumberField& field) const {
  if (is_zero()) return FieldPoly();
  FieldPoly result = *this;
  UPoly lead_inv = field.Inverse(result.leading_coefficient());
  for (UPoly& c : result.coeffs_) c = field.Mul(c, lead_inv);
  return result;
}

FieldPoly FieldPoly::SquarefreePart(NumberField& field) const {
  FieldPoly f = *this;
  f.Normalize(field);
  if (f.degree() <= 1) return f.is_zero() ? f : f.MakeMonic(field);
  FieldPoly g = Gcd(f, f.Derivative(field), field);
  if (g.degree() == 0) return f.MakeMonic(field);
  // Exact division f / g via repeated remainder-free long division.
  FieldPoly quotient;
  {
    FieldPoly remainder = f;
    std::vector<UPoly> qc(f.degree() - g.degree() + 1);
    UPoly lead_inv = field.Inverse(g.leading_coefficient());
    while (!remainder.is_zero() && remainder.degree() >= g.degree()) {
      int shift = remainder.degree() - g.degree();
      UPoly factor = field.Mul(remainder.leading_coefficient(), lead_inv);
      qc[shift] = factor;
      for (int i = 0; i <= g.degree(); ++i) {
        remainder.coeffs_[i + shift] = field.Sub(
            remainder.coeffs_[i + shift], field.Mul(factor, g.coeffs_[i]));
      }
      remainder.Normalize(field);
    }
    CCDB_CHECK_MSG(remainder.is_zero(), "squarefree division not exact");
    quotient = FieldPoly(std::move(qc));
    quotient.Normalize(field);
  }
  return quotient.MakeMonic(field);
}

UPoly FieldPoly::EvaluateAtRational(const Rational& r,
                                    const NumberField& field) const {
  UPoly value;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    value = field.Reduce(value.Scale(r) + coeffs_[i]);
  }
  return value;
}

int FieldPoly::SignAtRational(const Rational& r,
                              const NumberField& field) const {
  return field.Sign(EvaluateAtRational(r, field));
}

namespace {

// Sturm chain of a squarefree FieldPoly.
std::vector<FieldPoly> FieldSturmChain(const FieldPoly& f,
                                       NumberField& field) {
  std::vector<FieldPoly> chain;
  if (f.is_zero()) return chain;
  chain.push_back(f);
  FieldPoly d = f.Derivative(field);
  if (d.is_zero()) return chain;
  chain.push_back(d);
  while (true) {
    FieldPoly r = chain[chain.size() - 2].Rem(chain.back(), field);
    if (r.is_zero()) break;
    chain.push_back(-r);
  }
  return chain;
}

int FieldSturmVariationsAt(const std::vector<FieldPoly>& chain,
                           const Rational& x, const NumberField& field) {
  int variations = 0;
  int last = 0;
  for (const FieldPoly& p : chain) {
    int s = p.SignAtRational(x, field);
    if (s == 0) continue;
    if (last != 0 && s != last) ++variations;
    last = s;
  }
  return variations;
}

}  // namespace

int FieldPoly::CountRealRoots(const Rational& lo, const Rational& hi,
                              NumberField& field) const {
  FieldPoly f = *this;
  f.Normalize(field);
  if (f.degree() <= 0) return 0;
  std::vector<FieldPoly> chain = FieldSturmChain(f, field);
  return FieldSturmVariationsAt(chain, lo, field) -
         FieldSturmVariationsAt(chain, hi, field);
}

std::vector<Interval> FieldPoly::IsolateRealRoots(NumberField& field) const {
  std::vector<Interval> roots;
  FieldPoly f = *this;
  f.Normalize(field);
  if (f.degree() <= 0) return roots;
  f = f.MakeMonic(field);

  std::vector<FieldPoly> chain = FieldSturmChain(f, field);

  // Root bound: 1 + max |c_i(alpha)| over the monic coefficients, using
  // certified enclosures.
  Rational bound(1);
  for (int i = 0; i < f.degree(); ++i) {
    Interval enclosure =
        field.Enclose(f.coefficients()[i], Rational(BigInt(1), BigInt(16)));
    Rational magnitude = std::max(enclosure.lo().Abs(), enclosure.hi().Abs());
    if (magnitude + Rational(1) > bound) bound = magnitude + Rational(1);
  }
  Rational lo = -bound;
  Rational hi = bound;

  struct Segment {
    Rational lo, hi;
    int count;
  };
  std::vector<Segment> work;
  int total = FieldSturmVariationsAt(chain, lo, field) -
              FieldSturmVariationsAt(chain, hi, field);
  if (total > 0) work.push_back({lo, hi, total});

  auto count_roots = [&](const Rational& a, const Rational& b) {
    return FieldSturmVariationsAt(chain, a, field) -
           FieldSturmVariationsAt(chain, b, field);
  };

  while (!work.empty()) {
    Segment seg = work.back();
    work.pop_back();
    if (seg.count == 1) {
      roots.emplace_back(seg.lo, seg.hi);
      continue;
    }
    Rational mid = Rational::Midpoint(seg.lo, seg.hi);
    if (f.SignAtRational(mid, field) == 0) {
      roots.emplace_back(mid, mid);
      Rational delta = (seg.hi - seg.lo) * Rational(BigInt(1), BigInt(4));
      while (f.SignAtRational(mid - delta, field) == 0 ||
             f.SignAtRational(mid + delta, field) == 0 ||
             count_roots(mid - delta, mid + delta) > 1) {
        delta = delta * Rational(BigInt(1), BigInt(2));
      }
      int left = count_roots(seg.lo, mid - delta);
      int right = count_roots(mid + delta, seg.hi);
      if (left > 0) work.push_back({seg.lo, mid - delta, left});
      if (right > 0) work.push_back({mid + delta, seg.hi, right});
      continue;
    }
    int left = count_roots(seg.lo, mid);
    int right = seg.count - left;
    if (left > 0) work.push_back({seg.lo, mid, left});
    if (right > 0) work.push_back({mid, seg.hi, right});
  }

  std::sort(roots.begin(), roots.end(),
            [](const Interval& a, const Interval& b) { return a.lo() < b.lo(); });
  return roots;
}

}  // namespace ccdb
