#include "qe/algebraic_point.h"

#include <algorithm>

#include "base/logging.h"
#include "base/metrics.h"
#include "poly/number_field.h"
#include "poly/resultant.h"

namespace ccdb {

AlgebraicPoint AlgebraicPoint::Extended(AlgebraicNumber value) const {
  AlgebraicPoint result = *this;
  result.Append(std::move(value));
  return result;
}

bool AlgebraicPoint::AllRational() const {
  for (const AlgebraicNumber& c : coords_) {
    if (!c.is_rational()) return false;
  }
  return true;
}

std::vector<Rational> AlgebraicPoint::RationalCoords() const {
  std::vector<Rational> out;
  out.reserve(coords_.size());
  for (const AlgebraicNumber& c : coords_) out.push_back(c.rational_value());
  return out;
}

StatusOr<Polynomial> AlgebraicPoint::EliminateCoords(
    Polynomial q, int extra_var, const ResourceGovernor* gov) const {
  // Substitute rational coordinates exactly first (cheap, lowers degrees).
  for (int i = 0; i < dimension(); ++i) {
    if (coords_[i].is_rational() && q.Mentions(i)) {
      q = q.Substitute(i, coords_[i].rational_value());
    }
  }
  // Eliminate remaining algebraic coordinates by resultants with their
  // defining polynomials.
  for (int i = 0; i < dimension(); ++i) {
    if (coords_[i].is_rational() || !q.Mentions(i)) continue;
    CCDB_CHECK_BUDGET(gov, "cad.stack");
    Polynomial defining =
        coords_[i].defining_polynomial().ToPolynomial(i);
    CCDB_ASSIGN_OR_RETURN(q, Resultant(defining, q, i, gov));
    if (q.is_zero()) break;
  }
  // Now q mentions at most extra_var.
  CCDB_DCHECK(q.is_zero() || q.max_var() <= extra_var);
  (void)extra_var;
  return q;
}

namespace {

// Registered at load so metric snapshots list both counters while they are
// still zero (`cad.value_at_fallbacks` is meant to stay at zero on 2-D CADs).
Counter* const field_zero_tests =
    MetricsRegistry::Global().GetCounter("cad.field_zero_tests");
Counter* const value_at_fallbacks =
    MetricsRegistry::Global().GetCounter("cad.value_at_fallbacks");

// Exact zero test for q(alpha, beta), where q mentions only the variables
// a (coordinate alpha) and b (coordinate beta), beta irrational. Writes
// q(alpha, y) and beta's defining polynomial N(y) over Q(alpha); their gcd
// g divides N, and N has exactly one root (beta) in beta's isolating
// interval, with no root at either endpoint. So q(alpha, beta) == 0 iff g
// has a root in that interval, which a Sturm count over Q(alpha) decides.
bool VanishesOverField(const Polynomial& q, int a, const AlgebraicNumber& alpha,
                       int b, const AlgebraicNumber& beta) {
  field_zero_tests->Increment();
  NumberField field(alpha);
  std::vector<UPoly> q_coeffs;
  for (const Polynomial& c : q.CoefficientsIn(b)) {
    auto u = UPoly::FromPolynomial(c, a);
    CCDB_CHECK(u.ok());
    q_coeffs.push_back(*std::move(u));
  }
  std::vector<UPoly> n_coeffs;
  for (const Rational& c : beta.defining_polynomial().coefficients()) {
    n_coeffs.push_back(UPoly::Constant(c));
  }
  FieldPoly g = FieldPoly::Gcd(FieldPoly(std::move(q_coeffs)),
                               FieldPoly(std::move(n_coeffs)), field);
  const Interval& iv = beta.isolating_interval();
  return g.CountRealRoots(iv.lo(), iv.hi(), field) > 0;
}

}  // namespace

int AlgebraicPoint::SignAt(const Polynomial& p) const {
  CCDB_CHECK_MSG(p.max_var() < dimension(),
                 "polynomial mentions variables beyond the point dimension");
  // Substitute rational coordinates exactly, then dispatch on how many
  // irrational coordinates the result still mentions.
  Polynomial q = p;
  for (int i = 0; i < dimension(); ++i) {
    if (coords_[i].is_rational() && q.Mentions(i)) {
      q = q.Substitute(i, coords_[i].rational_value());
    }
  }
  if (q.is_constant()) return q.constant_value().sign();
  std::vector<int> irrational;
  for (int i = 0; i < dimension(); ++i) {
    if (q.Mentions(i)) irrational.push_back(i);
  }
  if (irrational.size() == 1) {
    auto u = UPoly::FromPolynomial(q, irrational[0]);
    CCDB_CHECK(u.ok());
    return coords_[irrational[0]].SignOfPolyAt(*u);
  }
  std::vector<Interval> box(dimension(), Interval(Rational(0)));
  if (irrational.size() == 2) {
    // Filtered exact test: a certain interval sign answers at once; an
    // ambiguous one pays for the zero test over Q(alpha), and a proven
    // nonzero value is refined until its interval sign is certain.
    const AlgebraicNumber& alpha = coords_[irrational[0]];
    const AlgebraicNumber& beta = coords_[irrational[1]];
    auto interval_sign = [&] {
      box[irrational[0]] = alpha.isolating_interval();
      box[irrational[1]] = beta.isolating_interval();
      return q.EvaluateInterval(box).CertainSign();
    };
    int sign = interval_sign();
    if (sign != Interval::kAmbiguousSign) return sign;
    if (VanishesOverField(q, irrational[0], alpha, irrational[1], beta)) {
      return 0;
    }
    const Rational half(BigInt(1), BigInt(2));
    while (sign == Interval::kAmbiguousSign) {
      alpha.RefineTo(alpha.isolating_interval().Width() * half);
      beta.RefineTo(beta.isolating_interval().Width() * half);
      sign = interval_sign();
    }
    return sign;
  }
  // Three or more irrational coordinates: bounded interval refinement,
  // then exact identification through ValueAt.
  value_at_fallbacks->Increment();
  for (int round = 0; round < 4; ++round) {
    for (int i : irrational) {
      if (round > 0) {
        coords_[i].RefineTo(coords_[i].isolating_interval().Width() *
                            Rational(BigInt(1), BigInt::Pow2(16)));
      }
      box[i] = coords_[i].isolating_interval();
    }
    int sign = q.EvaluateInterval(box).CertainSign();
    if (sign != Interval::kAmbiguousSign) return sign;
  }
  return ValueAt(p).Sign();
}

AlgebraicNumber AlgebraicPoint::ValueAt(const Polynomial& p) const {
  CCDB_CHECK(p.max_var() < dimension());
  // T(z) = iterated resultant eliminating every coordinate from z - p; the
  // value p(point) is among the real roots of T.
  int z_var = dimension();
  Polynomial z_minus_p = Polynomial::Var(z_var) - p;
  StatusOr<Polynomial> eliminated =
      EliminateCoords(std::move(z_minus_p), z_var, nullptr);
  CCDB_CHECK(eliminated.ok());
  Polynomial t = *std::move(eliminated);
  CCDB_CHECK_MSG(!t.is_zero(),
                 "iterated resultant vanished identically in ValueAt");
  auto t_upoly = UPoly::FromPolynomial(t, z_var);
  CCDB_CHECK(t_upoly.ok());
  std::vector<AlgebraicNumber> candidates = AlgebraicNumber::RootsOf(*t_upoly);
  CCDB_CHECK_MSG(!candidates.empty(), "candidate set empty in ValueAt");
  if (candidates.size() == 1) return candidates[0];

  // Identify the true value by shrinking the enclosure of p(point) until it
  // meets exactly one candidate's isolating interval.
  std::vector<Interval> box(dimension(), Interval(Rational(0)));
  Rational shrink(BigInt(1), BigInt(4));
  while (true) {
    for (int i = 0; i < dimension(); ++i) {
      box[i] = coords_[i].isolating_interval();
    }
    Interval value = p.EvaluateInterval(box);
    // Refine candidates away from the value enclosure.
    int hits = 0;
    std::size_t hit_index = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (candidates[c].isolating_interval().Intersects(value)) {
        ++hits;
        hit_index = c;
      }
    }
    if (hits == 1) return candidates[hit_index];
    // Shrink both the point coordinates and the candidate intervals.
    for (int i = 0; i < dimension(); ++i) {
      if (p.Mentions(i) && !coords_[i].is_rational()) {
        coords_[i].RefineTo(coords_[i].isolating_interval().Width() * shrink);
      }
    }
    for (AlgebraicNumber& c : candidates) {
      c.RefineTo(c.isolating_interval().Width() * shrink);
    }
  }
}

StatusOr<std::vector<AlgebraicNumber>> AlgebraicPoint::StackRoots(
    const Polynomial& p, const ResourceGovernor* gov) const {
  int y_var = dimension();
  CCDB_CHECK_MSG(p.max_var() <= y_var,
                 "stack polynomial mentions variables beyond the next level");
  CCDB_CHECK_MSG(p.Mentions(y_var), "stack polynomial must mention the stack variable");

  // Fast path: all coordinates rational.
  if (AllRational()) {
    Polynomial q = p;
    for (int i = 0; i < dimension(); ++i) {
      if (q.Mentions(i)) q = q.Substitute(i, coords_[i].rational_value());
    }
    if (q.is_constant()) {
      if (q.is_zero()) {
        return Status::InvalidArgument(
            "polynomial vanishes identically over the stack");
      }
      return std::vector<AlgebraicNumber>{};
    }
    auto u = UPoly::FromPolynomial(q, y_var);
    CCDB_CHECK(u.ok());
    return AlgebraicNumber::RootsOf(*u, gov);
  }

  // Trim leading coefficients (in y) that vanish at the point to expose the
  // effective degree.
  std::vector<Polynomial> coeffs = p.CoefficientsIn(y_var);
  int effective_degree = static_cast<int>(coeffs.size()) - 1;
  while (effective_degree >= 0 &&
         SignAt(coeffs[effective_degree]) == 0) {
    --effective_degree;
  }
  if (effective_degree < 0) {
    return Status::InvalidArgument(
        "polynomial vanishes identically over the stack");
  }
  if (effective_degree == 0) return std::vector<AlgebraicNumber>{};
  std::vector<Polynomial> trimmed(coeffs.begin(),
                                  coeffs.begin() + effective_degree + 1);
  Polynomial effective = Polynomial::FromCoefficientsIn(y_var, trimmed);

  // Candidate roots: real roots of the iterated resultant.
  CCDB_ASSIGN_OR_RETURN(Polynomial r,
                        EliminateCoords(effective, y_var, gov));
  if (r.is_zero()) {
    return Status::NumericalFailure(
        "degenerate lifting: candidate resultant vanished identically");
  }
  auto r_upoly = UPoly::FromPolynomial(r, y_var);
  CCDB_CHECK(r_upoly.ok());
  CCDB_ASSIGN_OR_RETURN(std::vector<AlgebraicNumber> candidates,
                        AlgebraicNumber::RootsOf(*r_upoly, gov));

  // Keep exactly the candidates where p(point, candidate) == 0, tested
  // exactly via the extended point.
  std::vector<AlgebraicNumber> roots;
  for (AlgebraicNumber& candidate : candidates) {
    CCDB_CHECK_BUDGET(gov, "cad.stack");
    AlgebraicPoint extended = Extended(candidate);
    if (extended.SignAt(effective) == 0) {
      roots.push_back(std::move(candidate));
    }
  }
  return roots;
}

std::vector<Rational> AlgebraicPoint::Approximate(
    const Rational& epsilon) const {
  std::vector<Rational> out;
  out.reserve(coords_.size());
  for (const AlgebraicNumber& c : coords_) {
    out.push_back(c.Approximate(epsilon));
  }
  return out;
}

std::string AlgebraicPoint::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) out += ", ";
    out += coords_[i].ToString();
  }
  return out + ")";
}

}  // namespace ccdb
