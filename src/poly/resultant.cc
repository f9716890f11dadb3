#include "poly/resultant.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "base/memo.h"

namespace ccdb {

namespace {

// Leading term (in the global lex term order) of a nonzero polynomial.
std::pair<Monomial, Rational> LeadingTerm(const Polynomial& p) {
  CCDB_DCHECK(!p.is_zero());
  auto it = p.terms().rbegin();
  return {it->first, it->second};
}

// Passes budget trips through; any other error from an exact division in
// the PRS machinery is a broken invariant, not an input condition.
StatusOr<Polynomial> ExactOrDie(StatusOr<Polynomial> divided,
                                const char* what) {
  if (!divided.ok() &&
      divided.status().code() != StatusCode::kResourceExhausted) {
    CCDB_CHECK_MSG(false, what);
  }
  return divided;
}

}  // namespace

StatusOr<Polynomial> DivideExactMv(const Polynomial& a, const Polynomial& b,
                                   const ResourceGovernor* gov) {
  CCDB_CHECK_MSG(!b.is_zero(), "multivariate division by zero");
  if (a.is_zero()) return Polynomial();
  Polynomial remainder = a;
  Polynomial quotient;
  auto [lead_b_mono, lead_b_coeff] = LeadingTerm(b);
  while (!remainder.is_zero()) {
    CCDB_CHECK_BUDGET(gov, "poly.divide");
    auto [lead_r_mono, lead_r_coeff] = LeadingTerm(remainder);
    auto mono = lead_r_mono.Divide(lead_b_mono);
    if (!mono.ok()) {
      return Status::InvalidArgument("inexact multivariate division");
    }
    Polynomial term =
        Polynomial::Term(lead_r_coeff / lead_b_coeff, *mono);
    quotient += term;
    remainder -= term * b;
  }
  return quotient;
}

namespace {

// Governed pseudo-remainder core; the public PseudoRem wraps it with a null
// governor (which can never trip).
StatusOr<Polynomial> PseudoRemGoverned(const Polynomial& a,
                                       const Polynomial& b, int var,
                                       const ResourceGovernor* gov) {
  std::uint32_t deg_b = b.DegreeIn(var);
  CCDB_CHECK_MSG(!b.is_zero(), "pseudo-remainder by zero");
  Polynomial lc_b = b.LeadingCoefficientIn(var);
  Polynomial r = a;
  std::uint32_t deg_a = a.DegreeIn(var);
  if (a.is_zero() || deg_a < deg_b) {
    return r;  // prem(a, b) = lc^{0} * a
  }
  std::int64_t steps_budget =
      static_cast<std::int64_t>(deg_a) - static_cast<std::int64_t>(deg_b) + 1;
  std::int64_t steps = 0;
  while (!r.is_zero() && r.DegreeIn(var) >= deg_b) {
    CCDB_CHECK_BUDGET(gov, "poly.prs");
    std::uint32_t deg_r = r.DegreeIn(var);
    Polynomial lc_r = r.LeadingCoefficientIn(var);
    Polynomial shift =
        Polynomial::Term(Rational(1), Monomial::Var(var, deg_r - deg_b));
    r = lc_b * r - lc_r * shift * b;
    ++steps;
  }
  // Scale so the result equals lc_b^{deg_a - deg_b + 1} * a mod b exactly.
  for (; steps < steps_budget; ++steps) {
    CCDB_CHECK_BUDGET(gov, "poly.prs");
    r *= lc_b;
  }
  return r;
}

}  // namespace

Polynomial PseudoRem(const Polynomial& a, const Polynomial& b, int var) {
  auto r = PseudoRemGoverned(a, b, var, nullptr);
  CCDB_CHECK(r.ok());
  return *std::move(r);
}

namespace {

// Subresultant PRS core (Cohen, "A Course in Computational Algebraic Number
// Theory", algorithms 3.3.1/3.3.7). Returns the resultant of a and b with
// respect to `var`; both must be nonzero with deg_var(a) >= deg_var(b) >= 0.
// The PRS iterations are where the coefficient swell happens, so each one
// charges the governor (steps, plus the bytes of the new remainder).
StatusOr<Polynomial> ResultantOrdered(Polynomial a, Polynomial b, int var,
                                      const ResourceGovernor* gov) {
  std::uint32_t deg_a = a.DegreeIn(var);
  std::uint32_t deg_b = b.DegreeIn(var);
  CCDB_DCHECK(deg_a >= deg_b);
  if (deg_b == 0) {
    // res(a, const-in-var) = b^{deg_a}.
    return b.Pow(deg_a);
  }
  int sign = 1;
  Polynomial g(Rational(1));
  Polynomial h(Rational(1));
  while (true) {
    CCDB_CHECK_BUDGET(gov, "poly.prs");
    deg_a = a.DegreeIn(var);
    deg_b = b.DegreeIn(var);
    std::uint32_t delta = deg_a - deg_b;
    if ((deg_a % 2 == 1) && (deg_b % 2 == 1)) sign = -sign;
    CCDB_ASSIGN_OR_RETURN(Polynomial r, PseudoRemGoverned(a, b, var, gov));
    if (gov != nullptr) gov->ChargeBytes(r.EstimateBytes());
    a = b;
    // b = r / (g * h^delta), exact by the subresultant theorem.
    Polynomial divisor = g * h.Pow(delta);
    if (r.is_zero()) {
      // Common factor of positive degree: resultant is zero.
      return Polynomial();
    }
    CCDB_ASSIGN_OR_RETURN(
        b, ExactOrDie(DivideExactMv(r, divisor, gov),
                      "subresultant PRS division not exact"));
    g = a.LeadingCoefficientIn(var);
    // h = g^delta * h^{1-delta} (exact division when delta > 1).
    if (delta == 0) {
      // h unchanged.
    } else if (delta == 1) {
      h = g;
    } else {
      CCDB_ASSIGN_OR_RETURN(
          h, ExactOrDie(DivideExactMv(g.Pow(delta), h.Pow(delta - 1), gov),
                        "subresultant h-update division not exact"));
    }
    if (b.DegreeIn(var) == 0) break;
  }
  // Tail: res = sign * lc(b)^{deg_var(a)} / h^{deg_var(a) - 1}.
  std::uint32_t final_deg_a = a.DegreeIn(var);
  Polynomial numerator = b.Pow(final_deg_a);
  Polynomial result;
  if (final_deg_a == 0) {
    result = Polynomial(Rational(1));
  } else {
    CCDB_ASSIGN_OR_RETURN(
        result,
        ExactOrDie(DivideExactMv(numerator, h.Pow(final_deg_a - 1), gov),
                   "subresultant tail division not exact"));
  }
  return sign < 0 ? -result : result;
}

// Memo table for the expensive PRS-backed operations (resultant,
// discriminant, gcd). Keys hold the operand polynomials themselves —
// structural equality is pointer-fast for interned operands and exact
// otherwise — so a hash collision can never return a wrong result. The
// operations are pure, so entries never need invalidation; lookups are
// skipped under an armed governor (see base/memo.h) but successful
// results are inserted either way.
enum PolyOpKind { kOpResultant = 0, kOpDiscriminant = 1, kOpGcd = 2 };

struct PolyOpKey {
  Polynomial a;
  Polynomial b;
  int var = -1;
  int kind = kOpResultant;

  bool operator==(const PolyOpKey& other) const {
    return kind == other.kind && var == other.var && a == other.a &&
           b == other.b;
  }
};

struct PolyOpKeyHash {
  std::size_t operator()(const PolyOpKey& key) const {
    std::size_t h = 1469598103934665603ull;
    h = h * 1099511628211ull + key.a.Hash();
    h = h * 1099511628211ull + key.b.Hash();
    h = h * 1099511628211ull + static_cast<std::size_t>(key.var);
    h = h * 1099511628211ull + static_cast<std::size_t>(key.kind);
    return h;
  }
};

ShardedMemoCache<PolyOpKey, Polynomial, PolyOpKeyHash>& PolyOpCache() {
  static auto* cache = new ShardedMemoCache<PolyOpKey, Polynomial, PolyOpKeyHash>(
      "resultant_cache", 8192);
  return *cache;
}

StatusOr<Polynomial> ResultantUncached(const Polynomial& a,
                                       const Polynomial& b, int var,
                                       const ResourceGovernor* gov) {
  if (a.is_zero() || b.is_zero()) return Polynomial();
  std::uint32_t deg_a = a.DegreeIn(var);
  std::uint32_t deg_b = b.DegreeIn(var);
  if (deg_a == 0 && deg_b == 0) return Polynomial(Rational(1));
  if (deg_a >= deg_b) return ResultantOrdered(a, b, var, gov);
  CCDB_ASSIGN_OR_RETURN(Polynomial swapped, ResultantOrdered(b, a, var, gov));
  // res(a,b) = (-1)^{deg_a * deg_b} res(b,a).
  if ((static_cast<std::uint64_t>(deg_a) * deg_b) % 2 == 1) {
    return -swapped;
  }
  return swapped;
}

}  // namespace

StatusOr<Polynomial> Resultant(const Polynomial& a, const Polynomial& b,
                               int var, const ResourceGovernor* gov) {
  if (!MemoCachesEnabled()) return ResultantUncached(a, b, var, gov);
  PolyOpKey key{a, b, var, kOpResultant};
  Polynomial cached;
  if (gov == nullptr && PolyOpCache().Lookup(key, &cached)) return cached;
  CCDB_ASSIGN_OR_RETURN(Polynomial result,
                        ResultantUncached(a, b, var, gov));
  PolyOpCache().Insert(std::move(key), result);
  return result;
}

Polynomial Resultant(const Polynomial& a, const Polynomial& b, int var) {
  auto result = Resultant(a, b, var, nullptr);
  CCDB_CHECK(result.ok());
  return *std::move(result);
}

namespace {

StatusOr<Polynomial> DiscriminantUncached(const Polynomial& p, int var,
                                          const ResourceGovernor* gov) {
  std::uint32_t d = p.DegreeIn(var);
  CCDB_CHECK_MSG(d >= 1, "discriminant requires positive degree");
  CCDB_ASSIGN_OR_RETURN(Polynomial res,
                        Resultant(p, p.Derivative(var), var, gov));
  Polynomial lc = p.LeadingCoefficientIn(var);
  CCDB_ASSIGN_OR_RETURN(Polynomial result,
                        ExactOrDie(DivideExactMv(res, lc, gov),
                                   "discriminant division not exact"));
  // Sign (-1)^{d(d-1)/2}.
  if ((static_cast<std::uint64_t>(d) * (d - 1) / 2) % 2 == 1) {
    return -result;
  }
  return result;
}

}  // namespace

StatusOr<Polynomial> Discriminant(const Polynomial& p, int var,
                                  const ResourceGovernor* gov) {
  if (!MemoCachesEnabled()) return DiscriminantUncached(p, var, gov);
  PolyOpKey key{p, Polynomial(), var, kOpDiscriminant};
  Polynomial cached;
  if (gov == nullptr && PolyOpCache().Lookup(key, &cached)) return cached;
  CCDB_ASSIGN_OR_RETURN(Polynomial result,
                        DiscriminantUncached(p, var, gov));
  PolyOpCache().Insert(std::move(key), result);
  return result;
}

Polynomial Discriminant(const Polynomial& p, int var) {
  auto result = Discriminant(p, var, nullptr);
  CCDB_CHECK(result.ok());
  return *std::move(result);
}

namespace {

StatusOr<Polynomial> ContentInGoverned(const Polynomial& p, int var,
                                       const ResourceGovernor* gov) {
  if (p.is_zero()) return Polynomial();
  Polynomial content;
  for (const Polynomial& coeff : p.CoefficientsIn(var)) {
    CCDB_CHECK_BUDGET(gov, "poly.gcd");
    if (coeff.is_zero()) continue;
    CCDB_ASSIGN_OR_RETURN(content, MvGcd(content, coeff, gov));
    // Stop only at a unit: for univariate inputs the content is a
    // CONSTANT rational gcd that must keep accumulating (it is what keeps
    // the pseudo-remainder sequences primitive).
    if (content.is_constant() && content.constant_value() == Rational(1)) {
      break;
    }
  }
  return content;
}

StatusOr<Polynomial> PrimitivePartInGoverned(const Polynomial& p, int var,
                                             const ResourceGovernor* gov) {
  if (p.is_zero()) return Polynomial();
  CCDB_ASSIGN_OR_RETURN(Polynomial content,
                        ContentInGoverned(p, var, gov));
  return ExactOrDie(DivideExactMv(p, content, gov),
                    "content division not exact");
}

}  // namespace

Polynomial ContentIn(const Polynomial& p, int var) {
  auto content = ContentInGoverned(p, var, nullptr);
  CCDB_CHECK(content.ok());
  return *std::move(content);
}

Polynomial PrimitivePartIn(const Polynomial& p, int var) {
  auto pp = PrimitivePartInGoverned(p, var, nullptr);
  CCDB_CHECK(pp.ok());
  return *std::move(pp);
}

namespace {

// gcd(0, p): |p| for constants (content semantics), the primitive
// normalization otherwise (gcd is defined up to units of Q[x]).
Polynomial GcdWithZero(const Polynomial& p) {
  if (p.is_constant()) return Polynomial(p.constant_value().Abs());
  return p.IntegerNormalized();
}

// The gcd algorithm proper; the public MvGcd wraps it with the memo table.
// Internal recursion goes through the public entry so shared subproblems
// (contents, primitive parts) memoize too.
StatusOr<Polynomial> MvGcdUncached(const Polynomial& a, const Polynomial& b,
                                   const ResourceGovernor* gov) {
  CCDB_CHECK_BUDGET(gov, "poly.gcd");
  if (a.is_zero()) return b.is_zero() ? Polynomial() : GcdWithZero(b);
  if (b.is_zero()) return GcdWithZero(a);
  if (a.is_constant() && b.is_constant()) {
    // Rational gcd — the base case that makes ContentIn effective (it is
    // what keeps the pseudo-remainder sequences primitive; returning 1
    // here would make content removal a no-op and the PRS coefficients
    // blow up exponentially with the degree).
    const Rational& x = a.constant_value();
    const Rational& y = b.constant_value();
    BigInt num = BigInt::Gcd(x.numerator() * y.denominator(),
                             y.numerator() * x.denominator());
    return Polynomial(Rational(num, x.denominator() * y.denominator()));
  }
  if (a.is_constant() || b.is_constant()) {
    const Polynomial& constant = a.is_constant() ? a : b;
    const Polynomial& poly = a.is_constant() ? b : a;
    // gcd(c, p) = gcd(c, content of p in every variable) — reduce through
    // the full content.
    Polynomial content = poly;
    while (!content.is_constant()) {
      CCDB_CHECK_BUDGET(gov, "poly.gcd");
      CCDB_ASSIGN_OR_RETURN(
          content, ContentInGoverned(content, content.max_var(), gov));
    }
    return MvGcd(constant, content, gov);
  }
  int var = std::max(a.max_var(), b.max_var());
  bool a_has = a.Mentions(var);
  bool b_has = b.Mentions(var);
  if (!a_has && !b_has) {
    // Should not happen given max_var, but stay safe.
    return Polynomial(Rational(1));
  }
  if (!a_has) {
    // gcd(a, b) divides a (free of var) hence divides content_var(b).
    CCDB_ASSIGN_OR_RETURN(Polynomial content,
                          ContentInGoverned(b, var, gov));
    return MvGcd(a, content, gov);
  }
  if (!b_has) {
    CCDB_ASSIGN_OR_RETURN(Polynomial content,
                          ContentInGoverned(a, var, gov));
    return MvGcd(b, content, gov);
  }
  CCDB_ASSIGN_OR_RETURN(Polynomial content_a,
                        ContentInGoverned(a, var, gov));
  CCDB_ASSIGN_OR_RETURN(Polynomial content_b,
                        ContentInGoverned(b, var, gov));
  CCDB_ASSIGN_OR_RETURN(Polynomial pp_a,
                        PrimitivePartInGoverned(a, var, gov));
  CCDB_ASSIGN_OR_RETURN(Polynomial pp_b,
                        PrimitivePartInGoverned(b, var, gov));
  // Primitive PRS on the primitive parts.
  if (pp_a.DegreeIn(var) < pp_b.DegreeIn(var)) std::swap(pp_a, pp_b);
  while (!pp_b.is_zero()) {
    CCDB_CHECK_BUDGET(gov, "poly.gcd");
    CCDB_ASSIGN_OR_RETURN(Polynomial r,
                          PseudoRemGoverned(pp_a, pp_b, var, gov));
    if (gov != nullptr) gov->ChargeBytes(r.EstimateBytes());
    pp_a = std::move(pp_b);
    if (r.is_zero()) {
      pp_b = Polynomial();
    } else {
      CCDB_ASSIGN_OR_RETURN(pp_b, PrimitivePartInGoverned(r, var, gov));
    }
  }
  Polynomial gcd_pp =
      pp_a.DegreeIn(var) == 0 ? Polynomial(Rational(1)) : pp_a;
  CCDB_ASSIGN_OR_RETURN(Polynomial content_gcd,
                        MvGcd(content_a, content_b, gov));
  Polynomial result = content_gcd * gcd_pp;
  return result.IntegerNormalized();
}

}  // namespace

StatusOr<Polynomial> MvGcd(const Polynomial& a, const Polynomial& b,
                           const ResourceGovernor* gov) {
  if (!MemoCachesEnabled()) return MvGcdUncached(a, b, gov);
  // gcd is symmetric: order the operands so (a,b) and (b,a) share an entry.
  PolyOpKey key = b < a ? PolyOpKey{b, a, -1, kOpGcd}
                        : PolyOpKey{a, b, -1, kOpGcd};
  Polynomial cached;
  if (gov == nullptr && PolyOpCache().Lookup(key, &cached)) return cached;
  CCDB_ASSIGN_OR_RETURN(Polynomial result, MvGcdUncached(a, b, gov));
  PolyOpCache().Insert(std::move(key), result);
  return result;
}

Polynomial MvGcd(const Polynomial& a, const Polynomial& b) {
  auto result = MvGcd(a, b, nullptr);
  CCDB_CHECK(result.ok());
  return *std::move(result);
}

namespace {

StatusOr<Polynomial> SquarefreePartInGoverned(const Polynomial& p, int var,
                                              const ResourceGovernor* gov) {
  if (p.is_zero()) return Polynomial();
  if (p.DegreeIn(var) == 0) return p.IntegerNormalized();
  CCDB_ASSIGN_OR_RETURN(Polynomial g,
                        MvGcd(p, p.Derivative(var), gov));
  if (g.is_constant()) return p.IntegerNormalized();
  auto divided = DivideExactMv(p, g, gov);
  if (!divided.ok()) {
    if (divided.status().code() == StatusCode::kResourceExhausted) {
      return divided.status();
    }
    // MvGcd is normalized up to a rational unit; retry against the exact
    // (non-normalized) gcd scale by dividing the product form.
    // gcd divides p over Q, so scaling g to match p's content fixes it.
    CCDB_ASSIGN_OR_RETURN(
        Polynomial retry,
        ExactOrDie(DivideExactMv(p.IntegerNormalized(), g, gov),
                   "squarefree division not exact"));
    return retry.IntegerNormalized();
  }
  return divided->IntegerNormalized();
}

}  // namespace

Polynomial SquarefreePartIn(const Polynomial& p, int var) {
  auto result = SquarefreePartInGoverned(p, var, nullptr);
  CCDB_CHECK(result.ok());
  return *std::move(result);
}

StatusOr<std::vector<Polynomial>> SquarefreeBasis(
    const std::vector<Polynomial>& polys, const ResourceGovernor* gov) {
  std::vector<Polynomial> basis;
  auto push_unique = [&basis](const Polynomial& p) {
    if (p.is_constant()) return;
    Polynomial normalized = p.IntegerNormalized();
    for (const Polynomial& existing : basis) {
      if (existing == normalized) return;
    }
    basis.push_back(std::move(normalized));
  };
  for (const Polynomial& p : polys) {
    CCDB_CHECK_BUDGET(gov, "poly.gcd");
    if (p.is_constant()) continue;
    CCDB_ASSIGN_OR_RETURN(Polynomial part,
                          SquarefreePartInGoverned(p, p.max_var(), gov));
    push_unique(part);
  }
  // Refine until pairwise coprime.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < basis.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < basis.size() && !changed; ++j) {
        CCDB_CHECK_BUDGET(gov, "poly.gcd");
        CCDB_ASSIGN_OR_RETURN(Polynomial g,
                              MvGcd(basis[i], basis[j], gov));
        if (g.is_constant()) continue;
        CCDB_ASSIGN_OR_RETURN(
            Polynomial pi, ExactOrDie(DivideExactMv(basis[i], g, gov),
                                      "basis refinement division failed"));
        CCDB_ASSIGN_OR_RETURN(
            Polynomial pj, ExactOrDie(DivideExactMv(basis[j], g, gov),
                                      "basis refinement division failed"));
        std::vector<Polynomial> next;
        for (std::size_t t = 0; t < basis.size(); ++t) {
          if (t != i && t != j) next.push_back(basis[t]);
        }
        basis = std::move(next);
        push_unique(pi);
        push_unique(pj);
        push_unique(g);
        changed = true;
      }
    }
  }
  std::sort(basis.begin(), basis.end());
  return basis;
}

std::vector<Polynomial> SquarefreeBasis(const std::vector<Polynomial>& polys) {
  auto basis = SquarefreeBasis(polys, nullptr);
  CCDB_CHECK(basis.ok());
  return *std::move(basis);
}

}  // namespace ccdb
