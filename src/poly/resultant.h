#ifndef CCDB_POLY_RESULTANT_H_
#define CCDB_POLY_RESULTANT_H_

#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "poly/polynomial.h"

namespace ccdb {

/// Subresultant-PRS based polynomial algebra on multivariate polynomials
/// viewed as univariate in a chosen "main" variable. These are the
/// primitives behind the PROJ operator of the CAD algorithm (paper,
/// Appendix I: "polynomials of PROJ(P_i) are formed by addition,
/// subtraction, and multiplication of the coefficients … with the technique
/// of subresultants").
///
/// The coefficient swell of these pseudo-remainder sequences is where the
/// doubly-exponential CAD cost concentrates, so every PRS / gcd /
/// refinement loop below accepts a nullable `const ResourceGovernor*` and
/// charges it at its loop head ("poly.prs", "poly.gcd", "poly.divide");
/// the governed overloads return kResourceExhausted when a budget trips.
/// Resultants, discriminants and gcds are memoized (base/memo.h); only
/// ungoverned calls read the memo. The Polynomial-returning forms are
/// ungoverned conveniences.

/// Exact multivariate division; kInvalidArgument when b does not divide a.
StatusOr<Polynomial> DivideExactMv(const Polynomial& a, const Polynomial& b,
                                   const ResourceGovernor* gov = nullptr);

/// Pseudo-remainder of a by b with respect to variable `var`:
/// lc_var(b)^(deg_a - deg_b + 1) * a = q*b + prem. Requires
/// deg_var(b) >= 1 or b constant nonzero, and deg_var(a) >= deg_var(b).
Polynomial PseudoRem(const Polynomial& a, const Polynomial& b, int var);

/// Resultant of a and b with respect to `var` (a polynomial in the other
/// variables). Zero iff a and b share a common factor with positive degree
/// in `var` (over the fraction field).
Polynomial Resultant(const Polynomial& a, const Polynomial& b, int var);
StatusOr<Polynomial> Resultant(const Polynomial& a, const Polynomial& b,
                               int var, const ResourceGovernor* gov);

/// Discriminant of p with respect to `var`:
/// (-1)^{d(d-1)/2} res_var(p, dp/dvar) / lc_var(p). Requires
/// deg_var(p) >= 1.
Polynomial Discriminant(const Polynomial& p, int var);
StatusOr<Polynomial> Discriminant(const Polynomial& p, int var,
                                  const ResourceGovernor* gov);

/// Content of p with respect to `var`: gcd (up to units, normalized) of the
/// coefficients of p viewed as univariate in `var`.
Polynomial ContentIn(const Polynomial& p, int var);

/// p divided by its content in `var` (primitive part).
Polynomial PrimitivePartIn(const Polynomial& p, int var);

/// Gcd of multivariate polynomials over Q, normalized to primitive integer
/// coefficients with positive leading coefficient; MvGcd(0,0) == 0 and
/// the gcd of coprime polynomials is 1.
Polynomial MvGcd(const Polynomial& a, const Polynomial& b);
StatusOr<Polynomial> MvGcd(const Polynomial& a, const Polynomial& b,
                           const ResourceGovernor* gov);

/// Squarefree part of p with respect to `var`: p / gcd(p, dp/dvar),
/// normalized.
Polynomial SquarefreePartIn(const Polynomial& p, int var);

/// A finest squarefree basis for the set: the returned polynomials are
/// normalized, non-constant, squarefree in their own highest variable and
/// pairwise coprime, and every input polynomial is (up to a constant) a
/// product of powers of basis elements. This is the preconditioning step of
/// CAD projection — pairwise resultants and discriminants of basis
/// elements are then guaranteed nonzero.
std::vector<Polynomial> SquarefreeBasis(const std::vector<Polynomial>& polys);
StatusOr<std::vector<Polynomial>> SquarefreeBasis(
    const std::vector<Polynomial>& polys, const ResourceGovernor* gov);

}  // namespace ccdb

#endif  // CCDB_POLY_RESULTANT_H_
