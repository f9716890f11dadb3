#ifndef CCDB_POLY_ROOT_ISOLATION_H_
#define CCDB_POLY_ROOT_ISOLATION_H_

#include <vector>

#include "arith/interval.h"
#include "base/resource.h"
#include "base/status.h"
#include "poly/upoly.h"

namespace ccdb {

/// An isolating interval for one real root of a squarefree polynomial:
/// either a point (the root is rational and equals lo == hi) or an open
/// interval (lo, hi) containing exactly one root, with the polynomial
/// nonzero at both endpoints.
struct IsolatedRoot {
  Interval interval;
  bool is_exact = false;  // true when interval is the point root itself
};

/// Isolates all distinct real roots of `p` (any nonzero polynomial; the
/// squarefree part is taken internally), returned in increasing order.
/// This is the base phase of the CAD algorithm ("all the roots are
/// identified [CL82]", paper Appendix I) and the heart of the paper's
/// NUMERICAL EVALUATION step. Charges `gov` per Sturm bisection segment
/// and fails with kResourceExhausted when the budget trips (stage
/// "poly.isolate"); a null governor never trips.
StatusOr<std::vector<IsolatedRoot>> IsolateRealRoots(
    const UPoly& p, const ResourceGovernor* gov = nullptr);

/// IsolateRealRoots for a caller that already holds a squarefree nonzero
/// `f` (e.g. AlgebraicNumber::RootsOf): skips the squarefree-part gcd.
/// Given f = p.SquarefreePart() it returns exactly IsolateRealRoots(p).
StatusOr<std::vector<IsolatedRoot>> IsolateSquarefreeRoots(
    const UPoly& f, const ResourceGovernor* gov);

/// Shrinks an isolating interval of squarefree `f` below `width` by
/// bisection, preserving the isolation invariant. No-op for exact roots.
/// `f` must be squarefree; pass the polynomial the root was isolated for
/// (its squarefree part), not a multiple with repeated factors.
IsolatedRoot RefineRoot(const UPoly& f, IsolatedRoot root,
                        const Rational& width);

}  // namespace ccdb

#endif  // CCDB_POLY_ROOT_ISOLATION_H_
