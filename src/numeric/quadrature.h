#ifndef CCDB_NUMERIC_QUADRATURE_H_
#define CCDB_NUMERIC_QUADRATURE_H_

#include <functional>
#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "poly/upoly.h"

namespace ccdb {

/// The n-point Gauss–Legendre rule on [-1, 1]: increasing nodes and their
/// weights. Exact for polynomials of degree at most 2n − 1.
struct GaussLegendreRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};
GaussLegendreRule GaussLegendre(int n);

/// ∫_a^b f(x) dx for b − a = `width` by the n-point Gauss–Legendre rule in
/// θ ∈ [0, π] after x = a + (b − a)s, s = (1 − cos θ)/2: an integrand like
/// √(x − a) at an end becomes smooth in θ. `f` gets each node's s ∈ (0, 1)
/// and forms x itself; its first error is returned. Passes failpoint
/// "numeric.quadrature" once and charges `gov` there once per node.
StatusOr<double> CosineGaussLegendre(
    const std::function<StatusOr<double>(double s)>& f, double width, int n,
    const ResourceGovernor* gov);

/// Exact antiderivative of a univariate polynomial (constant term 0).
UPoly AntiDerivative(const UPoly& p);

}  // namespace ccdb

#endif  // CCDB_NUMERIC_QUADRATURE_H_
