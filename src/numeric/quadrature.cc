#include "numeric/quadrature.h"

#include <cmath>

#include "base/failpoint.h"
#include "base/logging.h"

namespace ccdb {

GaussLegendreRule GaussLegendre(int n) {
  CCDB_CHECK_MSG(n >= 1, "a Gauss–Legendre rule needs a node");
  GaussLegendreRule rule{std::vector<double>(n), std::vector<double>(n)};
  // Newton's method on P_n from the Chebyshev-like guess for the i-th
  // largest root; the roots are symmetric, so each pair is solved once.
  for (int i = 0; i < (n + 1) / 2; ++i) {
    double x = std::cos(M_PI * (i + 0.75) / (n + 0.5));
    double derivative = 1.0;
    for (int iteration = 0; iteration < 100; ++iteration) {
      // P_n(x) and P_{n-1}(x) by the three-term recurrence.
      double p = 1.0, previous = 0.0;
      for (int k = 1; k <= n; ++k) {
        double next = ((2 * k - 1) * x * p - (k - 1) * previous) / k;
        previous = p;
        p = next;
      }
      derivative = n * (x * p - previous) / (x * x - 1.0);
      double step = p / derivative;
      x -= step;
      if (std::abs(step) <= 1e-16) break;
    }
    double weight = 2.0 / ((1.0 - x * x) * derivative * derivative);
    rule.nodes[i] = -x;
    rule.nodes[n - 1 - i] = x;
    rule.weights[i] = rule.weights[n - 1 - i] = weight;
  }
  return rule;
}

StatusOr<double> CosineGaussLegendre(
    const std::function<StatusOr<double>(double s)>& f, double width, int n,
    const ResourceGovernor* gov) {
  CCDB_FAILPOINT("numeric.quadrature");
  GaussLegendreRule rule = GaussLegendre(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    CCDB_CHECK_BUDGET(gov, "numeric.quadrature");
    // θ = π(t + 1)/2 maps the rule onto [0, π]; ds = sin θ / 2 dθ.
    double theta = 0.5 * M_PI * (rule.nodes[i] + 1.0);
    CCDB_ASSIGN_OR_RETURN(double value, f(0.5 * (1.0 - std::cos(theta))));
    sum += rule.weights[i] * value * std::sin(theta);
  }
  double integral = width * 0.25 * M_PI * sum;
  if (!std::isfinite(integral)) {
    return Status::NumericalFailure("non-finite integral value");
  }
  return integral;
}

UPoly AntiDerivative(const UPoly& p) {
  if (p.is_zero()) return UPoly();
  std::vector<Rational> coeffs(p.coefficients().size() + 1, Rational(0));
  for (std::size_t i = 0; i < p.coefficients().size(); ++i) {
    coeffs[i + 1] =
        p.coefficients()[i] / Rational(static_cast<std::int64_t>(i + 1));
  }
  return UPoly(std::move(coeffs));
}

}  // namespace ccdb
