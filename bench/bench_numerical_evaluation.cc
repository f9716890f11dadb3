// Experiment E4 — Theorem 3.2: the NUMERICAL EVALUATION step (extracting
// eps-approximate solutions from quantifier-free output) is PTIME in the
// data: polynomial in the coefficient bit length l, the number of distinct
// polynomials m, and the degree d, for fixed arity and fixed eps.
//
// Sweeps each of the three parameters independently.

#include "bench_util.h"
#include "numeric/numerical_eval.h"
#include "poly/root_isolation.h"

using namespace ccdb;

namespace {

ConstraintRelation EquationRelation(const UPoly& p) {
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(p.ToPolynomial(0), RelOp::kEq);
  rel.AddTuple(std::move(tuple));
  return rel;
}

}  // namespace

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E4: NUMERICAL EVALUATION in PTIME (Theorem 3.2)",
      "eps-approximation of all solutions is polynomial in bit length, "
      "polynomial count, and degree");

  Rational eps(BigInt(1), BigInt::Pow2(30));

  ccdb_bench::Row("sweep 1: coefficient bit length l (degree 6, eps = 2^-30)");
  ccdb_bench::Row("%-8s %8s %12s %10s", "l bits", "roots", "time [ms]",
                  "ratio");
  double previous = 0.0;
  for (int bits : {4, 8, 16, 32}) {
    UPoly p = ccdb_bench::RandomUPoly(6, bits, 1000 + bits);
    std::size_t roots = 0;
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = ApproximateSolutions(EquationRelation(p), eps, nullptr,
                                         ccdb_bench::Pool());
      CCDB_CHECK(result.ok());
      roots = result->size();
    });
    ccdb_bench::Row("%-8d %8zu %12.3f %10.2f", bits, roots, elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("sweep 2: number of polynomials m (conjunction of point "
                  "sets, degree 4, 8-bit coefficients)");
  ccdb_bench::Row("%-8s %12s %10s", "m", "time [ms]", "ratio");
  previous = 0.0;
  for (int m : {1, 2, 4, 8, 16}) {
    ConstraintRelation rel(1);
    for (int i = 0; i < m; ++i) {
      GeneralizedTuple tuple;
      UPoly p = ccdb_bench::RandomUPoly(4, 8, 500 + i);
      tuple.atoms.emplace_back(p.ToPolynomial(0), RelOp::kEq);
      rel.AddTuple(std::move(tuple));
    }
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = ApproximateSolutions(rel, eps, nullptr, ccdb_bench::Pool());
      CCDB_CHECK(result.ok());
    });
    ccdb_bench::Row("%-8d %12.3f %10.2f", m, elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("sweep 3: degree d (8-bit coefficients)");
  ccdb_bench::Row("%-8s %8s %12s %10s", "d", "roots", "time [ms]", "ratio");
  previous = 0.0;
  for (int degree : {2, 4, 8, 12, 16}) {
    UPoly p = ccdb_bench::RandomUPoly(degree, 8, 2000 + degree);
    std::size_t roots = 0;
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = ApproximateSolutions(EquationRelation(p), eps, nullptr,
                                         ccdb_bench::Pool());
      CCDB_CHECK(result.ok());
      roots = result->size();
    });
    ccdb_bench::Row("%-8d %8zu %12.3f %10.2f", degree, roots, elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("sweep 4: precision eps = 2^-b (fixed degree-6 input) — "
                  "paper: complexity polynomial in log(1/eps)");
  ccdb_bench::Row("%-8s %12s %10s", "b", "time [ms]", "ratio");
  previous = 0.0;
  UPoly fixed = ccdb_bench::RandomUPoly(6, 8, 77);
  for (int b : {10, 20, 40, 80, 160}) {
    Rational fine_eps(BigInt(1), BigInt::Pow2(b));
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = ApproximateSolutions(EquationRelation(fixed), fine_eps,
                                         nullptr, ccdb_bench::Pool());
      CCDB_CHECK(result.ok());
    });
    ccdb_bench::Row("%-8d %12.3f %10.2f", b, elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }
  ccdb_bench::Row("");
  ccdb_bench::Row("expected shape: all four sweeps polynomial (bounded "
                  "ratios); doubling precision roughly doubles work");
  return 0;
}
