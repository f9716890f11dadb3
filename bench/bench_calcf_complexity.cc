// Experiment E10 — Theorem 5.5 / Corollary 5.6: every CALC_F query is
// evaluated in PTIME data complexity with polynomially many k-order
// approximation calls and aggregate module calls.
//
// The harness grows the database (tuples of a region relation) under a
// fixed CALC_F query mixing an aggregate and an analytic function, and
// reports time plus the two module-call counters the theorem bounds.

#include "bench_util.h"
#include "engine/database.h"

using namespace ccdb;

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E10: CALC_F evaluation is PTIME with polynomially many module calls "
      "(Theorem 5.5, Corollary 5.6)",
      "time, approximation calls, and aggregate calls grow polynomially "
      "with the database size");

  ccdb_bench::Row("aggregate query: LENGTH[t](exists v (Bond(t, v)))(len) "
                  "over a piecewise relation with n pieces");
  ccdb_bench::Row("%-8s %10s %12s %12s %12s", "n", "agg calls",
                  "approx calls", "time [ms]", "ratio");
  double previous = 0.0;
  for (int n : {2, 4, 8, 16, 32}) {
    // Piecewise constant "price path" with n pieces on [0, n].
    std::string def = "Bond(t, v) := ";
    for (int i = 0; i < n; ++i) {
      if (i > 0) def += " or ";
      def += "(" + std::to_string(i) + " <= t and t <= " +
             std::to_string(i + 1) + " and v = " + std::to_string(100 + i) +
             ")";
    }
    ConstraintDatabase db(ccdb_bench::DbOptions());
    CCDB_CHECK(db.Define(def).ok());
    StatusOr<CalcFResult> result = Status::Internal("unset");
    double elapsed = ccdb_bench::TimeSeconds([&] {
      result = db.Query("LENGTH[t](exists v (Bond(t, v)))(len)");
    });
    CCDB_CHECK_MSG(result.ok(), result.status().ToString());
    ccdb_bench::Row("%-8d %10llu %12llu %12.2f %12.2f", n,
                    static_cast<unsigned long long>(
                        result->stats.aggregate_calls),
                    static_cast<unsigned long long>(
                        result->stats.approximation_calls),
                    elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
    // Sanity: length equals n exactly.
    CCDB_CHECK(result->scalar.exact_value ==
               Rational(static_cast<std::int64_t>(n)));
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("analytic-function query: exists x (P(x) and y = exp(x)) "
                  "over a point relation with n points");
  ccdb_bench::Row("%-8s %12s %12s %12s", "n", "approx calls", "time [ms]",
                  "ratio");
  previous = 0.0;
  for (int n : {1, 2, 4, 8}) {
    std::string def = "P(x) := ";
    for (int i = 0; i < n; ++i) {
      if (i > 0) def += " or ";
      def += "x = " + std::to_string(i);
    }
    CalcFOptions options = ccdb_bench::DbOptions();
    options.approx_order = 6;
    options.abase = ABase::Uniform(Rational(-1), Rational(9), 10);
    ConstraintDatabase db(options);
    CCDB_CHECK(db.Define(def).ok());
    StatusOr<CalcFResult> result = Status::Internal("unset");
    double elapsed = ccdb_bench::TimeSeconds([&] {
      result = db.Query("exists x (P(x) and y = exp(x))");
    });
    CCDB_CHECK_MSG(result.ok(), result.status().ToString());
    ccdb_bench::Row("%-8d %12llu %12.2f %12.2f", n,
                    static_cast<unsigned long long>(
                        result->stats.approximation_calls),
                    elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }
  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: aggregate calls stay at 1 per aggregate predicate; "
      "approximation calls are one per (function, a-base piece) — both "
      "polynomial (here: constant / linear), matching Theorem 5.5");
  return 0;
}
