// Experiment E3 — Theorem 3.1 [KKR90]: first-order queries on constraint
// databases have PTIME data complexity.
//
// The harness grows the DATA (number of generalized tuples) while keeping
// the QUERY fixed, and reports evaluation time. PTIME data complexity
// predicts polynomial growth; the time ratio column should stay roughly
// bounded as n doubles (a super-polynomial blowup would show exploding
// ratios).

#include "bench_util.h"
#include "constraint/formula.h"
#include "qe/qe.h"

using namespace ccdb;

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E3: PTIME data complexity of FO queries (Theorem 3.1)",
      "evaluation time grows polynomially with the number of generalized "
      "tuples");

  // Fixed query: Q(x) = exists y R(x, y) — projection of a 2-ary linear
  // constraint relation.
  ccdb_bench::Row("%-10s %14s %14s %12s", "tuples n", "output tuples",
                  "time [ms]", "ratio vs n/2");
  QeOptions options;
  options.pool = ccdb_bench::Pool();
  double previous = 0.0;
  for (int n : {4, 8, 16, 32, 64, 128}) {
    ConstraintRelation data = ccdb_bench::RandomLinearRelation(n, 8, 42 + n);
    Formula query = Formula::Exists(1, Formula::Relation("R", {0, 1}));
    auto lookup = [&data](const std::string&) -> StatusOr<RelationBody> {
      return RelationBody(data);
    };
    Formula instantiated = *query.InstantiateRelations(lookup);
    ConstraintRelation output;
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = EliminateQuantifiers(instantiated, 1, options);
      CCDB_CHECK(result.ok());
      output = *result;
    });
    ccdb_bench::Row("%-10d %14zu %14.3f %12.2f", n, output.tuples().size(),
                    elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("Same sweep with a quantifier alternation "
                  "(forall y exists z):");
  ccdb_bench::Row("%-10s %14s %12s", "tuples n", "time [ms]", "ratio");
  previous = 0.0;
  for (int n : {2, 4, 8, 16, 32}) {
    ConstraintRelation data =
        ccdb_bench::RandomLinearRelation(n, 6, 7 + n, /*bounded=*/false);
    // Q(x) = forall y (R(x,y) -> exists z (R(x,z) and z >= y)).
    Formula query = Formula::Forall(
        1, Formula::Or(
               Formula::Not(Formula::Relation("R", {0, 1})),
               Formula::Exists(
                   2, Formula::And(
                          Formula::Relation("R", {0, 2}),
                          Formula::MakeAtom(Atom(
                              Polynomial::Var(1) - Polynomial::Var(2),
                              RelOp::kLe))))));
    auto lookup = [&data](const std::string&) -> StatusOr<RelationBody> {
      return RelationBody(data);
    };
    Formula instantiated = *query.InstantiateRelations(lookup);
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = EliminateQuantifiers(instantiated, 1, options);
      CCDB_CHECK(result.ok());
    });
    ccdb_bench::Row("%-10d %14.3f %12.2f", n, elapsed * 1e3,
                    previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }
  ccdb_bench::Row("");
  ccdb_bench::Row("expected shape: ratios bounded by a constant power of 2 "
                  "(polynomial scaling), no doubly-exponential blowup in n");
  return 0;
}
