// Experiment E6 — Theorem 4.2 / Lemma 4.4 (linear case): over linear
// constraints, "all the integers obtained during the computation of a
// linear query have a bit length linearly bounded by the bit length of the
// coefficients of the input database": max_bits <= c * k with a constant c
// depending only on the query.
//
// The harness sweeps the input bit length over two fixed linear queries
// and prints the growth factor max_bits / input_bits, which must stay
// bounded by a constant (compare E5 where multiplication breaks this).

#include "bench_util.h"
#include "fp/fp_semantics.h"

using namespace ccdb;

namespace {

Formula ProjectionQuery(const ConstraintRelation& data) {
  Formula query = Formula::Exists(1, Formula::Relation("R", {0, 1}));
  auto lookup = [&data](const std::string&) -> StatusOr<RelationBody> {
    return RelationBody(data);
  };
  return *query.InstantiateRelations(lookup);
}

Formula AlternationQuery(const ConstraintRelation& data) {
  // forall y (R(x,y) -> exists z (R(x,z) and z <= y)).
  Formula query = Formula::Forall(
      1,
      Formula::Or(Formula::Not(Formula::Relation("R", {0, 1})),
                  Formula::Exists(
                      2, Formula::And(Formula::Relation("R", {0, 2}),
                                      Formula::MakeAtom(Atom(
                                          Polynomial::Var(2) -
                                              Polynomial::Var(1),
                                          RelOp::kLe))))));
  auto lookup = [&data](const std::string&) -> StatusOr<RelationBody> {
    return RelationBody(data);
  };
  return *query.InstantiateRelations(lookup);
}

}  // namespace

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E6: linear queries have linear bit growth (Theorem 4.2, Lemma 4.4)",
      "max intermediate bit length <= c * input bit length, c "
      "query-dependent only");

  ccdb_bench::Row("query 1: exists y R(x, y)  (projection)");
  ccdb_bench::Row("%-10s %14s %14s %8s", "input bits", "pipeline bits",
                  "growth c", "defined");
  for (int bits : {4, 8, 12, 16, 20, 24, 28, 32}) {
    ConstraintRelation data =
        ccdb_bench::RandomLinearRelation(6, bits, 300 + bits);
    std::uint64_t input_bits = data.MaxCoefficientBitLength();
    FpQeStats stats;
    StatusOr<ConstraintRelation> result = Status::Internal("unreached");
    double seconds = ccdb_bench::TimeSeconds([&] {
      result = EliminateQuantifiersFp(ProjectionQuery(data), 1,
                                      FpContext{1u << 20}, &stats,
                                      ccdb_bench::Pool());
    });
    ccdb_bench::RecordCell("projection_b" + std::to_string(bits), seconds);
    ccdb_bench::Row("%-10llu %14llu %14.2f %8s",
                    static_cast<unsigned long long>(input_bits),
                    static_cast<unsigned long long>(stats.max_bits),
                    input_bits > 0
                        ? static_cast<double>(stats.max_bits) / input_bits
                        : 0.0,
                    result.ok() ? "yes" : "no");
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("query 2: forall y (R(x,y) -> exists z (R(x,z), z <= y))");
  ccdb_bench::Row("%-10s %14s %14s %8s", "input bits", "pipeline bits",
                  "growth c", "defined");
  for (int bits : {4, 8, 12, 16, 20}) {
    ConstraintRelation data = ccdb_bench::RandomLinearRelation(
        3, bits, 800 + bits, /*bounded=*/false);
    std::uint64_t input_bits = data.MaxCoefficientBitLength();
    FpQeStats stats;
    StatusOr<ConstraintRelation> result = Status::Internal("unreached");
    double seconds = ccdb_bench::TimeSeconds([&] {
      result = EliminateQuantifiersFp(AlternationQuery(data), 1,
                                      FpContext{1u << 20}, &stats,
                                      ccdb_bench::Pool());
    });
    ccdb_bench::RecordCell("alternation_b" + std::to_string(bits), seconds);
    ccdb_bench::Row("%-10llu %14llu %14.2f %8s",
                    static_cast<unsigned long long>(input_bits),
                    static_cast<unsigned long long>(stats.max_bits),
                    input_bits > 0
                        ? static_cast<double>(stats.max_bits) / input_bits
                        : 0.0,
                    result.ok() ? "yes" : "no");
  }
  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: the growth column approaches a constant per query "
      "as input bits grow (Theorem 4.2: total linear queries never go "
      "undefined once k exceeds c * input bits); contrast with E5");
  return 0;
}
