// Experiment E5 — Theorem 4.1: FO^R_QE is strictly more expressive than
// FO^F_QE, because the QE algorithm must manipulate integers polynomially
// larger than the input: under a fixed bit budget k, multiplicative
// queries whose inputs fit comfortably become UNDEFINED.
//
// The harness measures, for multiplication-heavy queries over inputs of
// bit length l, the bit length the pipeline actually materializes, and the
// fraction of random queries that are undefined at budget k = 2l (defined
// would mean no growth; Theorem 4.1 predicts undefined outcomes).

#include "bench_util.h"
#include "fp/fp_semantics.h"

using namespace ccdb;

namespace {

// exists y (y = a*x^2 + b and y^2 = c): squaring forces coefficient
// products of bit length ~2l.
Formula MultiplicativeQuery(std::int64_t a, std::int64_t b, std::int64_t c) {
  Polynomial x = Polynomial::Var(0);
  Polynomial y = Polynomial::Var(1);
  return Formula::Exists(
      1, Formula::And(
             Formula::MakeAtom(
                 Atom(y - Polynomial(a) * x.Pow(2) - Polynomial(b),
                      RelOp::kEq)),
             Formula::MakeAtom(
                 Atom(y.Pow(2) - Polynomial(c), RelOp::kEq))));
}

}  // namespace

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E5: finite precision is strictly weaker (Theorem 4.1)",
      "the QE algorithm needs integers polynomially larger than the input; "
      "multiplicative queries overflow Z_k for k proportional to the input");

  ccdb_bench::Row("%-8s %12s %14s %16s %16s", "l bits", "input max",
                  "pipeline bits", "defined @ k=l", "defined @ k=4l");
  std::mt19937_64 rng(99);
  for (int l : {4, 6, 8, 10, 12}) {
    std::int64_t bound = (1ll << l) - 1;
    std::uniform_int_distribution<std::int64_t> dist(bound / 2 + 1, bound);
    int defined_tight = 0, defined_loose = 0, trials = 5;
    std::uint64_t max_pipeline_bits = 0;
    for (int t = 0; t < trials; ++t) {
      Formula query =
          MultiplicativeQuery(dist(rng), dist(rng), dist(rng));
      FpQeStats stats;
      auto tight = EliminateQuantifiersFp(query, 1,
                                          FpContext{static_cast<uint32_t>(l)},
                                          &stats, ccdb_bench::Pool());
      if (tight.ok()) ++defined_tight;
      max_pipeline_bits = std::max(max_pipeline_bits, stats.max_bits);
      auto loose = EliminateQuantifiersFp(
          query, 1, FpContext{static_cast<uint32_t>(4 * l)}, &stats,
          ccdb_bench::Pool());
      if (loose.ok()) ++defined_loose;
    }
    ccdb_bench::Row("%-8d %12lld %14llu %13d/%d %13d/%d", l,
                    static_cast<long long>(bound),
                    static_cast<unsigned long long>(max_pipeline_bits),
                    defined_tight, trials, defined_loose, trials);
  }
  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: pipeline bits ~ 2-3x input bits (growth from "
      "products/resultants), so k = l is mostly undefined while k = 4l is "
      "defined — the separation engine of Theorem 4.1");
  return 0;
}
