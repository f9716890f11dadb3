// Experiment E1 — Figure 1 of the paper: the query evaluation pipeline on
// the running example.
//
//   Constraint relation: S(x,y) = 4x^2 - y - 20x + 25 <= 0
//   Query:               Q(x) = exists y (S(x,y) and y <= 0)
//   Paper's pipeline:    instantiate -> eliminate quantifier
//                        -> 4x^2 - 20x + 25 = 0 -> numerical evaluation
//                        -> x = 2.5
//
// The harness prints every stage's actual output next to the paper's and
// times each stage.

#include "bench_util.h"
#include "engine/database.h"
#include "numeric/numerical_eval.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"
#include "query/lower.h"
#include "query/parser.h"

using namespace ccdb;

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E1: Figure 1 query evaluation pipeline",
      "QE yields 4x^2-20x+25 = 0; numerical evaluation yields x = 2.5");

  ConstraintDatabase db;
  CCDB_CHECK(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());

  // Stage 1: INSTANTIATION.
  auto parsed = ParseFormula("exists y (S(x, y) and y <= 0)");
  CCDB_CHECK(parsed.ok());
  VarEnv env;
  env.Intern("x");
  Formula lowered = *LowerFormula(**parsed, &env);
  Formula instantiated = Formula::True();
  double t_instantiate = ccdb_bench::TimeSeconds([&] {
    auto result = lowered.InstantiateRelations(
        [&db](const std::string& name) { return db.Relation(name); });
    CCDB_CHECK(result.ok());
    instantiated = *result;
  });
  ccdb_bench::RecordCell("instantiation", t_instantiate);
  ccdb_bench::Row("stage 1 INSTANTIATION   : %s",
                  instantiated.ToString({"x", "y"}).c_str());
  ccdb_bench::Row("  paper                 : exists y (4x^2-y-20x+25 <= 0 "
                  "and y <= 0)");

  // Stage 2: QUANTIFIER ELIMINATION (governed when --deadline-ms is set).
  ConstraintRelation closed_form;
  QeStats stats;
  std::optional<double> t_qe =
      ccdb_bench::GovernedCell([&](const ResourceGovernor* gov) -> Status {
        QeOptions options;
        options.governor = gov;
        options.pool = ccdb_bench::Pool();
        auto result = EliminateQuantifiers(instantiated, 1, options, &stats);
        CCDB_RETURN_IF_ERROR(result.status());
        closed_form = *std::move(result);
        return Status::Ok();
      });
  ccdb_bench::RecordCell("qe", t_qe);
  if (!t_qe.has_value()) {
    ccdb_bench::Row("stage 2 QE              : exhausted (deadline)");
    ccdb_bench::RecordCell("numerical_eval", std::nullopt);
    return 1;
  }
  ccdb_bench::Row("stage 2 QE              : %s",
                  closed_form.ToString({"x"}).c_str());
  ccdb_bench::Row("  paper                 : 4x^2 - 20x + 25 = 0  "
                  "(equivalently 2x - 5 = 0)");
  ccdb_bench::Row("  CAD cells: %zu, projection factors: %zu",
                  stats.cad_cells, stats.projection_factors);

  // Stage 3: NUMERICAL EVALUATION.
  std::vector<std::vector<Rational>> solutions;
  std::optional<double> t_numeric =
      ccdb_bench::GovernedCell([&](const ResourceGovernor* gov) -> Status {
        auto result = ApproximateSolutions(
            closed_form, Rational(BigInt(1), BigInt(1000000)), gov);
        CCDB_RETURN_IF_ERROR(result.status());
        solutions = *std::move(result);
        return Status::Ok();
      });
  ccdb_bench::RecordCell("numerical_eval", t_numeric);
  if (!t_numeric.has_value()) {
    ccdb_bench::Row("stage 3 NUMERICAL EVAL  : exhausted (deadline)");
    return 1;
  }
  std::string rendered;
  for (const auto& point : solutions) {
    rendered += "x = " + point[0].ToString() + " ";
  }
  ccdb_bench::Row("stage 3 NUMERICAL EVAL  : %s", rendered.c_str());
  ccdb_bench::Row("  paper                 : x = 2.5");

  // Scaled Figure 1: the same query shape over a union of m shifted,
  // scaled parabola bands — exists y (∨_k  a_k(x-k)^2 - y - c_k <= 0 and
  // y <= b_k). The all-existential prefix distributes over the union, so
  // QE runs m independent CADs; this is the engine's parallel fan-out
  // instance. Sweep with --threads=1 / --threads=8 and compare the
  // scaled_qe_m* cells (the answers are identical at every width).
  ccdb_bench::Row("");
  ccdb_bench::Row("scaled pipeline: union of m parabola bands (threads=%d)",
                  ccdb_bench::BenchThreads());
  ccdb_bench::Row("%-10s %10s %12s %12s", "disjuncts", "tuples", "CAD cells",
                  "time [ms]");
  auto make_scaled = [](int m) {
    std::vector<Formula> bands;
    for (int k = 1; k <= m; ++k) {
      Polynomial x = Polynomial::Var(0), y = Polynomial::Var(1);
      Polynomial shifted = (x - Polynomial(k)) * (x - Polynomial(k));
      // Vary curvature and clip each band against a shifted circle so
      // every CAD has distinct projection factors (no sharing between
      // disjuncts) while staying at degree 2.
      Polynomial circle = shifted + (y - Polynomial(k)) * (y - Polynomial(k));
      bands.push_back(Formula::And(
          {Formula::Compare(Polynomial(1 + k % 3) * shifted - y,
                            RelOp::kLe, Polynomial(k)),
           Formula::Compare(y, RelOp::kLe, Polynomial(2 * k + 1)),
           Formula::Compare(circle, RelOp::kLe,
                            Polynomial((k + 2) * (k + 2)))}));
    }
    return Formula::Exists(1, Formula::Or(bands));
  };
  for (int m : {4, 8, 16}) {
    Formula scaled = make_scaled(m);
    ConstraintRelation scaled_answer;
    QeStats scaled_stats;
    std::optional<double> t_scaled =
        ccdb_bench::GovernedCell([&](const ResourceGovernor* gov) -> Status {
          QeOptions options;
          options.governor = gov;
          options.pool = ccdb_bench::Pool();
          scaled_stats = QeStats{};
          auto result = EliminateQuantifiers(scaled, 1, options,
                                             &scaled_stats);
          CCDB_RETURN_IF_ERROR(result.status());
          scaled_answer = *std::move(result);
          return Status::Ok();
        });
    ccdb_bench::RecordCell("scaled_qe_m" + std::to_string(m), t_scaled);
    ccdb_bench::Row("%-10d %10zu %12zu %12s", m,
                    scaled_answer.tuples().size(), scaled_stats.cad_cells,
                    ccdb_bench::TableCell(t_scaled).c_str());
  }

  // Warm vs cold memo caches: the same scaled query is rebuilt from
  // scratch and eliminated twice. Hash-consing makes the rebuilt formula
  // the same interned node, so with the caches on the second elimination
  // is one QE-cache lookup. The outputs are byte-identical either way (pure
  // memo contract) — only the timing moves.
  ccdb_bench::Row("");
  ccdb_bench::Row("warm vs cold QE result cache");
  QeResultCache().Clear();
  std::string cold_text, warm_text;
  double t_cold = ccdb_bench::TimeSeconds([&] {
    QeOptions options;
    options.pool = ccdb_bench::Pool();
    QeStats cache_stats;
    auto result = EliminateQuantifiers(make_scaled(16), 1, options,
                                       &cache_stats);
    CCDB_CHECK(result.ok());
    cold_text = result->ToString({"x"});
  });
  ccdb_bench::RecordCell("qe_cache_cold", t_cold);
  double t_warm = ccdb_bench::TimeSeconds([&] {
    QeOptions options;
    options.pool = ccdb_bench::Pool();
    QeStats cache_stats;
    auto result = EliminateQuantifiers(make_scaled(16), 1, options,
                                       &cache_stats);
    CCDB_CHECK(result.ok());
    warm_text = result->ToString({"x"});
  });
  ccdb_bench::RecordCell("qe_cache_warm", t_warm);
  CCDB_CHECK_MSG(cold_text == warm_text,
                 "warm run output differs from cold run");
  ccdb_bench::Row("%-24s %12.3f", "cold run [ms]", t_cold * 1e3);
  ccdb_bench::Row("%-24s %12.3f", "warm run [ms]", t_warm * 1e3);
  ccdb_bench::Row("%-24s %12.1fx", "speedup",
                  t_warm > 0.0 ? t_cold / t_warm : 0.0);

  // Planned vs unsplit elimination on a mixed-fragment query:
  //   exists y ( (x <= y and y <= 3)               -- dense-order block
  //           or (x + 2y <= 4 and -1 <= y)         -- linear block
  //           or (x < 5 and x^2 + y^2 <= 4) )      -- free leaf + CAD block
  // The matrix is polynomial and all-existential, so the planner
  // miniscopes x < 5 out of the quantifier scope and dispatches the first
  // two disjuncts to dense-order/Fourier-Motzkin: CAD only ever sees the
  // circle. With allow_disjunct_split off the same union is one
  // whole-matrix node and one joint CAD over every disjunct's
  // polynomials — strictly more cells.
  ccdb_bench::Row("");
  ccdb_bench::Row("planned vs unsplit: mixed-fragment query (threads=%d)",
                  ccdb_bench::BenchThreads());
  Formula mixed = [] {
    Polynomial x = Polynomial::Var(0), y = Polynomial::Var(1);
    Formula dense = Formula::And({Formula::Compare(x, RelOp::kLe, y),
                                  Formula::Compare(y, RelOp::kLe,
                                                   Polynomial(3))});
    Formula linear = Formula::And(
        {Formula::Compare(x + Polynomial(2) * y, RelOp::kLe, Polynomial(4)),
         Formula::Compare(Polynomial(-1), RelOp::kLe, y)});
    Formula poly = Formula::And(
        {Formula::Compare(x, RelOp::kLt, Polynomial(5)),
         Formula::Compare(x * x + y * y, RelOp::kLe, Polynomial(4))});
    return Formula::Exists(1, Formula::Or({dense, linear, poly}));
  }();
  std::size_t mixed_cells[2] = {0, 0};
  std::optional<double> mixed_ms[2];
  for (int planned = 0; planned < 2; ++planned) {
    mixed_ms[planned] =
        ccdb_bench::GovernedCell([&](const ResourceGovernor* gov) -> Status {
          QeOptions options;
          options.governor = gov;
          options.pool = ccdb_bench::Pool();
          options.allow_disjunct_split = planned == 1;
          QeStats mixed_stats;
          auto result = EliminateQuantifiers(mixed, 1, options, &mixed_stats);
          CCDB_RETURN_IF_ERROR(result.status());
          mixed_cells[planned] = mixed_stats.cad_cells;
          ccdb_bench::Row("plan: %s", mixed_stats.plan.c_str());
          return Status::Ok();
        });
    ccdb_bench::RecordCell(planned ? "mixed_fragment_planned"
                                   : "mixed_fragment_unsplit",
                           mixed_ms[planned]);
  }
  if (mixed_ms[0].has_value() && mixed_ms[1].has_value()) {
    CCDB_CHECK_MSG(mixed_cells[1] < mixed_cells[0],
                   "planner did not reduce CAD cells on the mixed query");
    ccdb_bench::Row("%-24s %12s %12s", "path", "CAD cells", "time [ms]");
    ccdb_bench::Row("%-24s %12zu %12s", "unsplit", mixed_cells[0],
                    ccdb_bench::TableCell(mixed_ms[0]).c_str());
    ccdb_bench::Row("%-24s %12zu %12s", "planned", mixed_cells[1],
                    ccdb_bench::TableCell(mixed_ms[1]).c_str());
  }

  // EXPLAIN ANALYZE over the same mixed-fragment query as text
  // (Observability v2, DESIGN.md §12): the profiled execution reports
  // per-plan-node wall time, CAD cells, FM rounds, and cache temperature,
  // and the answer stays byte-identical to the unprofiled Query —
  // profiling is observation only.
  ccdb_bench::Row("");
  ccdb_bench::Row("EXPLAIN ANALYZE: mixed-fragment query");
  const std::string mixed_text_query =
      "exists y ((x <= y and y <= 3) or (x + 2*y <= 4 and -1 <= y) or "
      "(x < 5 and x^2 + y^2 <= 4))";
  auto plain = db.Query(mixed_text_query);
  CCDB_CHECK(plain.ok());
  // Cold QE cache so the profile shows the full annotated plan tree
  // (warm runs collapse to a single qe[cached] node).
  QeResultCache().Clear();
  ExplainAnalyzeResult analyzed;
  double t_analyze = ccdb_bench::TimeSeconds([&] {
    auto result = db.ExplainAnalyze(mixed_text_query);
    CCDB_CHECK(result.ok());
    analyzed = *std::move(result);
  });
  ccdb_bench::RecordCell("explain_analyze_mixed", t_analyze);
  CCDB_CHECK_MSG(
      plain->relation.ToString(plain->column_names) ==
          analyzed.result.relation.ToString(analyzed.result.column_names),
      "profiled answer differs from the unprofiled Query");
  std::printf("%s", analyzed.profile.ToString().c_str());
  ccdb_bench::Row("profiled answer byte-identical to Query: yes");

  // Conic probe: two conics in one conjunction. Its CAD has 110 cells,
  // and the sections over irrational x have two irrational coordinates;
  // their signs come from the exact zero test over Q(alpha), so no sample
  // point reaches the ValueAt fallback.
  ccdb_bench::Row("");
  ccdb_bench::Row("conic probe: exists y (two conics)");
  auto probe_parsed = ParseFormula(
      "exists y (3*y^2 - 3*x*y + 3*y - 3*x^2 - 2*x - 3 < 0 and "
      "2*y^2 + 3*x*y - 2*y - 3*x + 3 > 0)");
  CCDB_CHECK(probe_parsed.ok());
  VarEnv probe_env;
  probe_env.Intern("x");
  Formula probe = *LowerFormula(**probe_parsed, &probe_env);
  Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("cad.value_at_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks->value();
  QeResultCache().Clear();
  ConstraintRelation probe_answer;
  QeStats probe_stats;
  std::optional<double> t_probe =
      ccdb_bench::GovernedCell([&](const ResourceGovernor* gov) -> Status {
        QeOptions options;
        options.governor = gov;
        options.pool = ccdb_bench::Pool();
        auto result = EliminateQuantifiers(probe, 1, options, &probe_stats);
        CCDB_RETURN_IF_ERROR(result.status());
        probe_answer = *std::move(result);
        return Status::Ok();
      });
  ccdb_bench::RecordCell("conic_probe", t_probe);
  ccdb_bench::Row("%-10s %12s %18s %12s", "tuples", "CAD cells",
                  "ValueAt fallbacks", "time [ms]");
  ccdb_bench::Row("%-10zu %12zu %18llu %12s", probe_answer.tuples().size(),
                  probe_stats.cad_cells,
                  static_cast<unsigned long long>(fallbacks->value() -
                                                  fallbacks_before),
                  ccdb_bench::TableCell(t_probe).c_str());

  // Repeated-latency cell: the planned mixed-fragment elimination run
  // cold 20 times (QE result cache cleared before each sample), reported
  // with the Histogram percentile estimator as p50/p90/p99 columns.
  std::vector<double> mixed_samples;
  for (int rep = 0; rep < 20; ++rep) {
    QeResultCache().Clear();
    mixed_samples.push_back(ccdb_bench::TimeSeconds([&] {
      QeOptions options;
      options.pool = ccdb_bench::Pool();
      auto result = EliminateQuantifiers(mixed, 1, options);
      CCDB_CHECK(result.ok());
    }));
  }
  ccdb_bench::RecordLatencyCell("mixed_fragment_repeat", mixed_samples);

  bool match = solutions.size() == 1 &&
               solutions[0][0] == Rational(BigInt(5), BigInt(2));
  ccdb_bench::Row("");
  ccdb_bench::Row("%-24s %12s %12s", "stage", "time [ms]", "matches paper");
  ccdb_bench::Row("%-24s %12.3f %12s", "instantiation",
                  t_instantiate * 1e3, "n/a");
  ccdb_bench::Row("%-24s %12s %12s", "quantifier elimination",
                  ccdb_bench::TableCell(t_qe).c_str(),
                  closed_form.Contains({Rational(BigInt(5), BigInt(2))})
                      ? "yes"
                      : "NO");
  ccdb_bench::Row("%-24s %12s %12s", "numerical evaluation",
                  ccdb_bench::TableCell(t_numeric).c_str(),
                  match ? "yes" : "NO");
  ccdb_bench::WriteRunRecord("pipeline");
  return match ? 0 : 1;
}
