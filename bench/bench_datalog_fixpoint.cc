// Experiment E9 — Theorems 4.7/4.8: Datalog¬ with inflationary semantics
// under the finite precision semantics is in PTIME (it contrasts with the
// exact semantics, where Datalog¬ captures all Turing-computable queries).
//
// The harness evaluates the transitive closure of a unit-step segment
// relation with growing diameter D: the inflationary fixpoint needs ~D
// iterations and each iteration is one QE call — total time polynomial in
// D. It also shows the Z_k budget turning a diverging program into a
// defined "undefined" answer after polynomially many rounds.

#include "bench_util.h"
#include "datalog/datalog.h"

using namespace ccdb;

namespace {

Polynomial V(int i) { return Polynomial::Var(i); }

DatalogProgram ClosureProgram() {
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  DatalogRule base;
  base.head = "Reach";
  base.head_vars = {0, 1};
  base.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
  program.rules.push_back(base);
  DatalogRule inductive;
  inductive.head = "Reach";
  inductive.head_vars = {0, 1};
  inductive.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
  inductive.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
  program.rules.push_back(inductive);
  return program;
}

ConstraintRelation SegmentEdge(int diameter) {
  // Edge(x, y) := y = x + 1 and 0 <= x <= diameter - 1.
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-V(0), RelOp::kLe);
  t.atoms.emplace_back(V(0) - Polynomial(diameter - 1), RelOp::kLe);
  edge.AddTuple(std::move(t));
  return edge;
}

}  // namespace

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "E9: inflationary Datalog fixpoint in PTIME (Theorems 4.7/4.8)",
      "iterations grow linearly with the diameter, total time "
      "polynomially; a Z_k budget cuts diverging programs off");

  ccdb_bench::Row("%-10s %12s %10s %12s %10s", "diameter", "iterations",
                  "QE calls", "time [ms]", "ratio");
  double previous = 0.0;
  for (int diameter : {2, 4, 8, 16}) {
    DatalogProgram program = ClosureProgram();
    std::map<std::string, ConstraintRelation> edb;
    edb.emplace("Edge", SegmentEdge(diameter));
    DatalogOptions options;
    options.max_iterations = diameter + 8;
    options.qe.pool = ccdb_bench::Pool();
    DatalogStats stats;
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = EvaluateDatalog(program, edb, options, &stats);
      CCDB_CHECK_MSG(result.ok(), result.status().ToString());
    });
    ccdb_bench::RecordCell("closure_d" + std::to_string(diameter), elapsed);
    ccdb_bench::Row("%-10d %12d %10llu %12.2f %10.2f", diameter,
                    stats.iterations,
                    static_cast<unsigned long long>(stats.qe_calls),
                    elapsed * 1e3, previous > 0 ? elapsed / previous : 0.0);
    previous = elapsed;
  }

  // Wide program: one closure per independent segment relation — R rules
  // with disjoint heads, so every inflationary round evaluates R rule
  // bodies that the pool can fan out (--threads sweep; rule-order merge
  // keeps the fixpoint identical at every width).
  ccdb_bench::Row("");
  ccdb_bench::Row("wide program (threads=%d):", ccdb_bench::BenchThreads());
  ccdb_bench::Row("%-10s %12s %10s %12s", "rules", "iterations", "QE calls",
                  "time [ms]");
  for (int width : {4, 16}) {
    DatalogProgram wide;
    std::map<std::string, ConstraintRelation> edb;
    for (int r = 0; r < width; ++r) {
      std::string reach = "Reach" + std::to_string(r);
      std::string edge = "Edge" + std::to_string(r);
      wide.idb_arities[reach] = 2;
      DatalogRule base;
      base.head = reach;
      base.head_vars = {0, 1};
      base.body.push_back(DatalogLiteral::Rel(edge, {0, 1}));
      wide.rules.push_back(base);
      DatalogRule inductive;
      inductive.head = reach;
      inductive.head_vars = {0, 1};
      inductive.body.push_back(DatalogLiteral::Rel(reach, {0, 2}));
      inductive.body.push_back(DatalogLiteral::Rel(edge, {2, 1}));
      wide.rules.push_back(inductive);
      edb.emplace(edge, SegmentEdge(6 + r % 4));
    }
    DatalogOptions options;
    options.max_iterations = 24;
    options.qe.pool = ccdb_bench::Pool();
    DatalogStats stats;
    double elapsed = ccdb_bench::TimeSeconds([&] {
      auto result = EvaluateDatalog(wide, edb, options, &stats);
      CCDB_CHECK_MSG(result.ok(), result.status().ToString());
    });
    ccdb_bench::RecordCell("wide_r" + std::to_string(width), elapsed);
    ccdb_bench::Row("%-10d %12d %10llu %12.2f", 2 * width, stats.iterations,
                    static_cast<unsigned long long>(stats.qe_calls),
                    elapsed * 1e3);
  }

  ccdb_bench::Row("");
  ccdb_bench::Row("diverging doubling program under Z_k budgets:");
  ccdb_bench::Row("%-8s %14s %14s", "k", "outcome", "iterations");
  for (std::uint32_t k : {4u, 8u, 16u, 32u}) {
    DatalogProgram doubling;
    doubling.idb_arities["D"] = 1;
    DatalogRule seed;
    seed.head = "D";
    seed.head_vars = {0};
    seed.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0) - Polynomial(1), RelOp::kEq)));
    doubling.rules.push_back(seed);
    DatalogRule twice;
    twice.head = "D";
    twice.head_vars = {0};
    twice.body.push_back(DatalogLiteral::Rel("D", {1}));
    twice.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) - Polynomial(2) * V(1), RelOp::kEq)));
    doubling.rules.push_back(twice);
    DatalogOptions options;
    options.precision_k = k;
    options.max_iterations = 200;
    options.qe.pool = ccdb_bench::Pool();
    DatalogStats stats;
    auto result = EvaluateDatalog(doubling, {}, options, &stats);
    ccdb_bench::Row("%-8u %14s %14d", k,
                    result.ok() ? "fixpoint" : "undefined",
                    stats.iterations);
  }
  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: closure iterations = diameter + 1 (then one "
      "confirming round); undefined cutoff arrives after ~k iterations of "
      "the doubling program (bit length grows by 1 per round) — exactly "
      "the PTIME-in-k bound of Theorem 4.7");
  ccdb_bench::WriteRunRecord("datalog_fixpoint");
  return 0;
}
