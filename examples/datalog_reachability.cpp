// Recursion example: Datalog¬ with inflationary semantics over constraint
// relations (paper, Section 4: "the finite precision semantics allows a
// natural tractable extension of first-order with recursion").
//
// A robot moves on the real line; one step takes it from position x to any
// position in [x + 1/2, x + 1] while staying inside the corridor [0, 10].
// Reach(x, y) — "y is reachable from x" — is the transitive closure of the
// step relation, computed by the inflationary fixpoint with a QE call per
// iteration, and bounded-precision evaluation (Theorem 4.7) is
// demonstrated on a doubling rule.

#include <cstdio>

#include "arith/floatk.h"
#include "base/config.h"
#include "base/thread_pool.h"
#include "datalog/datalog.h"

namespace {

ccdb::Polynomial V(int i) { return ccdb::Polynomial::Var(i); }

}  // namespace

int main() {
  using ccdb::Atom;
  using ccdb::DatalogLiteral;
  using ccdb::DatalogProgram;
  using ccdb::DatalogRule;
  using ccdb::Polynomial;
  using ccdb::RelOp;

  // EDB: Step(x, y) := x + 1/2 <= y <= x + 1 and 0 <= x and y <= 10.
  ccdb::ConstraintRelation step(2);
  {
    ccdb::GeneralizedTuple t;
    t.atoms.emplace_back(V(0) + Polynomial(ccdb::Rational(
                                    ccdb::BigInt(1), ccdb::BigInt(2))) -
                             V(1),
                         RelOp::kLe);
    t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kLe);
    t.atoms.emplace_back(-V(0), RelOp::kLe);
    t.atoms.emplace_back(V(1) - Polynomial(10), RelOp::kLe);
    step.AddTuple(std::move(t));
  }

  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule base;
    base.head = "Reach";
    base.head_vars = {0, 1};
    base.body.push_back(DatalogLiteral::Rel("Step", {0, 1}));
    program.rules.push_back(base);
  }
  {
    DatalogRule inductive;
    inductive.head = "Reach";
    inductive.head_vars = {0, 1};
    inductive.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    inductive.body.push_back(DatalogLiteral::Rel("Step", {2, 1}));
    program.rules.push_back(inductive);
  }

  std::map<std::string, ccdb::ConstraintRelation> edb;
  edb.emplace("Step", step);

  // A direct pipeline call runs on the pool it is handed (none = this
  // thread); this one is sized by CCDB_THREADS, like a database's default
  // session.
  ccdb::ThreadPool pool(ccdb::EngineConfig::Process().threads);
  ccdb::DatalogOptions options;
  options.max_iterations = 64;
  options.qe.pool = &pool;
  ccdb::DatalogStats stats;
  auto result = ccdb::EvaluateDatalog(program, edb, options, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "datalog failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Inflationary fixpoint reached after %d iterations "
              "(%llu QE calls)\n\n",
              stats.iterations,
              static_cast<unsigned long long>(stats.qe_calls));

  const ccdb::ConstraintRelation& reach = result->at("Reach");
  struct Probe {
    double from, to;
  };
  const Probe probes[] = {{0, 0.75}, {0, 5}, {0, 10}, {0, 0.25},
                          {3, 2},    {9.5, 10}};
  for (const Probe& probe : probes) {
    auto from = ccdb::FloatK::FromDouble(probe.from).ToRational();
    auto to = ccdb::FloatK::FromDouble(probe.to).ToRational();
    std::printf("Reach(%.2f, %.2f)?  %s\n", probe.from, probe.to,
                reach.Contains({from, to}) ? "yes" : "no");
  }

  // Bounded precision (Theorem 4.7): the doubling program overflows Z_k
  // and the answer becomes undefined instead of diverging.
  DatalogProgram doubling;
  doubling.idb_arities["D"] = 1;
  {
    DatalogRule seed;
    seed.head = "D";
    seed.head_vars = {0};
    seed.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0) - Polynomial(1), RelOp::kEq)));
    doubling.rules.push_back(seed);
  }
  {
    DatalogRule twice;
    twice.head = "D";
    twice.head_vars = {0};
    twice.body.push_back(DatalogLiteral::Rel("D", {1}));
    twice.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) - Polynomial(2) * V(1), RelOp::kEq)));
    doubling.rules.push_back(twice);
  }
  ccdb::DatalogOptions fp_options;
  fp_options.precision_k = 8;
  fp_options.max_iterations = 100;
  fp_options.qe.pool = &pool;
  ccdb::DatalogStats fp_stats;
  auto fp_result = ccdb::EvaluateDatalog(doubling, {}, fp_options, &fp_stats);
  std::printf("\nDoubling program under Z_%u: %s (stopped at iteration %d)\n",
              fp_options.precision_k,
              fp_result.ok() ? "fixpoint" :
                               fp_result.status().ToString().c_str(),
              fp_stats.iterations);
  return 0;
}
