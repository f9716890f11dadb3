// Differential determinism test for the parallel engine: every pipeline
// stage that fans out over a thread pool (per-disjunct QE, CAD lifting,
// cell-truth evaluation, per-rule Datalog rounds) must produce the same
// normalized output formula and the same QeStats at threads = 1, 2, 8.
// The serial path (threads = 1) runs the pre-pool inline code, so these
// tests also pin the parallel merge order to the historical serial order.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"

namespace ccdb {
namespace {

const int kThreadCounts[] = {1, 2, 8};

Polynomial V(int i) { return Polynomial::Var(i); }

// exists y: union of m translated parabola bands (x - k)^2 <= y <= k.
// All-existential prefix over a top-level disjunction: exercises the
// disjunct split, one small CAD per disjunct.
Formula ParabolaBands(int disjuncts) {
  std::vector<Formula> bands;
  for (int k = 1; k <= disjuncts; ++k) {
    Polynomial shifted = (V(0) - Polynomial(k)) * (V(0) - Polynomial(k));
    bands.push_back(
        Formula::And(Formula::Compare(shifted, RelOp::kLe, V(1)),
                     Formula::Compare(V(1), RelOp::kLe, Polynomial(k))));
  }
  return Formula::Exists(1, Formula::Or(bands));
}

// Linear multi-disjunct exists: the Fourier-Motzkin per-disjunct fan-out.
Formula LinearBands(int disjuncts) {
  std::vector<Formula> bands;
  for (int k = 0; k < disjuncts; ++k) {
    bands.push_back(Formula::And(
        {Formula::Compare(Polynomial(k), RelOp::kLe, V(1)),
         Formula::Compare(V(1), RelOp::kLe, Polynomial(k + 1)),
         Formula::Compare(V(0) - V(1), RelOp::kLe, Polynomial(k)),
         Formula::Compare(-V(0) - V(1), RelOp::kLe, Polynomial(k))}));
  }
  return Formula::Exists(1, Formula::Or(bands));
}

// Nonlinear forall: forall y (y^2 + x >= 0), i.e. x >= 0. Pure CAD path
// with negation — no disjunct split applies.
Formula NonlinearForall() {
  return Formula::Forall(
      1, Formula::Compare(V(1) * V(1) + V(0), RelOp::kGe, Polynomial(0)));
}

struct QeRun {
  std::string relation;
  std::string stats;
};

QeRun RunQe(const Formula& formula, int num_free_vars, int threads) {
  ThreadPool pool(threads);
  QeOptions options;
  options.pool = &pool;
  QeStats stats;
  auto result = EliminateQuantifiers(formula, num_free_vars, options, &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  QeRun run;
  if (result.ok()) run.relation = result->ToString();
  run.stats = stats.ToJson();
  return run;
}

void ExpectIdenticalAcrossThreadCounts(const Formula& formula,
                                       int num_free_vars) {
  QeRun baseline = RunQe(formula, num_free_vars, 1);
  EXPECT_FALSE(baseline.relation.empty());
  for (int threads : kThreadCounts) {
    QeRun run = RunQe(formula, num_free_vars, threads);
    EXPECT_EQ(run.relation, baseline.relation) << "threads " << threads;
    EXPECT_EQ(run.stats, baseline.stats) << "threads " << threads;
  }
}

TEST(ParallelDeterminismTest, LinearMultiDisjunctExists) {
  ExpectIdenticalAcrossThreadCounts(LinearBands(9), 1);
}

TEST(ParallelDeterminismTest, NonlinearDisjunctSplit) {
  ExpectIdenticalAcrossThreadCounts(ParabolaBands(6), 1);
}

TEST(ParallelDeterminismTest, NonlinearJointCad) {
  // The direct joint-CAD oracle: the whole union's normal form, peeled,
  // goes through one CAD, so the base/lifting fan-out itself is what must
  // stay deterministic.
  Formula formula = ParabolaBands(3);
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    QeOptions options;
    options.pool = &pool;
    QeStats stats;
    QeNormalForm normal = NormalizeForQe(formula, 1).value();
    EXPECT_TRUE(PeelDefiningEquations(&normal.tuples, &normal.prefix,
                                      options, &stats)
                    .ok());
    auto tuples =
        EliminateByCad(normal.tuples, normal.prefix, 1, options, &stats);
    EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
    return QeRun{tuples.ok() ? ConstraintRelation(1, *tuples).ToString() : "",
                 stats.ToJson()};
  };
  QeRun baseline = run(1);
  for (int threads : kThreadCounts) {
    QeRun parallel = run(threads);
    EXPECT_EQ(parallel.relation, baseline.relation) << "threads " << threads;
    EXPECT_EQ(parallel.stats, baseline.stats) << "threads " << threads;
  }
}

TEST(ParallelDeterminismTest, NonlinearForallNegationPath) {
  ExpectIdenticalAcrossThreadCounts(NonlinearForall(), 1);
}

TEST(ParallelDeterminismTest, TwoFreeVariableUnion) {
  // Free variables x, y; eliminate z from a union mixing linear and
  // quadratic constraints on all three.
  std::vector<Formula> disjuncts;
  for (int k = 1; k <= 4; ++k) {
    disjuncts.push_back(Formula::And(
        {Formula::Compare(V(2) * V(2), RelOp::kLe,
                          V(0) + Polynomial(k)),
         Formula::Compare(V(1), RelOp::kLe, V(2) + Polynomial(k)),
         Formula::Compare(-V(2), RelOp::kLe, Polynomial(k))}));
  }
  ExpectIdenticalAcrossThreadCounts(
      Formula::Exists(2, Formula::Or(disjuncts)), 2);
}

TEST(ParallelDeterminismTest, SentenceDecision) {
  // exists x: x^2 < -1 is false; exists x: x^2 - 2 = 0 is true. The
  // decision and the stats must not vary with the pool.
  Formula unsat = Formula::Exists(
      0, Formula::Compare(V(0) * V(0), RelOp::kLt, Polynomial(-1)));
  Formula sat = Formula::Exists(
      0, Formula::Compare(V(0) * V(0) - Polynomial(2), RelOp::kEq,
                          Polynomial(0)));
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    QeOptions options;
    options.pool = &pool;
    auto unsat_verdict = DecideSentence(unsat, options);
    auto sat_verdict = DecideSentence(sat, options);
    ASSERT_TRUE(unsat_verdict.ok()) << unsat_verdict.status().ToString();
    ASSERT_TRUE(sat_verdict.ok()) << sat_verdict.status().ToString();
    EXPECT_FALSE(*unsat_verdict) << "threads " << threads;
    EXPECT_TRUE(*sat_verdict) << "threads " << threads;
  }
}

TEST(ParallelDeterminismTest, DatalogFixpointByteIdentical) {
  // Transitive closure of a segment: several rounds of per-rule parallel
  // QE whose merges (rule order, then round order) must be canonical.
  DatalogProgram program;
  program.idb_arities["Reach"] = 2;
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;
    rule.head = "Reach";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Reach", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {2, 1}));
    program.rules.push_back(rule);
  }
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-V(0), RelOp::kLe);
  t.atoms.emplace_back(V(0) - Polynomial(3), RelOp::kLe);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", edge);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    DatalogOptions options;
    options.qe.pool = &pool;
    DatalogStats stats;
    auto result = EvaluateDatalog(program, edb, options, &stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string rendered;
    if (result.ok()) {
      for (const auto& [name, relation] : *result) {
        rendered += name + ": " + relation.ToString() + "\n";
      }
    }
    return rendered + stats.ToJson();
  };
  std::string baseline = run(1);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run(threads), baseline) << "threads " << threads;
  }
}

TEST(ParallelDeterminismTest, DatabasePoolEnvelope) {
  // The same guarantee holds when the pool arrives through a database's
  // options: the default session of a database built with options.qe.pool
  // runs every read there. ParabolaBands(4) as query text.
  std::string text = "exists y (";
  for (int k = 1; k <= 4; ++k) {
    if (k > 1) text += " or ";
    std::string shift = "(x - " + std::to_string(k) + ")";
    text += "(" + shift + "^2 <= y and y <= " + std::to_string(k) + ")";
  }
  text += ")";
  std::string baseline;
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    CalcFOptions options;
    options.qe.pool = &pool;
    ConstraintDatabase db(options);
    QeResultCache().Clear();  // each width runs its own elimination
    auto explained = db.ExplainAnalyze(text);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->profile.pool_threads,
              static_cast<std::uint64_t>(threads));
    std::string rendered = explained->result.relation.ToString({"x"});
    if (baseline.empty()) {
      baseline = rendered;
    } else {
      EXPECT_EQ(rendered, baseline) << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace ccdb
