// Semi-naive / incremental differential tests: the delta-driven fixpoint
// is a pure optimization, so its output must be BYTE-IDENTICAL to the
// naive executable spec (the Z_k loop, reached through a precision_k far
// above any bit length so the verdict never trips), cached and uncached,
// at every thread count, on every corpus — transitive closure,
// same-generation, mutual recursion, and constraint-heavy bodies — and
// the incremental resume path (ConstraintDatabase::Fixpoint after Insert)
// must reproduce the from-scratch fixpoint tuple-for-tuple under
// randomized insert sequences.

#include <gtest/gtest.h>

#include "test_pool.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/resource.h"
#include "base/thread_pool.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "engine/session.h"

namespace ccdb {
namespace {

// DatalogOptions on the test pool (test_pool.h).
DatalogOptions Pooled() {
  DatalogOptions options;
  options.qe.pool = ccdb_test::ProcessPool();
  return options;
}

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial V(int i) { return Polynomial::Var(i); }

// A Z_k precision no corpus here comes near: the run takes the naive loop
// (every Z_k run does) and its bit-length verdict never trips.
constexpr std::uint32_t kNaiveK = 1u << 20;

// y = x + 1 over lo <= x <= hi: one "successor" segment.
GeneralizedTuple SuccessorSegment(std::int64_t lo, std::int64_t hi) {
  GeneralizedTuple t;
  t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(Polynomial(lo) - V(0), RelOp::kLe);
  t.atoms.emplace_back(V(0) - Polynomial(hi), RelOp::kLe);
  return t;
}

ConstraintRelation SegmentEdge(std::int64_t lo, std::int64_t hi) {
  ConstraintRelation edge(2);
  edge.AddTuple(SuccessorSegment(lo, hi));
  return edge;
}

// Corpus 1: linear transitive closure of a successor segment.
DatalogProgram TransitiveClosure() {
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
  return program;
}

// Corpus 2: same-generation over Up/Down segments — two recursive
// occurrences of SG never appear, but the recursive literal sits between
// two EDB literals (exercises the delta rewrite's position bookkeeping).
DatalogProgram SameGeneration() {
  DatalogProgram program;
  program.idb_arities["SG"] = 2;
  {
    // Base: the diagonal over [0, 3].
    DatalogRule rule;
    rule.head = "SG";
    rule.head_vars = {0, 1};
    rule.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0) - V(1), RelOp::kEq)));
    rule.body.push_back(DatalogLiteral::Constraint(Atom(-V(0), RelOp::kLe)));
    rule.body.push_back(
        DatalogLiteral::Constraint(Atom(V(0) - Polynomial(3), RelOp::kLe)));
    program.rules.push_back(rule);
  }
  {
    // SG(x, y) :- Up(x, u), SG(u, v), Up(y, v).
    DatalogRule rule;
    rule.head = "SG";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Up", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("SG", {2, 3}));
    rule.body.push_back(DatalogLiteral::Rel("Up", {1, 3}));
    program.rules.push_back(rule);
  }
  return program;
}

// Corpus 3: mutually recursive Even/Odd over the successor segment — two
// IDB relations feeding each other, so each round's delta of one relation
// drives the other's rules.
DatalogProgram MutualRecursion() {
  DatalogProgram program;
  program.idb_arities["Ev"] = 1;
  program.idb_arities["Od"] = 1;
  {
    DatalogRule rule;  // Ev(0).
    rule.head = "Ev";
    rule.head_vars = {0};
    rule.body.push_back(DatalogLiteral::Constraint(Atom(V(0), RelOp::kEq)));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;  // Od(y) :- Ev(x), Edge(x, y).
    rule.head = "Od";
    rule.head_vars = {1};
    rule.body.push_back(DatalogLiteral::Rel("Ev", {0}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    DatalogRule rule;  // Ev(y) :- Od(x), Edge(x, y).
    rule.head = "Ev";
    rule.head_vars = {1};
    rule.body.push_back(DatalogLiteral::Rel("Od", {0}));
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  return program;
}

// Corpus 4: constraint-heavy quadratic-rule closure — TWO recursive
// occurrences in one body (the delta rewrite unions over occurrence
// choices with @old slices) plus polynomial guards.
DatalogProgram QuadraticClosure() {
  DatalogProgram program;
  program.idb_arities["C"] = 2;
  {
    DatalogRule rule;
    rule.head = "C";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("Edge", {0, 1}));
    program.rules.push_back(rule);
  }
  {
    // C(x, y) :- C(x, z), C(z, y), x^2 <= 16, y <= 5.
    DatalogRule rule;
    rule.head = "C";
    rule.head_vars = {0, 1};
    rule.body.push_back(DatalogLiteral::Rel("C", {0, 2}));
    rule.body.push_back(DatalogLiteral::Rel("C", {2, 1}));
    rule.body.push_back(DatalogLiteral::Constraint(
        Atom(V(0) * V(0) - Polynomial(16), RelOp::kLe)));
    rule.body.push_back(
        DatalogLiteral::Constraint(Atom(V(1) - Polynomial(5), RelOp::kLe)));
    program.rules.push_back(rule);
  }
  return program;
}

struct Corpus {
  const char* name;
  DatalogProgram program;
  std::map<std::string, ConstraintRelation> edb;
};

std::vector<Corpus> Corpora() {
  std::vector<Corpus> corpora;
  corpora.push_back({"transitive_closure", TransitiveClosure(), {}});
  corpora.back().edb.emplace("Edge", SegmentEdge(0, 3));
  corpora.push_back({"same_generation", SameGeneration(), {}});
  corpora.back().edb.emplace("Up", SegmentEdge(0, 2));
  corpora.push_back({"mutual_recursion", MutualRecursion(), {}});
  corpora.back().edb.emplace("Edge", SegmentEdge(0, 4));
  corpora.push_back({"quadratic_closure", QuadraticClosure(), {}});
  corpora.back().edb.emplace("Edge", SegmentEdge(0, 3));
  return corpora;
}

// Verbatim rendering: tuple order included — the byte-identity contract.
std::string Fingerprint(const std::map<std::string, ConstraintRelation>& idb) {
  std::string out;
  for (const auto& [name, relation] : idb) {
    out += name + ": " + relation.ToString() + "\n";
  }
  return out;
}

// Semantic differential for the incremental path: a resumed fixpoint may
// carve the same point set into syntactically different generalized
// tuples than a cold run (derivations arrive in a different order, so
// different redundant tuples get dropped), so the contract there is
// EXTENSIONAL equality — probed on a dense rational grid covering the
// closure's support and its boundary half-points.
void ExpectSameBinaryRelation(const ConstraintRelation& got,
                              const ConstraintRelation& want,
                              const std::string& context) {
  for (int xi = -2; xi <= 22; ++xi) {
    for (int yi = -2; yi <= 22; ++yi) {
      Rational x = R(xi, 2);
      Rational y = R(yi, 2);
      bool g = got.Contains({x, y});
      bool w = want.Contains({x, y});
      if (g != w) {
        ADD_FAILURE() << context << ": diverge at (" << x.ToString() << ", "
                      << y.ToString() << "): incremental=" << g
                      << " cold=" << w;
        return;
      }
    }
  }
}

TEST(SeminaiveDifferentialTest, ByteIdenticalAcrossSeminaiveMemoThreads) {
  // Uncached runs go under an unlimited governor: every memo lookup (QE
  // results, rule bodies, resultants) is skipped.
  ResourceGovernor unlimited{ResourceLimits{}};
  for (Corpus& corpus : Corpora()) {
    // Baseline: naive, uncached, serial.
    std::string baseline;
    for (bool seminaive : {false, true}) {
      for (bool cached : {false, true}) {
        for (int threads : {1, 2, 8}) {
          ThreadPool pool(threads);
          DatalogOptions options;
          options.precision_k = seminaive ? 0 : kNaiveK;
          options.qe.governor = cached ? nullptr : &unlimited;
          options.qe.pool = &pool;
          DatalogStats stats;
          auto result =
              EvaluateDatalog(corpus.program, corpus.edb, options, &stats);
          ASSERT_TRUE(result.ok())
              << corpus.name << ": " << result.status().ToString();
          EXPECT_TRUE(stats.reached_fixpoint) << corpus.name;
          std::string fp = Fingerprint(*result);
          if (baseline.empty()) {
            baseline = fp;
          } else {
            EXPECT_EQ(fp, baseline)
                << corpus.name << " diverged at seminaive=" << seminaive
                << " cached=" << cached << " threads=" << threads;
          }
          // Semi-naive must actually engage on these recursive corpora
          // (multiple rounds -> nonzero deltas), or the matrix proves
          // nothing.
          if (seminaive && stats.iterations > 1) {
            EXPECT_GT(stats.delta_tuples, 0u) << corpus.name;
          }
        }
      }
    }
  }
}

TEST(SeminaiveDifferentialTest, ZkRunsTheNaiveLoopEveryOtherRunIsSemiNaive) {
  Corpus corpus = Corpora()[0];
  DatalogStats semi_stats;
  auto semi =
      EvaluateDatalog(corpus.program, corpus.edb, Pooled(), &semi_stats);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  EXPECT_GT(semi_stats.delta_tuples, 0u) << "default must run the delta path";

  DatalogOptions zk = Pooled();
  zk.precision_k = kNaiveK;
  DatalogStats naive_stats;
  auto naive = EvaluateDatalog(corpus.program, corpus.edb, zk, &naive_stats);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive_stats.delta_tuples, 0u) << "Z_k must run the naive path";
  EXPECT_LT(naive_stats.max_bits, kNaiveK);
  EXPECT_EQ(Fingerprint(*semi), Fingerprint(*naive));
}

TEST(SeminaiveDifferentialTest, ResumeMatchesRecomputeUnderInsertSequences) {
  ConstraintDatabase db;
  ASSERT_TRUE(
      db.Define("Edge(x, y) := y - x - 1 = 0 and x >= 0 and x <= 2").ok());
  std::unique_ptr<Session> session = db.OpenSession();
  DatalogProgram program = TransitiveClosure();

  Counter* resumes =
      MetricsRegistry::Global().GetCounter("datalog_fixpoint_resumes");

  // Cold fixpoint, then a deterministic pseudo-random sequence of
  // append-only segment inserts; after each, the resumed fixpoint must
  // equal a from-scratch recompute over the same catalog state.
  auto warm = session->Fixpoint(program);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::uint64_t resumed_before = resumes->value();
  for (int step = 0; step < 4; ++step) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    std::int64_t lo = static_cast<std::int64_t>((rng >> 33) % 7);
    std::int64_t hi = lo + 1 + static_cast<std::int64_t>((rng >> 21) % 3);
    std::string segment = "Edge(x, y) := y - x - 1 = 0 and x >= " +
                          std::to_string(lo) +
                          " and x <= " + std::to_string(hi);
    ASSERT_TRUE(db.Insert(segment).ok()) << segment;

    DatalogStats incremental_stats;
    auto incremental = session->Fixpoint(program, {}, &incremental_stats);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

    // From-scratch reference over the identical catalog state.
    auto edge = db.Relation("Edge");
    ASSERT_TRUE(edge.ok());
    std::map<std::string, ConstraintRelation> edb;
    edb.emplace("Edge", *edge);
    auto cold = EvaluateDatalog(program, edb, Pooled());
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    ExpectSameBinaryRelation(incremental->at("Reach"), cold->at("Reach"),
                             "step " + std::to_string(step) + " after " +
                                 segment);
  }
  EXPECT_GT(resumes->value(), resumed_before)
      << "the insert sequence must exercise the RESUME path, not silent "
       "recomputes";

  // Under a governor the materialized state stands down, so the same call
  // takes the recompute path and still answers.
  ResourceGovernor unlimited{ResourceLimits{}};
  DatalogOptions governed;
  governed.qe.governor = &unlimited;
  auto recomputed = session->Fixpoint(program, governed);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  auto edge = db.Relation("Edge");
  ASSERT_TRUE(edge.ok());
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", *edge);
  auto cold = EvaluateDatalog(program, edb, Pooled());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Fingerprint(*recomputed), Fingerprint(*cold));
}

TEST(SeminaiveDifferentialTest, ResumeRefusesNegationAndPrecision) {
  // The resume entry points must reject what they cannot evaluate
  // soundly: negated literals (inflationary negation is not monotone in
  // the EDB) and Z_k runs (the bit-length verdict needs naive rounds).
  DatalogProgram negated;
  negated.idb_arities["P"] = 1;
  DatalogRule rule;
  rule.head = "P";
  rule.head_vars = {0};
  rule.body.push_back(DatalogLiteral::Rel("Q", {0}, /*negated=*/true));
  negated.rules.push_back(rule);
  negated.idb_arities["Q"] = 1;

  DatalogFixpointState state;
  auto refused = ResumeDatalog(negated, {}, &state);
  EXPECT_FALSE(refused.ok());

  DatalogProgram tc = TransitiveClosure();
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", SegmentEdge(0, 2));
  DatalogOptions zk = Pooled();
  zk.precision_k = 64;
  DatalogFixpointState tc_state;
  auto zk_refused = ResumeDatalog(tc, edb, &tc_state, zk);
  EXPECT_FALSE(zk_refused.ok());
}

}  // namespace
}  // namespace ccdb
