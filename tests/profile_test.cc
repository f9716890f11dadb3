// EXPLAIN ANALYZE / profiling tests (Observability v2, DESIGN.md §12).
//
// The hard contract under test: profiling is OBSERVATION ONLY. Arming a
// ProfileSink must never change a query's answer — the profiled run is
// byte-identical to the unprofiled one, cached or uncached, at every
// thread count.
// On top of that, the attribution tree must be internally consistent
// (0 <= exclusive <= inclusive at every node) and the span profile must
// fold trace events into the right paths.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/profile.h"
#include "base/resource.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "datalog/datalog.h"
#include "engine/database.h"
#include "qe/qe.h"
#include "qe/qe_cache.h"

namespace ccdb {
namespace {

Polynomial V(int i) { return Polynomial::Var(i); }

// The mixed-fragment query of the bench: a dense-order disjunct, a linear
// disjunct, and a free leaf × CAD disjunct under one exists — exercises
// every fragment engine in one plan.
Formula MixedFragmentFormula() {
  Formula dense = Formula::And({Formula::Compare(V(0), RelOp::kLe, V(1)),
                                Formula::Compare(V(1), RelOp::kLe,
                                                 Polynomial(3))});
  Formula linear = Formula::And(
      {Formula::Compare(V(0) + Polynomial(2) * V(1), RelOp::kLe,
                        Polynomial(4)),
       Formula::Compare(Polynomial(-1), RelOp::kLe, V(1))});
  Formula poly = Formula::And(
      {Formula::Compare(V(0), RelOp::kLt, Polynomial(5)),
       Formula::Compare(V(0) * V(0) + V(1) * V(1), RelOp::kLe,
                        Polynomial(4))});
  return Formula::Exists(1, Formula::Or({dense, linear, poly}));
}

// A non-null `gov` (an unlimited governor in these tests) makes the run
// skip every memo lookup: the uncached reference.
std::string RunQe(const Formula& formula, const ResourceGovernor* gov,
                  int threads, ProfileSink* sink) {
  ThreadPool pool(threads);
  QeOptions options;
  options.pool = &pool;
  options.governor = gov;
  options.profile = sink;
  auto result = EliminateQuantifiers(formula, 1, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->ToString() : "";
}

// Profiled and unprofiled answers are byte-identical at every
// cached/uncached × thread combination (and across them, as the
// determinism tests already pin).
TEST(ProfileTest, ObservationOnlyAcrossMemoAndThreads) {
  Formula mixed = MixedFragmentFormula();
  ResourceGovernor unlimited{ResourceLimits{}};
  for (bool cached : {false, true}) {
    const ResourceGovernor* gov = cached ? nullptr : &unlimited;
    for (int threads : {1, 2, 8}) {
      QeResultCache().Clear();
      std::string unprofiled = RunQe(mixed, gov, threads, nullptr);
      QeResultCache().Clear();
      ProfileSink sink;
      std::string profiled = RunQe(mixed, gov, threads, &sink);
      EXPECT_EQ(unprofiled, profiled)
          << "cached=" << cached << " threads=" << threads;
      EXPECT_EQ(sink.size(), 1u);
    }
  }
}

void CheckNodeInvariants(const ProfileNode& node) {
  EXPECT_GE(node.inclusive_us, 0) << node.label;
  EXPECT_GE(node.exclusive_us(), 0) << node.label;
  EXPECT_LE(node.exclusive_us(), node.inclusive_us) << node.label;
  EXPECT_FALSE(node.label.empty());
  for (const ProfileNode& child : node.children) CheckNodeInvariants(child);
}

// The planned tree mirrors the plan: a union root with one child per
// disjunct, every node obeying 0 <= exclusive <= inclusive, and the CAD
// block carrying the cell count.
TEST(ProfileTest, PlannedTreeShapeAndTimes) {
  QeResultCache().Clear();
  ProfileSink sink;
  ResourceGovernor unlimited{ResourceLimits{}};
  RunQe(MixedFragmentFormula(), &unlimited, 2, &sink);
  std::vector<ProfileNode> roots = sink.Take();
  ASSERT_EQ(roots.size(), 1u);
  const ProfileNode& root = roots[0];
  CheckNodeInvariants(root);
  EXPECT_EQ(root.label, "union");
  EXPECT_EQ(root.Counter("members"), 3u);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_GT(root.Counter("cad_cells"), 0u);
  EXPECT_GT(root.Counter("fm_rounds"), 0u);
  EXPECT_GT(root.Counter("tuples_out"), 0u);
  // Exactly one subtree went through CAD and owns the cell count.
  std::uint64_t child_cells = 0;
  for (const ProfileNode& child : root.children) {
    child_cells += child.Counter("cad_cells");
    for (const ProfileNode& grandchild : child.children) {
      child_cells += grandchild.Counter("cad_cells");
    }
  }
  EXPECT_EQ(child_cells, root.Counter("cad_cells"));
  // Rendering mentions the engines and the timings.
  std::string rendered = root.ToString();
  EXPECT_NE(rendered.find("block["), std::string::npos);
  EXPECT_NE(rendered.find("ms"), std::string::npos);
  std::string json = root.ToJson();
  EXPECT_NE(json.find("\"label\":\"union\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

// A linear matrix runs as one whole-matrix node: the tree is that node.
TEST(ProfileTest, LinearMatrixTreeIsOneMatrixNode) {
  Formula linear = Formula::Exists(
      1, Formula::Or(Formula::Compare(V(0) + Polynomial(2) * V(1),
                                      RelOp::kLe, Polynomial(4)),
                     Formula::Compare(V(1), RelOp::kLe, V(0))));
  ProfileSink sink;
  ResourceGovernor unlimited{ResourceLimits{}};
  RunQe(linear, &unlimited, 1, &sink);
  std::vector<ProfileNode> roots = sink.Take();
  ASSERT_EQ(roots.size(), 1u);
  CheckNodeInvariants(roots[0]);
  EXPECT_EQ(roots[0].label, "monolithic[fourier_motzkin]");
  EXPECT_EQ(roots[0].Counter("fm_rounds"), 1u);
  EXPECT_TRUE(roots[0].children.empty());
}

// A warm second run collapses to a single qe[cached] node that still
// carries the replayed counters.
TEST(ProfileTest, CachedRunReportsCacheHitNode) {
  Formula mixed = MixedFragmentFormula();
  QeResultCache().Clear();
  RunQe(mixed, nullptr, 1, nullptr);  // warm the QE result cache
  ProfileSink sink;
  RunQe(mixed, nullptr, 1, &sink);
  std::vector<ProfileNode> roots = sink.Take();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].label, "qe[cached]");
  EXPECT_EQ(roots[0].Counter("qe_cache_hits"), 1u);
  EXPECT_GT(roots[0].Counter("tuples_out"), 0u);
  EXPECT_TRUE(roots[0].children.empty());
}

// End-to-end: ExplainAnalyze returns the same answer as Query plus a
// populated profile.
TEST(ProfileTest, ExplainAnalyzeMatchesQuery) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  const std::string text = "exists y (S(x, y) and y <= 0)";
  auto plain = db.Query(text);
  ASSERT_TRUE(plain.ok());
  auto analyzed = db.ExplainAnalyze(text);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(plain->relation.ToString(plain->column_names),
            analyzed->result.relation.ToString(
                analyzed->result.column_names));
  ASSERT_GE(analyzed->profile.qe_rounds.size(), 1u);
  for (const ProfileNode& round : analyzed->profile.qe_rounds) {
    CheckNodeInvariants(round);
  }
  EXPECT_GT(analyzed->profile.total_seconds, 0.0);
  EXPECT_GT(analyzed->profile.pool_threads, 0u);
  std::string rendered = analyzed->profile.ToString();
  EXPECT_NE(rendered.find("QUANTIFIER ELIMINATION"), std::string::npos);
  EXPECT_NE(rendered.find("qe round 1"), std::string::npos);
  std::string json = analyzed->profile.ToJson();
  EXPECT_NE(json.find("\"qe_rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"caches\""), std::string::npos);
}

// Datalog with an armed sink reports one node per fixpoint round with
// one child per rule in rule order, and the fixpoint itself is
// byte-identical with or without profiling.
TEST(ProfileTest, DatalogRoundsReportPerRuleNodes) {
  // Reach(x,y) :- Edge(x,y).  Reach(x,y) :- Reach(x,z), Edge(z,y).
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

  auto unprofiled = EvaluateDatalog(program, edb, DatalogOptions{});
  ASSERT_TRUE(unprofiled.ok()) << unprofiled.status().ToString();

  ProfileSink sink;
  DatalogOptions options;
  options.qe.profile = &sink;
  auto profiled = EvaluateDatalog(program, edb, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_EQ(unprofiled->at("Reach").ToString(),
            profiled->at("Reach").ToString());

  std::vector<ProfileNode> rounds = sink.Take();
  ASSERT_GE(rounds.size(), 2u);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].label, "datalog.round[" + std::to_string(i) + "]");
    CheckNodeInvariants(rounds[i]);
    ASSERT_EQ(rounds[i].children.size(), 2u);
    EXPECT_EQ(rounds[i].children[0].label, "rule[0] Reach");
    EXPECT_EQ(rounds[i].children[1].label, "rule[1] Reach");
    EXPECT_EQ(rounds[i].Counter("rules"), 2u);
  }
}

// Span-profile fold: nesting is reconstructed per thread from the
// intervals; exclusive time subtracts nested children only.
TEST(ProfileTest, BuildSpanProfileFoldsNesting) {
  std::vector<TraceEvent> events;
  // Thread 0: outer [0, 100) containing inner [10, 40).
  events.push_back(TraceEvent{"outer", "qe", 0, 100, 0});
  events.push_back(TraceEvent{"inner", "qe", 10, 30, 0});
  // Same names on thread 1, NOT nested (disjoint), plus a second inner
  // occurrence inside outer.
  events.push_back(TraceEvent{"outer", "qe", 0, 50, 1});
  events.push_back(TraceEvent{"inner", "qe", 5, 10, 1});
  events.push_back(TraceEvent{"inner", "qe", 60, 20, 1});
  SpanProfile profile = BuildSpanProfile(events);
  EXPECT_EQ(profile.total_events, 5u);
  ASSERT_TRUE(profile.paths.count("outer"));
  ASSERT_TRUE(profile.paths.count("outer;inner"));
  ASSERT_TRUE(profile.paths.count("inner"));
  EXPECT_EQ(profile.paths["outer"].count, 2u);
  EXPECT_EQ(profile.paths["outer"].inclusive_us, 150);
  // outer exclusive = 150 - nested inner (30 on t0, 10 on t1) = 110.
  EXPECT_EQ(profile.paths["outer"].exclusive_us, 110);
  EXPECT_EQ(profile.paths["outer;inner"].count, 2u);
  EXPECT_EQ(profile.paths["outer;inner"].inclusive_us, 40);
  // The disjoint inner on thread 1 is a root path of its own.
  EXPECT_EQ(profile.paths["inner"].count, 1u);
  EXPECT_EQ(profile.paths["inner"].inclusive_us, 20);
  std::string rendered = profile.ToString();
  EXPECT_NE(rendered.find("outer;inner"), std::string::npos);
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"total_events\":5"), std::string::npos);
}

// Leaf-only profile: zero-length child at the parent's start must not
// push exclusive time negative.
TEST(ProfileTest, ExclusiveClampsAtZero) {
  ProfileNode parent;
  parent.label = "p";
  parent.inclusive_us = 10;
  ProfileNode a, b;
  a.label = "a";
  a.inclusive_us = 7;
  b.label = "b";
  b.inclusive_us = 8;  // overlapping parallel children: 7 + 8 > 10
  parent.children = {a, b};
  EXPECT_EQ(parent.exclusive_us(), 0);
}

}  // namespace
}  // namespace ccdb
