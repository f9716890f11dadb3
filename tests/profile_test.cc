// EXPLAIN ANALYZE / profiling tests (Observability v2, DESIGN.md §12).
//
// The hard contract under test: profiling is OBSERVATION ONLY. Collecting
// the span tree must never change a query's answer — the profiled run is
// byte-identical to the unprofiled one, cached or uncached, at every
// thread count.
// On top of that, the span tree must be internally consistent
// (0 <= exclusive <= inclusive at every node), have the same shape —
// labels, counters, child order — at every thread count, and the span
// profile must fold trace events into the right paths.

#include <gtest/gtest.h>

#include <functional>
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
#include "test_pool.h"

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

// Eliminates `formula` on a pool of `threads`; a non-null `tree` receives
// the span tree collected under a root span around the call. A non-null
// `gov` (an unlimited governor in these tests) makes the run skip every
// memo: the uncached reference.
std::string RunQe(const Formula& formula, const ResourceGovernor* gov,
                  int threads, ProfileNode* tree) {
  ThreadPool pool(threads);
  QeOptions options;
  options.pool = &pool;
  options.governor = gov;
  TraceSpan root("test.root");
  if (tree != nullptr) root.CollectProfile();
  auto result = EliminateQuantifiers(formula, 1, options);
  if (tree != nullptr) *tree = root.TakeProfile();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->ToString() : "";
}

// Labels, counters and child order of a tree; times excluded.
std::string Shape(const ProfileNode& node) {
  std::string out = node.label + "[";
  for (const auto& [name, value] : node.counters) {
    out += name + "=" + std::to_string(value) + " ";
  }
  out += "](";
  for (const ProfileNode& child : node.children) out += Shape(child);
  return out + ")";
}

// The first node in pre-order whose label starts with `prefix`.
const ProfileNode* Find(const ProfileNode& node, const std::string& prefix) {
  if (node.label.rfind(prefix, 0) == 0) return &node;
  for (const ProfileNode& child : node.children) {
    if (const ProfileNode* found = Find(child, prefix)) return found;
  }
  return nullptr;
}

void CheckNodeInvariants(const ProfileNode& node) {
  EXPECT_GE(node.inclusive_us, 0) << node.label;
  EXPECT_GE(node.exclusive_us(), 0) << node.label;
  EXPECT_LE(node.exclusive_us(), node.inclusive_us) << node.label;
  EXPECT_FALSE(node.label.empty());
  for (const ProfileNode& child : node.children) CheckNodeInvariants(child);
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
      ProfileNode tree;
      std::string profiled = RunQe(mixed, gov, threads, &tree);
      EXPECT_EQ(unprofiled, profiled)
          << "cached=" << cached << " threads=" << threads;
      ASSERT_EQ(tree.children.size(), 1u);
      EXPECT_EQ(tree.children[0].label, "qe.eliminate");
    }
  }
}

// The plan nodes' spans carry the plan: a union with one child per
// disjunct, the CAD cells on the cad.build span and the FM rounds on the
// qe.fourier_motzkin span that did the work, every node obeying
// 0 <= exclusive <= inclusive.
TEST(ProfileTest, PlannedTreeShapeAndTimes) {
  QeResultCache().Clear();
  ProfileNode tree;
  ResourceGovernor unlimited{ResourceLimits{}};
  RunQe(MixedFragmentFormula(), &unlimited, 2, &tree);
  CheckNodeInvariants(tree);
  ASSERT_EQ(tree.children.size(), 1u);
  const ProfileNode& qe = tree.children[0];
  EXPECT_GT(qe.Counter("tuples_out"), 0u);
  ASSERT_EQ(qe.children.size(), 2u);
  EXPECT_EQ(qe.children[0].label, "qe.plan");
  const ProfileNode& root = qe.children[1];
  EXPECT_EQ(root.label, "union");
  EXPECT_EQ(root.Counter("members"), 3u);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_GT(root.Counter("tuples_out"), 0u);
  const ProfileNode* cad = Find(root, "cad.build");
  ASSERT_NE(cad, nullptr);
  EXPECT_GT(cad->Counter("cad_cells"), 0u);
  const ProfileNode* fm = Find(root, "qe.fourier_motzkin");
  ASSERT_NE(fm, nullptr);
  EXPECT_EQ(fm->Counter("fm_rounds"), 1u);
  // Rendering mentions the engines and the timings.
  std::string rendered = tree.ToString();
  EXPECT_NE(rendered.find("block[cad] exists x1"), std::string::npos);
  EXPECT_NE(rendered.find("ms"), std::string::npos);
  std::string json = tree.ToJson();
  EXPECT_NE(json.find("\"label\":\"union\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

// A linear matrix is one monolithic plan node whose FM span carries the
// rounds.
TEST(ProfileTest, LinearMatrixTreeIsOneMatrixNode) {
  Formula linear = Formula::Exists(
      1, Formula::Or(Formula::Compare(V(0) + Polynomial(2) * V(1),
                                      RelOp::kLe, Polynomial(4)),
                     Formula::Compare(V(1), RelOp::kLe, V(0))));
  ProfileNode tree;
  ResourceGovernor unlimited{ResourceLimits{}};
  RunQe(linear, &unlimited, 1, &tree);
  CheckNodeInvariants(tree);
  ASSERT_EQ(tree.children.size(), 1u);
  const ProfileNode& qe = tree.children[0];
  ASSERT_EQ(qe.children.size(), 2u);
  const ProfileNode& matrix = qe.children[1];
  EXPECT_EQ(matrix.label, "monolithic[fourier_motzkin] exists x1");
  ASSERT_EQ(matrix.children.size(), 1u);
  EXPECT_EQ(matrix.children[0].label, "qe.fourier_motzkin");
  EXPECT_EQ(matrix.children[0].Counter("fm_rounds"), 1u);
}

// The tree's shape — labels, counters, child order — is the same at 1, 2
// and 8 threads for the mixed-fragment plan, whose union members fan out
// across the pool (DatalogRoundsReportPerRuleNodes checks the fixpoint's
// rule fan-out the same way).
TEST(ProfileTest, TreeShapeIsIdenticalAcrossThreadCounts) {
  ResourceGovernor unlimited{ResourceLimits{}};
  std::map<int, std::string> qe_shapes;
  for (bool cached : {false, true}) {
    for (int threads : {1, 2, 8}) {
      QeResultCache().Clear();
      ProfileNode tree;
      RunQe(MixedFragmentFormula(), cached ? nullptr : &unlimited, threads,
            &tree);
      qe_shapes[threads] = Shape(tree);
    }
    EXPECT_EQ(qe_shapes[1], qe_shapes[2]) << "cached=" << cached;
    EXPECT_EQ(qe_shapes[1], qe_shapes[8]) << "cached=" << cached;
  }
  EXPECT_NE(qe_shapes[1].find("block[cad] exists x1"), std::string::npos);
}

// A warm second run collapses to a single qe[cached] node that carries
// the replayed counters.
TEST(ProfileTest, CachedRunReportsCacheHitNode) {
  Formula mixed = MixedFragmentFormula();
  QeResultCache().Clear();
  RunQe(mixed, nullptr, 1, nullptr);  // warm the QE result cache
  ProfileNode tree;
  RunQe(mixed, nullptr, 1, &tree);
  ASSERT_EQ(tree.children.size(), 1u);
  const ProfileNode& hit = tree.children[0];
  EXPECT_EQ(hit.label, "qe[cached]");
  EXPECT_GT(hit.Counter("cad_cells"), 0u);
  EXPECT_GT(hit.Counter("tuples_out"), 0u);
  EXPECT_TRUE(hit.children.empty());
}

// Spans opened in pool tasks attach under the submitting span in task
// index order, whichever worker ran them.
TEST(ProfileTest, PoolTaskSpansAttachInIndexOrder) {
  ThreadPool pool(8);
  TraceSpan root("test.root");
  root.CollectProfile();
  ASSERT_TRUE(pool.ParallelFor(32, [](std::size_t i) -> Status {
                    TraceSpan task("test.task");
                    task.AddCounter("index", i);
                    return Status::Ok();
                  }).ok());
  ProfileNode tree = root.TakeProfile();
  ASSERT_EQ(tree.children.size(), 32u);
  for (std::size_t i = 0; i < tree.children.size(); ++i) {
    EXPECT_EQ(tree.children[i].Counter("index"), i);
  }
}

// With no collector armed a span records no node, and its setters are
// no-ops.
TEST(ProfileTest, SpansOutsideACollectorRecordNothing) {
  TraceSpan span("test.task");
  EXPECT_FALSE(span.profiling());
  span.SetLabel("ignored");
  span.AddCounter("ignored", 1);
  EXPECT_EQ(tls_profile_parent, nullptr);
  EXPECT_TRUE(span.TakeProfile().label.empty());
}

// End-to-end: ExplainAnalyze returns the same answer as Query plus the
// query's span tree.
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
  ASSERT_TRUE(analyzed->profile.span_tree.has_value());
  const ProfileNode& tree = *analyzed->profile.span_tree;
  CheckNodeInvariants(tree);
  EXPECT_EQ(tree.label, "db.explain_analyze");
  EXPECT_NE(Find(tree, "calcf.instantiate"), nullptr);
  EXPECT_NE(Find(tree, "numeric.evaluate"), nullptr);
  EXPECT_GT(analyzed->profile.total_seconds, 0.0);
  EXPECT_GT(analyzed->profile.pool_threads, 0u);
  std::string rendered = analyzed->profile.ToString();
  EXPECT_NE(rendered.find("QUANTIFIER ELIMINATION"), std::string::npos);
  EXPECT_NE(rendered.find("span tree:"), std::string::npos);
  std::string json = analyzed->profile.ToJson();
  EXPECT_NE(json.find("\"span_tree\""), std::string::npos);
  EXPECT_NE(json.find("\"caches\""), std::string::npos);
}

// A polynomial block's node shows the appendix's CAD phases: its cad.build
// span with the projection, base and lifting spans as children.
TEST(ProfileTest, PolynomialBlockShowsCadPhases) {
  QeResultCache().Clear();
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  auto analyzed = db.ExplainAnalyze("exists y (S(x, y) and y <= 9)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const ProfileNode* block =
      Find(*analyzed->profile.span_tree, "block[cad] exists x1");
  ASSERT_NE(block, nullptr);
  const ProfileNode* cad = Find(*block, "cad.build");
  ASSERT_NE(cad, nullptr);
  ASSERT_EQ(cad->children.size(), 3u);
  EXPECT_EQ(cad->children[0].label, "cad.projection");
  EXPECT_EQ(cad->children[1].label, "cad.base");
  EXPECT_EQ(cad->children[2].label, "cad.lift");
  EXPECT_GT(cad->Counter("cad_cells"), 0u);
}

// Every node's time is read off its span: with the tracer on, each
// qe.eliminate node (one per QE round, in round order) lasts no longer
// than its recorded event, and the root no longer than its own.
TEST(ProfileTest, NodeTimesComeFromTheirSpans) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());
  Tracer& tracer = Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.Clear();
  tracer.SetEnabled(true);
  auto analyzed = db.ExplainAnalyze("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  tracer.SetEnabled(was_enabled);
  std::vector<TraceEvent> events, roots;
  for (const TraceEvent& event : tracer.Events()) {
    if (std::string(event.name) == "qe.eliminate") events.push_back(event);
    if (std::string(event.name) == "db.explain_analyze") {
      roots.push_back(event);
    }
  }
  tracer.Clear();
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const ProfileNode& tree = *analyzed->profile.span_tree;
  std::vector<const ProfileNode*> rounds;
  std::function<void(const ProfileNode&)> walk = [&](const ProfileNode& n) {
    if (n.label == "qe.eliminate" || n.label == "qe[cached]") {
      rounds.push_back(&n);
    }
    for (const ProfileNode& child : n.children) walk(child);
  };
  walk(tree);
  // The aggregate body's round, then the main round.
  ASSERT_EQ(rounds.size(), 2u);
  ASSERT_EQ(events.size(), rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_LE(rounds[i]->inclusive_us, events[i].duration_us) << i;
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_LE(tree.inclusive_us, roots[0].duration_us);
}

// Reach(x,y) :- Edge(x,y).  Reach(x,y) :- Reach(x,z), Edge(z,y).
DatalogProgram ReachProgram() {
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

std::map<std::string, ConstraintRelation> ReachEdb() {
  ConstraintRelation edge(2);
  GeneralizedTuple t;
  t.atoms.emplace_back(V(1) - V(0) - Polynomial(1), RelOp::kEq);
  t.atoms.emplace_back(-V(0), RelOp::kLe);
  t.atoms.emplace_back(V(0) - Polynomial(3), RelOp::kLe);
  edge.AddTuple(std::move(t));
  std::map<std::string, ConstraintRelation> edb;
  edb.emplace("Edge", edge);
  return edb;
}

// Runs Reach on a pool of `threads`, collecting the span tree into *tree;
// returns the rendered fixpoint.
std::string RunReach(const DatalogOptions& base, int threads,
                     ProfileNode* tree) {
  ThreadPool pool(threads);
  DatalogOptions options = base;
  options.qe.pool = &pool;
  TraceSpan root("test.root");
  if (tree != nullptr) root.CollectProfile();
  auto model = EvaluateDatalog(ReachProgram(), ReachEdb(), options);
  if (tree != nullptr) *tree = root.TakeProfile();
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model.ok() ? model->at("Reach").ToString() : "";
}

// Each fixpoint round is one node with one child per rule in rule order,
// skipped rules included; the fixpoint is byte-identical with or without
// the collector, and the tree has the same shape at 1, 2 and 8 threads.
TEST(ProfileTest, DatalogRoundsReportPerRuleNodes) {
  ResourceGovernor unlimited{ResourceLimits{}};
  DatalogOptions options;
  options.qe.governor = &unlimited;  // no memo: every rule runs its QE
  const std::string unprofiled = RunReach(options, 1, nullptr);
  std::map<int, std::string> shapes;
  for (int threads : {1, 2, 8}) {
    ProfileNode tree;
    EXPECT_EQ(RunReach(options, threads, &tree), unprofiled) << threads;
    shapes[threads] = Shape(tree);
    ASSERT_EQ(tree.children.size(), 1u);
    const ProfileNode& evaluate = tree.children[0];
    EXPECT_EQ(evaluate.label, "datalog.evaluate");
    ASSERT_GE(evaluate.children.size(), 2u);
    for (std::size_t i = 0; i < evaluate.children.size(); ++i) {
      const ProfileNode& round = evaluate.children[i];
      EXPECT_EQ(round.label, "datalog.round[" + std::to_string(i) + "]");
      CheckNodeInvariants(round);
      EXPECT_EQ(round.Counter("rules"), 2u);
      ASSERT_GE(round.children.size(), 2u);
      EXPECT_EQ(round.children[0].label, "rule[0] Reach");
      EXPECT_EQ(round.children[1].label, "rule[1] Reach");
      // After the cold round only Reach changes, so the Edge-only rule
      // is skipped but keeps its node.
      EXPECT_EQ(round.children[0].Counter("skipped"), i > 0 ? 1u : 0u);
    }
  }
  EXPECT_EQ(shapes[1], shapes[2]);
  EXPECT_EQ(shapes[1], shapes[8]);
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
