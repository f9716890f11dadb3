#include "plan/planner.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "qe/fourier_motzkin.h"

namespace ccdb {

namespace {

std::string VarName(int v, const std::vector<std::string>& names) {
  if (v >= 0 && static_cast<std::size_t>(v) < names.size()) return names[v];
  return "x" + std::to_string(v);
}

std::string TuplesToDisplay(const std::vector<GeneralizedTuple>& tuples,
                            const std::vector<std::string>& names) {
  if (tuples.empty()) return "false";
  std::string out;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += " or ";
    out += tuples[i].ToString(names);
  }
  return out;
}

// A plan node's heading: the first line of its EXPLAIN rendering and its
// EXPLAIN ANALYZE label.
std::string NodeHeading(const PlanNode& node,
                        const std::vector<std::string>& names) {
  switch (node.kind) {
    case PlanNode::Kind::kLeaf:
      return "leaf";
    case PlanNode::Kind::kBlock:
    case PlanNode::Kind::kMonolithic: {
      std::string out =
          std::string(node.kind == PlanNode::Kind::kBlock ? "block["
                                                          : "monolithic[") +
          FragmentEngine(node.fragment) + "]";
      for (const PrenexBlock& block : node.prefix) {
        out += (block.is_exists ? " exists " : " forall ") +
               VarName(block.var, names);
      }
      return out;
    }
    case PlanNode::Kind::kProduct:
      return "product";
    case PlanNode::Kind::kUnion:
      return "union";
  }
  return "";
}

void RenderNode(const PlanNode& node, const std::vector<std::string>& names,
                int depth, std::ostringstream* out) {
  *out << std::string(static_cast<std::size_t>(depth) * 2, ' ')
       << NodeHeading(node, names);
  if (node.kind == PlanNode::Kind::kUnion) {
    *out << " (" << node.children.size() << " member"
         << (node.children.size() == 1 ? "" : "s") << ")";
  } else if (node.kind != PlanNode::Kind::kProduct) {
    *out << ": " << TuplesToDisplay(node.tuples, names);
  }
  *out << "\n";
  for (const auto& child : node.children) {
    RenderNode(*child, names, depth + 1, out);
  }
}

std::shared_ptr<PlanNode> MakeLeaf(std::vector<GeneralizedTuple> tuples) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kLeaf;
  node->tuples = std::move(tuples);
  return node;
}

// The executor's per-node result: the produced union of tuples over the
// free variables plus the engine stats of the steps that produced it.
// Stats are returned (not written through a shared pointer) because union
// members execute in parallel; the caller merges them in member order,
// keeping the accumulation thread-count independent.
struct ExecResult {
  std::vector<GeneralizedTuple> tuples;
  QeStats stats;
  std::uint64_t peeled = 0;  // quantifiers peeled by defining equations
};

Formula BlockToFormula(const std::vector<GeneralizedTuple>& tuples,
                       const std::vector<PrenexBlock>& prefix) {
  Formula f = TuplesToFormula(tuples);
  for (auto block = prefix.rbegin(); block != prefix.rend(); ++block) {
    f = Formula::Exists(block->var, std::move(f));
  }
  return f;
}

// The whole-matrix sequence over a compact normal form: peel defining
// equations, classify what is left (a peel can leave a linear residue),
// then eliminate it with the linear engine or CAD. Returns the number of
// quantifiers peeled.
StatusOr<std::uint64_t> EliminateMatrix(std::vector<GeneralizedTuple>* tuples,
                                        std::vector<PrenexBlock> prefix,
                                        int num_free_vars,
                                        const QeOptions& options,
                                        QeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(std::uint64_t peeled,
                        PeelDefiningEquations(tuples, &prefix, options, stats));
  if (prefix.empty()) return peeled;
  if (ClassifyTuples(*tuples) == Fragment::kLinear) {
    CCDB_RETURN_IF_ERROR(EliminateLinearPrefix(tuples, prefix, options, stats));
  } else {
    CCDB_ASSIGN_OR_RETURN(*tuples, EliminateByCad(*tuples, prefix,
                                                  num_free_vars, options,
                                                  stats));
  }
  return peeled;
}

// A polynomial block's residue after peeling, as a compact normal form —
// its variables renumbered in elimination order, as the CAD needs, its
// matrix DNF-sorted — eliminated by the whole-matrix sequence.
Status EliminateResidue(std::vector<GeneralizedTuple>* tuples,
                        const std::vector<PrenexBlock>& prefix,
                        int num_free_vars, const QeOptions& options,
                        QeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(
      QeNormalForm normal,
      NormalizeForQe(BlockToFormula(*tuples, prefix), num_free_vars,
                     options.governor));
  QeStats sub;
  sub.max_intermediate_bits = MaxCoefficientBits(normal.tuples);
  CCDB_RETURN_IF_ERROR(EliminateMatrix(&normal.tuples, std::move(normal.prefix),
                                       num_free_vars, options, &sub)
                           .status());
  *tuples = SimplifyTuples(std::move(normal.tuples));
  stats->Merge(sub);
  return Status::Ok();
}

StatusOr<ExecResult> ExecNode(const PlanNode& node, int num_free_vars,
                              const QeOptions& options);

// Eliminates one block with its fragment's engine: peel defining equations
// innermost-first, then Fourier-Motzkin rounds; polynomial residue goes
// through EliminateResidue.
StatusOr<ExecResult> ExecBlock(const PlanNode& node, int num_free_vars,
                               const QeOptions& options) {
  ExecResult r;
  r.tuples = node.tuples;
  r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
  std::vector<PrenexBlock> prefix = node.prefix;
  CCDB_ASSIGN_OR_RETURN(
      r.peeled, PeelDefiningEquations(&r.tuples, &prefix, options, &r.stats));
  if (!prefix.empty() && node.fragment == Fragment::kLinear) {
    CCDB_RETURN_IF_ERROR(
        EliminateLinearPrefix(&r.tuples, prefix, options, &r.stats));
  } else if (!prefix.empty()) {
    CCDB_RETURN_IF_ERROR(
        EliminateResidue(&r.tuples, prefix, num_free_vars, options, &r.stats));
  }
  return r;
}

// Runs one plan node under a "qe.plan.execute" span, which EXPLAIN ANALYZE
// labels with the node's heading.
StatusOr<ExecResult> ExecNode(const PlanNode& node, int num_free_vars,
                              const QeOptions& options) {
  const ResourceGovernor* gov = options.governor;
  TraceSpan span("qe.plan.execute");
  ExecResult r;
  switch (node.kind) {
    case PlanNode::Kind::kLeaf:
      r.tuples = node.tuples;
      r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
      break;
    case PlanNode::Kind::kBlock: {
      CCDB_ASSIGN_OR_RETURN(r, ExecBlock(node, num_free_vars, options));
      break;
    }
    case PlanNode::Kind::kMonolithic: {
      r.tuples = node.tuples;
      r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
      CCDB_ASSIGN_OR_RETURN(r.peeled,
                            EliminateMatrix(&r.tuples, node.prefix,
                                            num_free_vars, options, &r.stats));
      break;
    }
    case PlanNode::Kind::kProduct: {
      // Cartesian recombination of independent factors, in child order:
      // sound because the children's quantified supports are disjoint and
      // deterministic because the nesting order is a plan decision.
      r.tuples = {GeneralizedTuple()};
      for (const auto& child : node.children) {
        CCDB_CHECK_BUDGET(gov, "qe.drive");
        CCDB_ASSIGN_OR_RETURN(ExecResult part,
                              ExecNode(*child, num_free_vars, options));
        r.stats.Merge(part.stats);
        std::vector<GeneralizedTuple> crossed;
        crossed.reserve(r.tuples.size() * part.tuples.size());
        for (const GeneralizedTuple& a : r.tuples) {
          for (const GeneralizedTuple& b : part.tuples) {
            GeneralizedTuple joined = a;
            joined.atoms.insert(joined.atoms.end(), b.atoms.begin(),
                                b.atoms.end());
            crossed.push_back(std::move(joined));
          }
        }
        r.tuples = std::move(crossed);
      }
      break;
    }
    case PlanNode::Kind::kUnion: {
      // The planner's parallel fan-out point: members are independent
      // eliminations; slots merge in member order, never completion
      // order, so the answer is identical at every thread count.
      CCDB_ASSIGN_OR_RETURN(
          std::vector<ExecResult> slots,
          ThreadPool::Resolve(options.pool)->ParallelMap<ExecResult>(
              node.children.size(),
              [&](std::size_t i) -> StatusOr<ExecResult> {
                CCDB_CHECK_BUDGET(gov, "qe.drive");
                return ExecNode(*node.children[i], num_free_vars, options);
              }));
      for (ExecResult& slot : slots) {
        r.stats.Merge(slot.stats);
        for (GeneralizedTuple& tuple : slot.tuples) {
          r.tuples.push_back(std::move(tuple));
        }
      }
      span.AddCounter("members", node.children.size());
      break;
    }
  }
  if (span.profiling()) span.SetLabel(NodeHeading(node, {}));
  if (r.peeled > 0) span.AddCounter("substitutions", r.peeled);
  span.AddCounter("tuples_out", r.tuples.size());
  return r;
}

}  // namespace

std::string QueryPlan::Summary() const {
  if (root == nullptr) return "";
  if (root->kind == PlanNode::Kind::kLeaf) return "quantifier_free";
  if (root->kind == PlanNode::Kind::kMonolithic) {
    return std::string("monolithic[") + FragmentEngine(root->fragment) + "]";
  }
  std::ostringstream out;
  out << "union=" << root->children.size() << " blocks=" << blocks
      << " [fourier_motzkin=" << dispatch[0] << " cad=" << dispatch[1]
      << "] miniscoped=" << miniscope_pushes
      << " split=" << component_splits;
  return out.str();
}

std::string QueryPlan::ToString(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "plan (" << Summary() << ")\n";
  if (root != nullptr) RenderNode(*root, names, 1, &out);
  return out.str();
}

StatusOr<QueryPlan> PlanQuery(const Formula& formula, int num_free_vars,
                              const ResourceGovernor* gov) {
  CCDB_TRACE_SPAN("qe.plan");
  CCDB_METRIC_COUNT("qe.plan.built", 1);
  QueryPlan plan;
  plan.num_free_vars = num_free_vars;

  CCDB_ASSIGN_OR_RETURN(QeNormalForm normal,
                        NormalizeForQe(formula, num_free_vars, gov));
  std::vector<GeneralizedTuple>& tuples = normal.tuples;
  const int q = static_cast<int>(normal.prefix.size());
  if (q == 0) {
    plan.root = MakeLeaf(std::move(tuples));
    return plan;
  }

  // The matrix fragment picks the shape. A linear matrix takes one
  // whole-union Fourier-Motzkin pass; so does a universal prefix
  // (miniscoping ∃ over ∨ needs an all-existential prefix).
  bool all_exists = true;
  for (const PrenexBlock& block : normal.prefix) {
    if (!block.is_exists) all_exists = false;
  }
  const Fragment fragment = ClassifyTuples(tuples);
  if (fragment == Fragment::kLinear || !all_exists) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanNode::Kind::kMonolithic;
    node->fragment = fragment;
    node->prefix = std::move(normal.prefix);
    node->tuples = std::move(tuples);
    plan.root = node;
    plan.blocks = 1;
    ++plan.dispatch[static_cast<int>(fragment)];
    return plan;
  }

  // Miniscoping over ∨: one member per disjunct. Per member, atoms that
  // mention no quantified variable are pushed out into a leaf (miniscoping
  // over ∧) and the remaining atoms split into connected components of
  // the quantified-variable–atom incidence graph.
  auto root = std::make_shared<PlanNode>();
  root->kind = PlanNode::Kind::kUnion;
  for (const GeneralizedTuple& disjunct : tuples) {
    // Union-find over this disjunct's quantified variables.
    std::vector<int> parent(static_cast<std::size_t>(q));
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&parent](int a) {
      while (parent[a] != a) {
        parent[a] = parent[parent[a]];
        a = parent[a];
      }
      return a;
    };
    auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

    GeneralizedTuple leaf;
    std::vector<std::vector<int>> atom_qvars(disjunct.atoms.size());
    std::vector<int> occurrences(static_cast<std::size_t>(q), 0);
    for (std::size_t a = 0; a < disjunct.atoms.size(); ++a) {
      for (int v = 0; v < q; ++v) {
        if (disjunct.atoms[a].poly.Mentions(num_free_vars + v)) {
          atom_qvars[a].push_back(v);
          ++occurrences[static_cast<std::size_t>(v)];
        }
      }
      if (atom_qvars[a].empty()) {
        leaf.atoms.push_back(disjunct.atoms[a]);
      } else {
        for (std::size_t j = 1; j < atom_qvars[a].size(); ++j) {
          unite(atom_qvars[a][0], atom_qvars[a][j]);
        }
      }
    }

    // Components keyed by their smallest quantified variable, each with
    // its atoms in original conjunct order.
    std::map<int, std::vector<int>> component_vars;  // root -> vars
    for (int v = 0; v < q; ++v) {
      if (occurrences[static_cast<std::size_t>(v)] == 0) continue;
      component_vars[find(v)].push_back(v);
    }
    std::map<int, GeneralizedTuple> component_atoms;
    for (std::size_t a = 0; a < disjunct.atoms.size(); ++a) {
      if (atom_qvars[a].empty()) continue;
      component_atoms[find(atom_qvars[a][0])].atoms.push_back(
          disjunct.atoms[a]);
    }

    std::vector<std::shared_ptr<const PlanNode>> kids;
    if (!leaf.atoms.empty() || component_vars.empty()) {
      kids.push_back(MakeLeaf({leaf}));
      ++plan.miniscope_pushes;
    }
    for (auto& [comp_root, vars] : component_vars) {
      auto block = std::make_shared<PlanNode>();
      block->kind = PlanNode::Kind::kBlock;
      block->tuples = {component_atoms[comp_root]};
      // Cheap-first elimination order (min-occurrence heuristic): the
      // executor eliminates innermost-first, so the least-constrained
      // variable goes innermost. Ties keep the highest index innermost —
      // the prefix's natural order.
      std::vector<int> ordered = vars;
      std::stable_sort(ordered.begin(), ordered.end(), [&](int a, int b) {
        int oa = occurrences[static_cast<std::size_t>(a)];
        int ob = occurrences[static_cast<std::size_t>(b)];
        if (oa != ob) return oa > ob;
        return a < b;
      });
      block->prefix.reserve(ordered.size());
      for (int v : ordered) block->prefix.push_back({true, num_free_vars + v});
      block->fragment = ClassifyTuple(block->tuples[0]);
      ++plan.blocks;
      ++plan.dispatch[static_cast<int>(block->fragment)];
      kids.push_back(std::move(block));
    }
    if (component_vars.size() > 1) ++plan.component_splits;

    if (kids.size() == 1) {
      root->children.push_back(std::move(kids[0]));
    } else {
      auto product = std::make_shared<PlanNode>();
      product->kind = PlanNode::Kind::kProduct;
      product->children = std::move(kids);
      root->children.push_back(std::move(product));
    }
  }
  plan.root = root;
  return plan;
}

StatusOr<ConstraintRelation> ExecutePlan(const QueryPlan& plan,
                                         const QeOptions& options,
                                         QeStats* stats) {
  CCDB_CHECK(plan.root != nullptr);
  CCDB_METRIC_COUNT("qe.plan.executions", 1);
  CCDB_METRIC_COUNT("qe.plan.blocks", plan.blocks);
  CCDB_METRIC_COUNT("qe.plan.miniscope_pushes", plan.miniscope_pushes);
  CCDB_METRIC_COUNT("qe.plan.component_splits", plan.component_splits);
  CCDB_METRIC_COUNT("qe.plan.dispatch.fourier_motzkin", plan.dispatch[0]);
  CCDB_METRIC_COUNT("qe.plan.dispatch.cad", plan.dispatch[1]);
  CCDB_ASSIGN_OR_RETURN(ExecResult r,
                        ExecNode(*plan.root, plan.num_free_vars, options));
  stats->Merge(r.stats);
  return ConstraintRelation(plan.num_free_vars,
                            SimplifyTuples(std::move(r.tuples)));
}

}  // namespace ccdb
