#include "plan/planner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <sstream>

#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/trace.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe_cache.h"

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

void RenderNode(const PlanNode& node, const std::vector<std::string>& names,
                int depth, std::ostringstream* out) {
  std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  switch (node.kind) {
    case PlanNode::Kind::kLeaf:
      *out << indent << "leaf: " << TuplesToDisplay(node.tuples, names)
           << "\n";
      return;
    case PlanNode::Kind::kBlock:
    case PlanNode::Kind::kMonolithic: {
      *out << indent
           << (node.kind == PlanNode::Kind::kBlock ? "block[" : "monolithic[")
           << FragmentEngine(node.fragment) << "]";
      for (const PrenexBlock& block : node.prefix) {
        *out << (block.is_exists ? " exists " : " forall ")
             << VarName(block.var, names);
      }
      *out << ": " << TuplesToDisplay(node.tuples, names) << "\n";
      return;
    }
    case PlanNode::Kind::kProduct:
      *out << indent << "product\n";
      break;
    case PlanNode::Kind::kUnion:
      *out << indent << "union (" << node.children.size() << " member"
           << (node.children.size() == 1 ? "" : "s") << ")\n";
      break;
  }
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
// keeping the accumulation thread-count independent. The
// profile node (filled only when EXPLAIN ANALYZE armed a sink) rides the
// same channel for the same reason: parents splice children in plan
// order, so the attribution tree's shape is deterministic at every thread
// count.
struct ExecResult {
  std::vector<GeneralizedTuple> tuples;
  QeStats stats;
  ProfileNode profile;
};

Formula BlockToFormula(const std::vector<GeneralizedTuple>& tuples,
                       const std::vector<PrenexBlock>& prefix) {
  std::vector<Formula> disjuncts;
  disjuncts.reserve(tuples.size());
  for (const GeneralizedTuple& tuple : tuples) {
    std::vector<Formula> conjuncts;
    conjuncts.reserve(tuple.atoms.size());
    for (const Atom& atom : tuple.atoms) {
      conjuncts.push_back(Formula::MakeAtom(atom));
    }
    disjuncts.push_back(Formula::And(conjuncts));
  }
  Formula f = Formula::Or(disjuncts);
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
  const Fragment fragment = options.allow_linear_fast_path
                                ? ClassifyTuples(*tuples)
                                : Fragment::kPolynomial;
  if (fragment != Fragment::kPolynomial) {
    CCDB_RETURN_IF_ERROR(
        EliminateLinearPrefix(tuples, prefix, fragment, options, stats));
  } else {
    CCDB_ASSIGN_OR_RETURN(*tuples, EliminateByCad(*tuples, prefix,
                                                  num_free_vars, options,
                                                  stats));
  }
  return peeled;
}

// A polynomial block's residue after peeling, as a compact normal form —
// its variables renumbered in elimination order, its matrix DNF-sorted —
// eliminated by the whole-matrix sequence behind a block-level memo. The
// memo's keys carry the block-residue bit, so they never alias a
// whole-query entry (whose stats carry the plan summary).
Status EliminateResidue(std::vector<GeneralizedTuple>* tuples,
                        const std::vector<PrenexBlock>& prefix,
                        int num_free_vars, const QeOptions& options,
                        QeStats* stats) {
  Formula residue = BlockToFormula(*tuples, prefix);
  const bool use_cache = options.governor == nullptr && MemoCachesEnabled();
  QeCacheKey key;
  if (use_cache) {
    key = MakeQeCacheKey(residue, num_free_vars, options,
                         /*block_residue=*/true);
    QeCacheValue cached;
    if (QeResultCache().Lookup(key, &cached)) {
      stats->Merge(cached.stats);
      ++stats->cache_hits;
      *tuples = cached.relation.tuples();
      return Status::Ok();
    }
  }
  QeNormalForm normal = NormalizeForQe(residue, num_free_vars);
  QeStats sub;
  sub.max_intermediate_bits = MaxCoefficientBits(normal.tuples);
  CCDB_RETURN_IF_ERROR(EliminateMatrix(&normal.tuples, std::move(normal.prefix),
                                       num_free_vars, options, &sub)
                           .status());
  *tuples = SimplifyTuples(std::move(normal.tuples));
  stats->Merge(sub);
  if (use_cache) {
    QeResultCache().Insert(
        key, QeCacheValue{residue, ConstraintRelation(num_free_vars, *tuples),
                          sub});
  }
  return Status::Ok();
}

StatusOr<ExecResult> ExecNode(const PlanNode& node, int num_free_vars,
                              const QeOptions& options, bool profiling);

// Eliminates one block with its fragment's engine: peel defining equations
// innermost-first, then dense-order / Fourier-Motzkin rounds; polynomial
// residue goes through EliminateResidue.
StatusOr<ExecResult> ExecBlock(const PlanNode& node, int num_free_vars,
                               const QeOptions& options, bool profiling) {
  const auto start = std::chrono::steady_clock::now();
  ExecResult r;
  r.tuples = node.tuples;
  r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
  std::vector<PrenexBlock> prefix = node.prefix;
  CCDB_ASSIGN_OR_RETURN(
      std::uint64_t peeled,
      PeelDefiningEquations(&r.tuples, &prefix, options, &r.stats));
  if (!prefix.empty() && node.fragment != Fragment::kPolynomial) {
    CCDB_RETURN_IF_ERROR(EliminateLinearPrefix(&r.tuples, prefix,
                                               node.fragment, options,
                                               &r.stats));
  } else if (!prefix.empty()) {
    CCDB_RETURN_IF_ERROR(
        EliminateResidue(&r.tuples, prefix, num_free_vars, options, &r.stats));
  }
  if (profiling) {
    r.profile.label = std::string("block[") + FragmentEngine(node.fragment) +
                      "] exists";
    for (const PrenexBlock& block : node.prefix) {
      r.profile.label += " x" + std::to_string(block.var);
    }
    r.profile.inclusive_us = ElapsedUs(start);
    if (peeled > 0) r.profile.AddCounter("substitutions", peeled);
    AddQeCounters(&r.profile, r.stats);
    r.profile.AddCounter("tuples_out", r.tuples.size());
  }
  return r;
}

StatusOr<ExecResult> ExecNode(const PlanNode& node, int num_free_vars,
                              const QeOptions& options, bool profiling) {
  const ResourceGovernor* gov = options.governor;
  const auto start = std::chrono::steady_clock::now();
  switch (node.kind) {
    case PlanNode::Kind::kLeaf: {
      ExecResult r;
      r.tuples = node.tuples;
      r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
      if (profiling) {
        r.profile.label = "leaf";
        r.profile.inclusive_us = ElapsedUs(start);
        r.profile.AddCounter("tuples_out", r.tuples.size());
      }
      return r;
    }
    case PlanNode::Kind::kBlock:
      return ExecBlock(node, num_free_vars, options, profiling);
    case PlanNode::Kind::kMonolithic: {
      ExecResult r;
      r.tuples = node.tuples;
      r.stats.max_intermediate_bits = MaxCoefficientBits(r.tuples);
      CCDB_ASSIGN_OR_RETURN(std::uint64_t peeled,
                            EliminateMatrix(&r.tuples, node.prefix,
                                            num_free_vars, options, &r.stats));
      if (profiling) {
        r.profile.label =
            std::string("monolithic[") + FragmentEngine(node.fragment) + "]";
        r.profile.inclusive_us = ElapsedUs(start);
        if (peeled > 0) r.profile.AddCounter("substitutions", peeled);
        AddQeCounters(&r.profile, r.stats);
        r.profile.AddCounter("tuples_out", r.tuples.size());
      }
      return r;
    }
    case PlanNode::Kind::kProduct: {
      // Cartesian recombination of independent factors, in child order:
      // sound because the children's quantified supports are disjoint and
      // deterministic because the nesting order is a plan decision.
      ExecResult r;
      r.tuples = {GeneralizedTuple()};
      for (const auto& child : node.children) {
        CCDB_CHECK_BUDGET(gov, "qe.drive");
        CCDB_ASSIGN_OR_RETURN(
            ExecResult part,
            ExecNode(*child, num_free_vars, options, profiling));
        r.stats.Merge(part.stats);
        if (profiling) r.profile.children.push_back(std::move(part.profile));
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
      if (profiling) {
        r.profile.label = "product";
        r.profile.inclusive_us = ElapsedUs(start);
        r.profile.AddCounter("tuples_out", r.tuples.size());
      }
      return r;
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
                return ExecNode(*node.children[i], num_free_vars, options,
                                profiling);
              }));
      ExecResult r;
      for (ExecResult& slot : slots) {
        r.stats.Merge(slot.stats);
        if (profiling) r.profile.children.push_back(std::move(slot.profile));
        for (GeneralizedTuple& tuple : slot.tuples) {
          r.tuples.push_back(std::move(tuple));
        }
      }
      if (profiling) {
        // Inclusive time is the union's wall time (the parallel wait);
        // children may sum past it, which exclusive_us() clamps at 0.
        r.profile.label = "union";
        r.profile.inclusive_us = ElapsedUs(start);
        r.profile.AddCounter("members", node.children.size());
        r.profile.AddCounter("tuples_out", r.tuples.size());
      }
      return r;
    }
  }
  return Status::Internal("unreachable plan node kind");
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
      << " [dense_order=" << dispatch[0]
      << " fourier_motzkin=" << dispatch[1] << " cad=" << dispatch[2]
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

QueryPlan PlanQuery(const Formula& formula, int num_free_vars,
                    const QeOptions& options) {
  CCDB_TRACE_SPAN("qe.plan");
  CCDB_METRIC_COUNT("qe.plan.built", 1);
  QueryPlan plan;
  plan.num_free_vars = num_free_vars;

  QeNormalForm normal = NormalizeForQe(formula, num_free_vars);
  std::vector<GeneralizedTuple>& tuples = normal.tuples;
  const int q = static_cast<int>(normal.prefix.size());
  if (q == 0) {
    plan.root = MakeLeaf(std::move(tuples));
    return plan;
  }

  // The matrix fragment picks the shape. Linear and dense-order matrices
  // take one whole-union pass of their engine; so do universal prefixes
  // (miniscoping ∃ over ∨ needs an all-existential prefix) and — with the
  // disjunct-split ablation knob off — multi-disjunct unions.
  bool all_exists = true;
  for (const PrenexBlock& block : normal.prefix) {
    if (!block.is_exists) all_exists = false;
  }
  const Fragment fragment = options.allow_linear_fast_path
                                ? ClassifyTuples(tuples)
                                : Fragment::kPolynomial;
  if (fragment != Fragment::kPolynomial || !all_exists ||
      (!options.allow_disjunct_split && tuples.size() > 1)) {
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
      block->fragment = options.allow_linear_fast_path
                            ? ClassifyTuple(block->tuples[0])
                            : Fragment::kPolynomial;
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
                                         QeStats* stats,
                                         ProfileNode* profile) {
  CCDB_TRACE_SPAN("qe.plan.execute");
  CCDB_CHECK(plan.root != nullptr);
  CCDB_METRIC_COUNT("qe.plan.executions", 1);
  CCDB_METRIC_COUNT("qe.plan.blocks", plan.blocks);
  CCDB_METRIC_COUNT("qe.plan.miniscope_pushes", plan.miniscope_pushes);
  CCDB_METRIC_COUNT("qe.plan.component_splits", plan.component_splits);
  CCDB_METRIC_COUNT("qe.plan.dispatch.dense_order", plan.dispatch[0]);
  CCDB_METRIC_COUNT("qe.plan.dispatch.fourier_motzkin", plan.dispatch[1]);
  CCDB_METRIC_COUNT("qe.plan.dispatch.cad", plan.dispatch[2]);
  CCDB_ASSIGN_OR_RETURN(
      ExecResult r,
      ExecNode(*plan.root, plan.num_free_vars, options, profile != nullptr));
  stats->Merge(r.stats);
  if (profile != nullptr) *profile = std::move(r.profile);
  return ConstraintRelation(plan.num_free_vars,
                            SimplifyTuples(std::move(r.tuples)));
}

}  // namespace ccdb
