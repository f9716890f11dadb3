#include "qe/qe.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/trace.h"
#include "plan/fragment.h"
#include "plan/planner.h"
#include "qe/cad.h"
#include "qe/dense_order.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe_cache.h"

namespace ccdb {

namespace {

Formula TuplesToFormula(const std::vector<GeneralizedTuple>& tuples) {
  std::vector<Formula> disjuncts;
  for (const GeneralizedTuple& tuple : tuples) {
    std::vector<Formula> conjuncts;
    for (const Atom& atom : tuple.atoms) {
      conjuncts.push_back(Formula::MakeAtom(atom));
    }
    disjuncts.push_back(Formula::And(conjuncts));
  }
  return Formula::Or(disjuncts);
}

std::vector<GeneralizedTuple> NegateTuples(
    const std::vector<GeneralizedTuple>& tuples) {
  return ToDnf(Formula::Not(TuplesToFormula(tuples)));
}

std::vector<Polynomial> CollectDistinctPolys(
    const std::vector<GeneralizedTuple>& tuples) {
  std::vector<Polynomial> polys;
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      bool seen = false;
      for (const Polynomial& p : polys) {
        if (p == atom.poly) {
          seen = true;
          break;
        }
      }
      if (!seen) polys.push_back(atom.poly);
    }
  }
  return polys;
}

// Truth of a DNF matrix given precomputed polynomial signs.
bool MatrixTruth(const std::vector<GeneralizedTuple>& tuples,
                 const std::vector<Polynomial>& polys,
                 const std::vector<int>& signs) {
  auto sign_of = [&](const Polynomial& p) {
    for (std::size_t i = 0; i < polys.size(); ++i) {
      if (polys[i] == p) return signs[i];
    }
    CCDB_CHECK_MSG(false, "polynomial missing from sign table");
    return 0;
  };
  for (const GeneralizedTuple& tuple : tuples) {
    bool all = true;
    for (const Atom& atom : tuple.atoms) {
      if (!SignSatisfies(sign_of(atom.poly), atom.op)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

RelOp OpForSign(int sign) {
  if (sign < 0) return RelOp::kLt;
  if (sign > 0) return RelOp::kGt;
  return RelOp::kEq;
}

// Virtual substitution for defining equations: when EVERY tuple either
// does not mention `var` or contains an equation p = 0 that is linear in
// `var` with a nonzero CONSTANT coefficient, "exists var" is eliminated by
// exact substitution var := g(rest) — no CAD needed — and the rewritten
// tuples replace *tuples (returns true). Otherwise *tuples is unchanged
// (returns false). This is what makes queries produced by the CALC_F
// function-approximation rewriting (t = h(x) conjuncts) cheap.
bool TrySubstituteInnermostExists(std::vector<GeneralizedTuple>* tuples,
                                  int var) {
  std::vector<GeneralizedTuple> rewritten;
  for (const GeneralizedTuple& tuple : *tuples) {
    int eq_index = -1;
    Polynomial solved;
    for (std::size_t i = 0; i < tuple.atoms.size(); ++i) {
      const Atom& atom = tuple.atoms[i];
      if (atom.op != RelOp::kEq || atom.poly.DegreeIn(var) != 1) continue;
      auto coeffs = atom.poly.CoefficientsIn(var);
      if (!coeffs[1].is_constant()) continue;
      solved = coeffs[0].Scale(-coeffs[1].constant_value().Inverse());
      eq_index = static_cast<int>(i);
      break;
    }
    if (eq_index < 0) {
      bool mentions = false;
      for (const Atom& atom : tuple.atoms) {
        if (atom.poly.Mentions(var)) {
          mentions = true;
          break;
        }
      }
      if (mentions) return false;  // cannot handle this tuple
      rewritten.push_back(tuple);
      continue;
    }
    GeneralizedTuple substituted;
    for (std::size_t i = 0; i < tuple.atoms.size(); ++i) {
      if (static_cast<int>(i) == eq_index) continue;
      const Atom& atom = tuple.atoms[i];
      // A whole-matrix peel sees every atom of the disjunct, most of them
      // free of `var`; those are kept as they are.
      if (!atom.poly.Mentions(var)) {
        substituted.atoms.push_back(atom);
        continue;
      }
      substituted.atoms.emplace_back(atom.poly.SubstitutePoly(var, solved),
                                     atom.op);
    }
    if (substituted.SimplifyConstants()) {
      rewritten.push_back(std::move(substituted));
    }
  }
  *tuples = std::move(rewritten);
  return true;
}

struct CadEvalResult {
  // Sign vectors (over the free-space factor set) of true / false
  // free-space cells.
  std::vector<std::vector<int>> true_vectors;
  std::vector<std::vector<int>> false_vectors;
  bool sentence_truth = false;  // when num_free_vars == 0
};

// Evaluates the quantifier prefix over a built CAD. prefix[i] quantifies
// variable num_free + i. Free-space cells are evaluated across `pool`:
// each cell's subtree is disjoint (sample coordinates are owned per cell,
// so lazy interval refinement never crosses threads) and the verdicts are
// merged in stack order, keeping the result thread-count independent.
StatusOr<CadEvalResult> EvaluateCad(const Cad& cad,
                                    const std::vector<PrenexBlock>& prefix,
                                    int num_free,
                                    const std::vector<GeneralizedTuple>& matrix,
                                    const std::vector<Polynomial>& matrix_polys,
                                    ThreadPool* pool) {
  int n = cad.num_vars();
  // Recursive truth of a cell.
  std::function<bool(const CadCell&)> truth = [&](const CadCell& cell) -> bool {
    int dim = cell.dimension();
    if (dim == n) {
      std::vector<int> signs;
      signs.reserve(matrix_polys.size());
      for (const Polynomial& p : matrix_polys) {
        signs.push_back(cell.sample.SignAt(p));
      }
      return MatrixTruth(matrix, matrix_polys, signs);
    }
    // Children live at variable index `dim`; its quantifier:
    CCDB_CHECK(dim >= num_free);
    const PrenexBlock& block = prefix[dim - num_free];
    if (block.is_exists) {
      for (const CadCell& child : cell.children) {
        if (truth(child)) return true;
      }
      return false;
    }
    for (const CadCell& child : cell.children) {
      if (!truth(child)) return false;
    }
    return true;
  };

  CadEvalResult result;
  if (num_free == 0) {
    // Sentence: combine the base stack with the first quantifier.
    CCDB_CHECK(!prefix.empty());
    if (prefix[0].is_exists) {
      result.sentence_truth = false;
      for (const CadCell& cell : cad.roots()) {
        if (truth(cell)) {
          result.sentence_truth = true;
          break;
        }
      }
    } else {
      result.sentence_truth = true;
      for (const CadCell& cell : cad.roots()) {
        if (!truth(cell)) {
          result.sentence_truth = false;
          break;
        }
      }
    }
    return result;
  }

  std::vector<Polynomial> free_factors = cad.FactorsBelow(num_free);
  std::vector<const CadCell*> free_cells;
  cad.ForEachCellAtDimension(
      num_free, [&free_cells](const CadCell& cell) { free_cells.push_back(&cell); });
  struct CellVerdict {
    std::vector<int> vector;
    bool truth = false;
  };
  CCDB_ASSIGN_OR_RETURN(
      std::vector<CellVerdict> verdicts,
      ThreadPool::Resolve(pool)->ParallelMap<CellVerdict>(
          free_cells.size(), [&](std::size_t i) -> StatusOr<CellVerdict> {
            const CadCell& cell = *free_cells[i];
            CellVerdict verdict;
            verdict.vector.reserve(free_factors.size());
            for (const Polynomial& p : free_factors) {
              verdict.vector.push_back(cell.sample.SignAt(p));
            }
            verdict.truth = truth(cell);
            return verdict;
          }));
  for (CellVerdict& verdict : verdicts) {
    if (verdict.truth) {
      result.true_vectors.push_back(std::move(verdict.vector));
    } else {
      result.false_vectors.push_back(std::move(verdict.vector));
    }
  }
  return result;
}

// Folds a public call's QeStats into the global metrics registry on every
// exit path (including errors and cache hits): one qe.calls and one
// qe.eliminate.us sample per call. CAD cells and projection factors are
// counted where a CAD is built (EliminateByCad), so a cache hit adds none.
struct QeMetricsFolder {
  const QeStats* s;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  ~QeMetricsFolder() {
    CCDB_METRIC_COUNT("qe.calls", 1);
    if (s->used_linear_path) CCDB_METRIC_COUNT("qe.linear_path", 1);
    if (s->used_dense_order_path) CCDB_METRIC_COUNT("qe.dense_order_path", 1);
    if (s->used_thom_augmentation) CCDB_METRIC_COUNT("qe.thom_augmentations", 1);
    CCDB_METRIC_MAX("qe.max_intermediate_bits", s->max_intermediate_bits);
    CCDB_METRIC_HISTOGRAM("qe.eliminate.us",
                          static_cast<std::uint64_t>(ElapsedUs(start)));
  }
};

}  // namespace

void QeStats::Merge(const QeStats& from) {
  cad_cells += from.cad_cells;
  projection_factors += from.projection_factors;
  fm_rounds += from.fm_rounds;
  cache_hits += from.cache_hits;
  max_intermediate_bits =
      std::max(max_intermediate_bits, from.max_intermediate_bits);
  used_linear_path |= from.used_linear_path;
  used_dense_order_path |= from.used_dense_order_path;
  used_thom_augmentation |= from.used_thom_augmentation;
}

std::string QeStats::ToString() const {
  std::ostringstream out;
  out << "cad_cells=" << cad_cells
      << " projection_factors=" << projection_factors
      << " fm_rounds=" << fm_rounds
      << " max_intermediate_bits=" << max_intermediate_bits
      << " linear_path=" << (used_linear_path ? "yes" : "no")
      << " dense_order_path=" << (used_dense_order_path ? "yes" : "no")
      << " thom_augmentation=" << (used_thom_augmentation ? "yes" : "no");
  if (!plan.empty()) out << " plan={" << plan << "}";
  return out.str();
}

std::string QeStats::ToJson() const {
  return JsonObjectBuilder()
      .Add("cad_cells", static_cast<std::uint64_t>(cad_cells))
      .Add("projection_factors", static_cast<std::uint64_t>(projection_factors))
      .Add("fm_rounds", fm_rounds)
      .Add("max_intermediate_bits", max_intermediate_bits)
      .Add("used_linear_path", used_linear_path)
      .Add("used_dense_order_path", used_dense_order_path)
      .Add("used_thom_augmentation", used_thom_augmentation)
      .Add("plan", plan)
      .Build();
}

std::uint64_t MaxCoefficientBits(const std::vector<GeneralizedTuple>& tuples) {
  std::uint64_t bits = 0;
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      bits = std::max(bits, atom.poly.MaxCoefficientBitLength());
    }
  }
  return bits;
}

void AddQeCounters(ProfileNode* node, const QeStats& stats) {
  auto add = [node](const char* name, std::uint64_t v) {
    if (v == 0 || node->HasCounter(name)) return;
    node->AddCounter(name, v);
  };
  add("cad_cells", stats.cad_cells);
  add("projection_factors", stats.projection_factors);
  add("fm_rounds", stats.fm_rounds);
  add("max_bits", stats.max_intermediate_bits);
  add("qe_cache_hits", stats.cache_hits);
}

StatusOr<std::uint64_t> PeelDefiningEquations(
    std::vector<GeneralizedTuple>* tuples, std::vector<PrenexBlock>* prefix,
    const QeOptions& options, QeStats* stats) {
  std::uint64_t peeled = 0;
  while (options.allow_equation_substitution && !prefix->empty() &&
         prefix->back().is_exists &&
         TrySubstituteInnermostExists(tuples, prefix->back().var)) {
    CCDB_CHECK_BUDGET(options.governor, "qe.drive");
    CCDB_METRIC_COUNT("qe.equation_substitutions", 1);
    ++peeled;
    prefix->pop_back();
    *tuples = SimplifyTuples(std::move(*tuples));
    stats->max_intermediate_bits =
        std::max(stats->max_intermediate_bits, MaxCoefficientBits(*tuples));
  }
  return peeled;
}

Status EliminateLinearPrefix(std::vector<GeneralizedTuple>* tuples,
                             const std::vector<PrenexBlock>& prefix,
                             Fragment fragment, const QeOptions& options,
                             QeStats* stats) {
  CCDB_TRACE_SPAN("qe.fourier_motzkin");
  const ResourceGovernor* gov = options.governor;
  const bool dense_order = fragment == Fragment::kDenseOrder;
  // Dense-order rounds assert closure over FO(<=) per round, so every
  // intermediate result stays inside the dense-order language.
  auto eliminate = [&](const std::vector<GeneralizedTuple>& in, int var) {
    return dense_order
               ? EliminateExistsDenseOrder(in, var, gov, options.pool)
               : EliminateExistsLinear(in, var, gov, options.pool);
  };
  stats->used_linear_path = true;
  stats->used_dense_order_path |= dense_order;
  for (auto block = prefix.rbegin(); block != prefix.rend(); ++block) {
    CCDB_CHECK_BUDGET(gov, "qe.fm");
    ++stats->fm_rounds;
    if (block->is_exists) {
      CCDB_ASSIGN_OR_RETURN(*tuples, eliminate(*tuples, block->var));
    } else {
      CCDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> negated,
                            eliminate(NegateTuples(*tuples), block->var));
      *tuples = NegateTuples(negated);
    }
    stats->max_intermediate_bits =
        std::max(stats->max_intermediate_bits, MaxCoefficientBits(*tuples));
  }
  return Status::Ok();
}

StatusOr<std::vector<GeneralizedTuple>> EliminateByCad(
    const std::vector<GeneralizedTuple>& tuples,
    const std::vector<PrenexBlock>& prefix, int num_free_vars,
    const QeOptions& options, QeStats* stats) {
  if (options.linear_only) {
    // Degradation rung: the caller asked for the linear fragment only.
    // Refusing CAD with kResourceExhausted lets policy ladders treat "this
    // rung cannot answer" uniformly with budget trips.
    return Status::ResourceExhausted(
        "stage=qe.drive reason=linear_only: query needs CAD but the policy "
        "restricts this attempt to the linear fragment");
  }
  CCDB_TRACE_SPAN("qe.cad_path");
  const ResourceGovernor* gov = options.governor;
  const int n = num_free_vars + static_cast<int>(prefix.size());
  std::vector<Polynomial> matrix_polys = CollectDistinctPolys(tuples);
  for (int attempt = 0; attempt < 2; ++attempt) {
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    CadOptions cad_options;
    cad_options.derivative_closure_below = attempt == 0 ? 0 : num_free_vars;
    cad_options.governor = gov;
    cad_options.pool = options.pool;
    if (attempt == 1) {
      stats->used_thom_augmentation = true;
      CCDB_LOG(INFO) << "QE: retrying CAD with Thom-derivative augmentation "
                        "(plain sign vectors could not separate cells)";
    }
    CCDB_ASSIGN_OR_RETURN(Cad cad,
                          Cad::Build(matrix_polys, n, cad_options));
    stats->cad_cells = cad.CountAllCells();
    stats->projection_factors = 0;
    for (int level = 0; level < n; ++level) {
      for (const Polynomial& p : cad.factors_at_level(level)) {
        stats->projection_factors++;
        stats->max_intermediate_bits =
            std::max(stats->max_intermediate_bits, p.MaxCoefficientBitLength());
      }
    }
    CCDB_METRIC_COUNT("qe.cad.cells", stats->cad_cells);
    CCDB_METRIC_COUNT("qe.cad.projection_factors", stats->projection_factors);

    CCDB_ASSIGN_OR_RETURN(
        CadEvalResult eval,
        EvaluateCad(cad, prefix, num_free_vars, tuples, matrix_polys,
                    options.pool));

    if (num_free_vars == 0) {
      std::vector<GeneralizedTuple> out;
      if (eval.sentence_truth) out.push_back(GeneralizedTuple());
      return out;
    }

    // Solution formula construction: distinct sign vectors of true cells,
    // valid when no false cell shares a vector with a true cell.
    bool collision = false;
    for (const auto& tv : eval.true_vectors) {
      for (const auto& fv : eval.false_vectors) {
        if (tv == fv) {
          collision = true;
          break;
        }
      }
      if (collision) break;
    }
    if (collision) {
      if (attempt == 0 && options.allow_thom_augmentation) continue;
      return Status::Internal(
          "solution formula construction failed: a true and a false cell "
          "share a sign vector even after Thom augmentation");
    }

    std::vector<Polynomial> free_factors = cad.FactorsBelow(num_free_vars);
    std::vector<std::vector<int>> distinct_vectors;
    for (const auto& tv : eval.true_vectors) {
      bool seen = false;
      for (const auto& existing : distinct_vectors) {
        if (existing == tv) {
          seen = true;
          break;
        }
      }
      if (!seen) distinct_vectors.push_back(tv);
    }
    std::vector<GeneralizedTuple> out;
    for (const auto& vec : distinct_vectors) {
      // With no factors below the free space the tuple stays empty: the
      // whole free space is true.
      GeneralizedTuple tuple;
      for (std::size_t i = 0; i < free_factors.size(); ++i) {
        tuple.atoms.emplace_back(free_factors[i], OpForSign(vec[i]));
      }
      out.push_back(std::move(tuple));
    }
    stats->max_intermediate_bits =
        std::max(stats->max_intermediate_bits, MaxCoefficientBits(out));
    return out;
  }
  return Status::Internal("unreachable: CAD attempts exhausted");
}

StatusOr<ConstraintRelation> EliminateQuantifiers(const Formula& formula,
                                                  int num_free_vars,
                                                  const QeOptions& options,
                                                  QeStats* stats) {
  CCDB_TRACE_SPAN("qe.eliminate");
  QeStats local_stats;
  QeStats* s = stats != nullptr ? stats : &local_stats;
  *s = QeStats();
  QeMetricsFolder folder{s};
  const ResourceGovernor* gov = options.governor;
  CCDB_FAILPOINT("qe.drive");
  CCDB_CHECK_BUDGET(gov, "qe.drive");

  CCDB_CHECK_MSG(!formula.has_relation_symbols(),
                 "instantiate relations before quantifier elimination");
  for (int v : formula.FreeVars()) {
    CCDB_CHECK_MSG(v < num_free_vars,
                   "free variable " << v << " beyond arity " << num_free_vars);
  }

  // Profile bookkeeping (observation only — arming a sink never changes
  // the answer, and the sink pointer is excluded from every cache key).
  ProfileSink* sink = options.profile;
  const auto prof_start = std::chrono::steady_clock::now();

  // Memoized path: only ungoverned runs may SKIP work via the cache, so
  // governed budget charging and degradation behaviour never depend on
  // cache temperature. (The failpoint above fires either way.) The cache
  // is a pure memo over the interned formula id — a hit is byte-identical
  // to recomputation.
  const bool use_cache = gov == nullptr && MemoCachesEnabled();
  QeCacheKey key;
  if (use_cache) {
    key = MakeQeCacheKey(formula, num_free_vars, options);
    QeCacheValue cached;
    if (QeResultCache().Lookup(key, &cached)) {
      *s = cached.stats;
      s->cache_hits += 1;
      if (sink != nullptr) {
        ProfileNode node;
        node.label = "qe[cached]";
        node.inclusive_us = ElapsedUs(prof_start);
        AddQeCounters(&node, *s);
        node.AddCounter("tuples_out", cached.relation.tuples().size());
        sink->Add(std::move(node));
      }
      return cached.relation;
    }
  }
  // One driver: normalize once, plan from the matrix fragment, execute.
  QueryPlan plan = PlanQuery(formula, num_free_vars, options);
  s->plan = plan.Summary();
  ProfileNode prof_root;
  CCDB_ASSIGN_OR_RETURN(
      ConstraintRelation result,
      ExecutePlan(plan, options, s, sink != nullptr ? &prof_root : nullptr));
  // Canonical presentation: sorting the union of canonicalized disjuncts
  // makes the answer independent of derivation order (and of the thread
  // count) — a no-op for semantics, since a union is order-insensitive.
  std::sort(result.mutable_tuples()->begin(), result.mutable_tuples()->end());
  if (use_cache) {
    // The stored stats describe the computation itself; the hit count is
    // zeroed so a replay reports exactly the hits it newly incurs.
    QeStats stored = *s;
    stored.cache_hits = 0;
    QeResultCache().Insert(key, QeCacheValue{formula, result, stored});
  }
  if (sink != nullptr) {
    prof_root.inclusive_us = ElapsedUs(prof_start);
    AddQeCounters(&prof_root, *s);
    if (!prof_root.HasCounter("tuples_out")) {
      prof_root.AddCounter("tuples_out", result.tuples().size());
    }
    sink->Add(std::move(prof_root));
  }
  return result;
}

StatusOr<bool> DecideSentence(const Formula& sentence, const QeOptions& options,
                              QeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(ConstraintRelation rel,
                        EliminateQuantifiers(sentence, 0, options, stats));
  return !rel.is_empty_syntactically();
}

}  // namespace ccdb
