#include "qe/qe.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "plan/planner.h"
#include "qe/cad.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe_cache.h"

namespace ccdb {

namespace {

// The DNF of ¬(t1 ∨ ... ∨ tm): a product over the tuples of their negated
// atoms, charged to `gov` as it is built (ToDnf).
StatusOr<std::vector<GeneralizedTuple>> NegateTuples(
    const std::vector<GeneralizedTuple>& tuples, const ResourceGovernor* gov) {
  return ToDnf(Formula::Not(TuplesToFormula(tuples)), gov);
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

// Folds a public call's QeStats into the global metrics registry on every
// exit path (including errors and cache hits): one qe.calls per call. CAD
// cells and projection factors are counted where a CAD is built
// (EliminateByCad), so a cache hit adds none.
struct QeMetricsFolder {
  const QeStats* s;
  ~QeMetricsFolder() {
    CCDB_METRIC_COUNT("qe.calls", 1);
    if (s->used_linear_path) CCDB_METRIC_COUNT("qe.linear_path", 1);
    if (s->used_thom_augmentation) CCDB_METRIC_COUNT("qe.thom_augmentations", 1);
    CCDB_METRIC_MAX("qe.max_intermediate_bits", s->max_intermediate_bits);
  }
};

}  // namespace

void QeStats::Merge(const QeStats& from) {
  cad_cells += from.cad_cells;
  projection_factors += from.projection_factors;
  fm_rounds += from.fm_rounds;
  max_intermediate_bits =
      std::max(max_intermediate_bits, from.max_intermediate_bits);
  used_linear_path |= from.used_linear_path;
  used_thom_augmentation |= from.used_thom_augmentation;
}

std::string QeStats::ToString() const {
  std::ostringstream out;
  out << "cad_cells=" << cad_cells
      << " projection_factors=" << projection_factors
      << " fm_rounds=" << fm_rounds
      << " max_intermediate_bits=" << max_intermediate_bits
      << " linear_path=" << (used_linear_path ? "yes" : "no")
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

StatusOr<std::uint64_t> PeelDefiningEquations(
    std::vector<GeneralizedTuple>* tuples, std::vector<PrenexBlock>* prefix,
    const QeOptions& options, QeStats* stats) {
  std::uint64_t peeled = 0;
  while (!prefix->empty() && prefix->back().is_exists &&
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
                             const QeOptions& options, QeStats* stats) {
  TraceSpan span("qe.fourier_motzkin");
  span.AddCounter("fm_rounds", prefix.size());
  const ResourceGovernor* gov = options.governor;
  stats->used_linear_path = true;
  for (auto block = prefix.rbegin(); block != prefix.rend(); ++block) {
    CCDB_CHECK_BUDGET(gov, "qe.fm");
    ++stats->fm_rounds;
    if (block->is_exists) {
      CCDB_ASSIGN_OR_RETURN(
          *tuples, EliminateExistsLinear(*tuples, block->var, gov,
                                         options.pool));
    } else {
      CCDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> negated,
                            NegateTuples(*tuples, gov));
      CCDB_ASSIGN_OR_RETURN(
          negated, EliminateExistsLinear(negated, block->var, gov,
                                         options.pool));
      CCDB_ASSIGN_OR_RETURN(*tuples, NegateTuples(negated, gov));
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
  CCDB_TRACE_SPAN("qe.cad_path");
  const ResourceGovernor* gov = options.governor;
  const int n = num_free_vars + static_cast<int>(prefix.size());
  std::vector<Polynomial> matrix_polys = CollectDistinctPolys(tuples);
  // Truth of a cell under the quantifier prefix: prefix[i] quantifies
  // variable num_free_vars + i, and full-dimensional cells test the matrix.
  std::function<bool(const CadCell&)> truth = [&](const CadCell& cell) {
    int dim = cell.dimension();
    if (dim == n) return cell.sample.Satisfies(tuples);
    CCDB_CHECK(dim >= num_free_vars);
    const std::vector<CadCell>& kids = cell.children;
    return prefix[dim - num_free_vars].is_exists
               ? std::any_of(kids.begin(), kids.end(), std::cref(truth))
               : std::all_of(kids.begin(), kids.end(), std::cref(truth));
  };
  // Every CAD built is counted; the stats describe the last one, which is
  // the one that answered.
  auto count_cad = [&](const Cad& cad) {
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
  };

  if (num_free_vars == 0) {
    // Sentence: combine the base stack with the first quantifier.
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    CadOptions cad_options;
    cad_options.governor = gov;
    cad_options.pool = options.pool;
    CCDB_ASSIGN_OR_RETURN(Cad cad, Cad::Build(matrix_polys, n, cad_options));
    count_cad(cad);
    CCDB_CHECK(!prefix.empty());
    const std::vector<CadCell>& roots = cad.roots();
    const bool holds =
        prefix[0].is_exists
            ? std::any_of(roots.begin(), roots.end(), std::cref(truth))
            : std::all_of(roots.begin(), roots.end(), std::cref(truth));
    std::vector<GeneralizedTuple> out;
    if (holds) out.push_back(GeneralizedTuple());
    return out;
  }

  // Solution formula: the distinct sign vectors of the true free-space
  // cells. Free cells are evaluated across the pool: each cell's subtree
  // is disjoint (sample coordinates are owned per cell, so lazy interval
  // refinement never crosses threads).
  SolutionFormulaSpec spec;
  spec.polys = std::move(matrix_polys);
  spec.num_vars = n;
  spec.num_free = num_free_vars;
  spec.cad.governor = gov;
  spec.cad.pool = options.pool;
  spec.label_pool = options.pool;
  spec.label = [&](const CadCell& cell) -> StatusOr<CellLabel> {
    if (truth(cell)) return CellLabel(std::vector<Atom>());
    return CellLabel();
  };
  spec.before_attempt = [&](int attempt) -> Status {
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    if (attempt == 1) {
      stats->used_thom_augmentation = true;
      CCDB_LOG(INFO) << "QE: retrying CAD with Thom-derivative augmentation "
                        "(plain sign vectors could not separate cells)";
    }
    return Status::Ok();
  };
  spec.on_cad = count_cad;
  CCDB_ASSIGN_OR_RETURN(SolutionFormula formula, BuildSolutionFormula(spec));
  // With no factors below the free space a row's tuple stays empty: the
  // whole free space is true.
  std::vector<GeneralizedTuple> out;
  for (const SolutionFormula::Row& row : formula.rows) {
    out.push_back(SignConditions(formula.factors, row.signs));
  }
  stats->max_intermediate_bits =
      std::max(stats->max_intermediate_bits, MaxCoefficientBits(out));
  return out;
}

StatusOr<ConstraintRelation> EliminateQuantifiers(const Formula& formula,
                                                  int num_free_vars,
                                                  const QeOptions& options,
                                                  QeStats* stats) {
  TraceSpan span("qe.eliminate");
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

  // Memoized path: only ungoverned runs touch the cache, so governed
  // budget charging never depends on cache temperature. (The failpoint
  // above fires either way.) The cache is a pure memo over the interned
  // formula id — a hit is byte-identical to recomputation.
  const bool use_cache = gov == nullptr && MemoCachesEnabled();
  QeCacheKey key;
  if (use_cache) {
    key = MakeQeCacheKey(formula, num_free_vars);
    QeCacheValue cached;
    if (QeResultCache().Lookup(key, &cached)) {
      *s = cached.stats;
      s->elapsed_us = span.ElapsedUs();
      // A hit has no subtree: its node carries the replayed totals.
      if (span.profiling()) {
        span.SetLabel("qe[cached]");
        if (s->cad_cells > 0) span.AddCounter("cad_cells", s->cad_cells);
        if (s->fm_rounds > 0) span.AddCounter("fm_rounds", s->fm_rounds);
        span.AddCounter("max_bits", s->max_intermediate_bits);
        span.AddCounter("tuples_out", cached.relation.tuples().size());
      }
      return cached.relation;
    }
  }
  // One driver: normalize once, plan from the matrix fragment, execute.
  CCDB_ASSIGN_OR_RETURN(QueryPlan plan,
                        PlanQuery(formula, num_free_vars, gov));
  s->plan = plan.Summary();
  CCDB_ASSIGN_OR_RETURN(ConstraintRelation result,
                        ExecutePlan(plan, options, s));
  // Canonical presentation: sorting the union of canonicalized disjuncts
  // makes the answer independent of derivation order (and of the thread
  // count) — a no-op for semantics, since a union is order-insensitive.
  std::sort(result.mutable_tuples()->begin(), result.mutable_tuples()->end());
  if (use_cache) {
    QeResultCache().Insert(key, QeCacheValue{formula, result, *s});
  }
  s->elapsed_us = span.ElapsedUs();
  span.AddCounter("max_bits", s->max_intermediate_bits);
  span.AddCounter("tuples_out", result.tuples().size());
  return result;
}

StatusOr<bool> DecideSentence(const Formula& sentence, const QeOptions& options,
                              QeStats* stats) {
  CCDB_ASSIGN_OR_RETURN(ConstraintRelation rel,
                        EliminateQuantifiers(sentence, 0, options, stats));
  return !rel.is_empty_syntactically();
}

}  // namespace ccdb
