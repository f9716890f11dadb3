#include "qe/cad.h"

#include <algorithm>
#include <map>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "poly/resultant.h"
#include "poly/root_isolation.h"

namespace ccdb {

Rational RationalBetween(const AlgebraicNumber& a, const AlgebraicNumber& b) {
  CCDB_DCHECK(a.Compare(b) < 0);
  // Refine until the isolating intervals separate strictly.
  while (!(a.isolating_interval().hi() < b.isolating_interval().lo())) {
    if (a.is_rational() && b.is_rational()) {
      return Rational::Midpoint(a.rational_value(), b.rational_value());
    }
    Rational wa = a.isolating_interval().Width();
    Rational wb = b.isolating_interval().Width();
    Rational half(BigInt(1), BigInt(2));
    if (!a.is_rational()) a.RefineTo(wa * half);
    if (!b.is_rational()) b.RefineTo(wb * half);
    // For exact endpoints the loop must still terminate: if both became
    // rational the branch above fires next iteration; if one is rational
    // the other's interval shrinks toward a different value.
  }
  return Rational::Midpoint(a.isolating_interval().hi(),
                            b.isolating_interval().lo());
}

std::vector<AlgebraicNumber> MergeRoots(
    std::vector<std::vector<AlgebraicNumber>> root_lists) {
  std::vector<AlgebraicNumber> merged;
  for (auto& list : root_lists) {
    for (AlgebraicNumber& root : list) {
      merged.push_back(std::move(root));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const AlgebraicNumber& x, const AlgebraicNumber& y) {
              return x.Compare(y) < 0;
            });
  std::vector<AlgebraicNumber> distinct;
  for (AlgebraicNumber& root : merged) {
    if (distinct.empty() || distinct.back().Compare(root) != 0) {
      distinct.push_back(std::move(root));
    }
  }
  return distinct;
}

std::vector<AlgebraicNumber> StackCoordinates(
    const std::vector<AlgebraicNumber>& roots) {
  std::vector<AlgebraicNumber> coords;
  if (roots.empty()) {
    coords.emplace_back(Rational(0));
    return coords;
  }
  // Leftmost sector: below the first root.
  coords.emplace_back(roots.front().isolating_interval().lo() - Rational(1));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    coords.push_back(roots[i]);
    if (i + 1 < roots.size()) {
      coords.emplace_back(RationalBetween(roots[i], roots[i + 1]));
    }
  }
  coords.emplace_back(roots.back().isolating_interval().hi() + Rational(1));
  return coords;
}

namespace {

// Collins-style projection of the factor set B (main variable `var`): all
// nonconstant coefficients, discriminants, and pairwise resultants. The
// paper's Appendix I: "polynomials of PROJ(P_i) are formed by addition,
// subtraction, and multiplication of the coefficients ... with the
// technique of subresultants".
StatusOr<std::vector<Polynomial>> Project(const std::vector<Polynomial>& basis,
                                          int var,
                                          const ResourceGovernor* gov) {
  std::vector<Polynomial> out;
  auto add = [&out, gov](Polynomial p) {
    if (p.is_constant()) return;
    Polynomial normalized = p.IntegerNormalized();
    for (const Polynomial& existing : out) {
      if (existing == normalized) return;
    }
    if (gov != nullptr) {
      gov->ChargeBytes(normalized.EstimateBytes());
    }
    out.push_back(std::move(normalized));
  };
  for (const Polynomial& p : basis) {
    CCDB_CHECK_BUDGET(gov, "cad.project");
    for (const Polynomial& coeff : p.CoefficientsIn(var)) {
      add(coeff);
    }
    if (p.DegreeIn(var) >= 2) {
      CCDB_METRIC_COUNT("cad.discriminants", 1);
      CCDB_ASSIGN_OR_RETURN(Polynomial disc,
                            Discriminant(p, var, gov));
      add(std::move(disc));
    }
  }
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      if (basis[i].DegreeIn(var) >= 1 && basis[j].DegreeIn(var) >= 1) {
        CCDB_CHECK_BUDGET(gov, "cad.project");
        CCDB_METRIC_COUNT("cad.resultants", 1);
        CCDB_ASSIGN_OR_RETURN(Polynomial res,
                              Resultant(basis[i], basis[j], var, gov));
        add(std::move(res));
      }
    }
  }
  return out;
}

// Closes a factor set under derivatives with respect to each factor's main
// variable, then re-extracts a squarefree basis; iterates to a fixpoint
// (bounded by the total degree, which strictly drops along derivatives).
StatusOr<std::vector<Polynomial>> DerivativeClosure(
    std::vector<Polynomial> basis, const ResourceGovernor* gov) {
  for (int guard = 0; guard < 64; ++guard) {
    CCDB_CHECK_BUDGET(gov, "cad.project");
    std::vector<Polynomial> augmented = basis;
    for (const Polynomial& p : basis) {
      int var = p.max_var();
      if (var < 0) continue;
      Polynomial d = p.Derivative(var);
      if (d.is_constant()) continue;
      augmented.push_back(d);
    }
    CCDB_ASSIGN_OR_RETURN(std::vector<Polynomial> next,
                          SquarefreeBasis(augmented, gov));
    if (next.size() == basis.size()) {
      bool same = true;
      for (std::size_t i = 0; i < next.size(); ++i) {
        if (!(next[i] == basis[i])) {
          same = false;
          break;
        }
      }
      if (same) return basis;
    }
    basis = std::move(next);
  }
  return basis;
}

}  // namespace

StatusOr<Cad> Cad::Build(const std::vector<Polynomial>& polys, int num_vars,
                         const CadOptions& options) {
  TraceSpan span("cad.build");
  CCDB_METRIC_COUNT("cad.builds", 1);
  CCDB_CHECK_MSG(num_vars >= 1, "CAD needs at least one variable");
  Cad cad;
  cad.num_vars_ = num_vars;
  cad.factors_.assign(num_vars, {});

  // Bucket inputs by their main (highest) variable.
  std::vector<std::vector<Polynomial>> level_sets(num_vars);
  for (const Polynomial& p : polys) {
    if (p.is_constant()) continue;
    CCDB_CHECK_MSG(p.max_var() < num_vars,
                   "input polynomial mentions variable beyond num_vars");
    level_sets[p.max_var()].push_back(p);
  }

  const ResourceGovernor* gov = options.governor;

  // Projection phase, top level downwards.
  {
    CCDB_TRACE_SPAN("cad.projection");
    CCDB_FAILPOINT("cad.project");
    for (int level = num_vars - 1; level >= 0; --level) {
      CCDB_CHECK_BUDGET(gov, "cad.project");
      CCDB_ASSIGN_OR_RETURN(std::vector<Polynomial> basis,
                            SquarefreeBasis(level_sets[level], gov));
      if (level < options.derivative_closure_below) {
        CCDB_ASSIGN_OR_RETURN(basis, DerivativeClosure(std::move(basis), gov));
      }
      if (level > 0) {
        CCDB_ASSIGN_OR_RETURN(std::vector<Polynomial> projected_set,
                              Project(basis, level, gov));
        for (Polynomial& projected : projected_set) {
          int target = projected.max_var();
          CCDB_DCHECK(target < level);
          level_sets[target].push_back(std::move(projected));
        }
      }
      cad.factors_[level] = std::move(basis);
    }
  }

  // Base phase: roots of the level-0 factors.
  {
    CCDB_TRACE_SPAN("cad.base");
    CCDB_FAILPOINT("cad.base");
    std::vector<std::vector<AlgebraicNumber>> base_roots;
    for (const Polynomial& p : cad.factors_[0]) {
      CCDB_CHECK_BUDGET(gov, "cad.base");
      auto u = UPoly::FromPolynomial(p, 0);
      CCDB_CHECK(u.ok());
      CCDB_ASSIGN_OR_RETURN(std::vector<AlgebraicNumber> roots,
                            AlgebraicNumber::RootsOf(*u, gov));
      base_roots.push_back(std::move(roots));
    }
    std::vector<AlgebraicNumber> sections = MergeRoots(std::move(base_roots));
    std::vector<AlgebraicNumber> coords = StackCoordinates(sections);
    for (std::size_t i = 0; i < coords.size(); ++i) {
      CadCell cell;
      cell.index.push_back(static_cast<int>(i) + 1);
      cell.sample.Append(std::move(coords[i]));
      cad.roots_.push_back(std::move(cell));
    }
  }

  // Lifting phase. Each stack construction charges one step; every created
  // cell charges tracked bytes, so a byte budget bounds the cell explosion
  // even when individual stacks are cheap.
  std::function<Status(CadCell&, int)> lift = [&](CadCell& cell,
                                                  int level) -> Status {
    if (level >= num_vars) return Status::Ok();
    CCDB_CHECK_BUDGET(gov, "cad.lift");
    std::vector<std::vector<AlgebraicNumber>> stack_roots;
    for (const Polynomial& p : cad.factors_[level]) {
      auto roots = cell.sample.StackRoots(p, gov);
      if (!roots.ok()) {
        if (roots.status().code() == StatusCode::kInvalidArgument) {
          // The factor vanishes identically over this stack: it
          // contributes no sections (its sign is 0 everywhere here).
          continue;
        }
        return roots.status();
      }
      stack_roots.push_back(std::move(*roots));
    }
    std::vector<AlgebraicNumber> merged = MergeRoots(std::move(stack_roots));
    std::vector<AlgebraicNumber> stack_coords = StackCoordinates(merged);
    for (std::size_t i = 0; i < stack_coords.size(); ++i) {
      CadCell child;
      child.index = cell.index;
      child.index.push_back(static_cast<int>(i) + 1);
      child.sample = cell.sample.Extended(std::move(stack_coords[i]));
      if (gov != nullptr) {
        gov->ChargeBytes(sizeof(CadCell) +
                         child.index.size() * sizeof(int) +
                         static_cast<std::size_t>(child.sample.dimension()) *
                             64);
      }
      cell.children.push_back(std::move(child));
    }
    for (CadCell& child : cell.children) {
      CCDB_RETURN_IF_ERROR(lift(child, level + 1));
    }
    return Status::Ok();
  };
  {
    CCDB_TRACE_SPAN("cad.lift");
    CCDB_FAILPOINT("cad.lift");
    // Base-phase cells lift as independent stacks: each subtree writes
    // only its own cells and refines only its own sample coordinates, the
    // projection factor sets are read-only, and the shared governor is
    // atomic. Cells stay index-addressed inside cad.roots_, so the tree
    // is assembled in stack order regardless of completion order.
    CCDB_RETURN_IF_ERROR(ThreadPool::Resolve(options.pool)
                             ->ParallelFor(cad.roots_.size(),
                                           [&](std::size_t i) -> Status {
                                             return lift(cad.roots_[i], 1);
                                           }));
  }
  const std::size_t cells = cad.CountAllCells();
  CCDB_METRIC_COUNT("cad.cells", cells);
  span.AddCounter("cad_cells", cells);
  return cad;
}

std::vector<Polynomial> Cad::FactorsBelow(int dim) const {
  std::vector<Polynomial> out;
  for (int level = 0; level < dim && level < num_vars_; ++level) {
    out.insert(out.end(), factors_[level].begin(), factors_[level].end());
  }
  return out;
}

void Cad::ForEachCellAtDimension(
    int dim, const std::function<void(const CadCell&)>& fn) const {
  std::function<void(const CadCell&)> walk = [&](const CadCell& cell) {
    if (cell.dimension() == dim) {
      fn(cell);
      return;
    }
    for (const CadCell& child : cell.children) walk(child);
  };
  for (const CadCell& cell : roots_) walk(cell);
}

std::size_t Cad::CountLeafCells() const {
  std::size_t count = 0;
  ForEachCellAtDimension(num_vars_,
                         [&count](const CadCell&) { ++count; });
  return count;
}

std::size_t Cad::CountAllCells() const {
  std::size_t count = 0;
  std::function<void(const CadCell&)> walk = [&](const CadCell& cell) {
    ++count;
    for (const CadCell& child : cell.children) walk(child);
  };
  for (const CadCell& cell : roots_) walk(cell);
  return count;
}

StatusOr<SolutionFormula> BuildSolutionFormula(
    const SolutionFormulaSpec& spec) {
  CCDB_CHECK(spec.num_free >= 1 && spec.num_free <= spec.num_vars);
  struct LabeledCell {
    std::vector<int> signs;
    CellLabel label;
  };
  ThreadPool* label_pool = ThreadPool::Resolve(spec.label_pool);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (spec.before_attempt) CCDB_RETURN_IF_ERROR(spec.before_attempt(attempt));
    CadOptions cad_options = spec.cad;
    cad_options.derivative_closure_below = attempt == 0 ? 0 : spec.num_free;
    CCDB_ASSIGN_OR_RETURN(Cad cad,
                          Cad::Build(spec.polys, spec.num_vars, cad_options));
    if (spec.on_cad) spec.on_cad(cad);

    SolutionFormula formula;
    formula.factors = cad.FactorsBelow(spec.num_free);
    std::vector<const CadCell*> cells;
    cad.ForEachCellAtDimension(spec.num_free, [&cells](const CadCell& cell) {
      cells.push_back(&cell);
    });
    CCDB_ASSIGN_OR_RETURN(
        std::vector<LabeledCell> labeled,
        label_pool->ParallelMap<LabeledCell>(
            cells.size(), [&](std::size_t i) -> StatusOr<LabeledCell> {
              LabeledCell out;
              out.signs.reserve(formula.factors.size());
              for (const Polynomial& f : formula.factors) {
                out.signs.push_back(cells[i]->sample.SignAt(f));
              }
              CCDB_ASSIGN_OR_RETURN(out.label, spec.label(*cells[i]));
              return out;
            }));

    // The first verdict per sign vector; a later different one collides.
    std::map<std::vector<int>, const CellLabel*> first;
    bool collision = false;
    for (const LabeledCell& cell : labeled) {
      auto [it, inserted] = first.emplace(cell.signs, &cell.label);
      if (!inserted && *it->second != cell.label) {
        collision = true;
        break;
      }
      if (inserted && cell.label.has_value()) {
        formula.rows.push_back({cell.signs, *cell.label});
      }
    }
    if (!collision) return formula;
  }
  return Status::Internal(
      "solution formula construction failed: cells with different verdicts "
      "share a sign vector on both the plain and the Thom-augmented CAD");
}

GeneralizedTuple SignConditions(const std::vector<Polynomial>& factors,
                                const std::vector<int>& signs) {
  GeneralizedTuple tuple;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    RelOp op = signs[i] < 0 ? RelOp::kLt
               : signs[i] > 0 ? RelOp::kGt
                              : RelOp::kEq;
    tuple.atoms.emplace_back(factors[i], op);
  }
  return tuple;
}

}  // namespace ccdb
