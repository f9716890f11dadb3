#include "agg/aggregates.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>
#include <map>
#include <optional>

#include "arith/floatk.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "numeric/numerical_eval.h"
#include "numeric/quadrature.h"
#include "qe/cad.h"

namespace ccdb {

StatusOr<AggregateKind> AggregateKindFromName(const std::string& name) {
  if (name == "MIN") return AggregateKind::kMin;
  if (name == "MAX") return AggregateKind::kMax;
  if (name == "AVG") return AggregateKind::kAvg;
  if (name == "LENGTH") return AggregateKind::kLength;
  if (name == "SURFACE") return AggregateKind::kSurface;
  if (name == "VOLUME") return AggregateKind::kVolume;
  if (name == "EVAL") return AggregateKind::kEval;
  return Status::NotFound("unknown aggregate: " + name);
}

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kLength:
      return "LENGTH";
    case AggregateKind::kSurface:
      return "SURFACE";
    case AggregateKind::kVolume:
      return "VOLUME";
    case AggregateKind::kEval:
      return "EVAL";
  }
  return "?";
}

int AggregateInputArity(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kAvg:
    case AggregateKind::kLength:
      return 1;
    case AggregateKind::kSurface:
      return 2;
    case AggregateKind::kVolume:
      return 3;
    case AggregateKind::kEval:
      return -1;
  }
  return -1;
}

namespace {

AggregateValue ExactValue(Rational value) {
  AggregateValue out;
  out.exact = true;
  out.exact_value = std::move(value);
  out.approx_value = out.exact_value.ToDouble();
  return out;
}

AggregateValue ApproxValue(double value, double error) {
  AggregateValue out;
  out.exact = false;
  out.approx_value = value;
  out.error_estimate = error;
  return out;
}

// Endpoint of a decomposition piece as an aggregate value.
AggregateValue EndpointValue(const AlgebraicNumber& endpoint,
                             double tolerance) {
  if (endpoint.is_rational()) return ExactValue(endpoint.rational_value());
  Rational eps = FloatK::FromDouble(tolerance).ToRational();
  if (eps.sign() <= 0) eps = Rational(BigInt(1), BigInt::Pow2(40));
  return ApproxValue(endpoint.Approximate(eps).ToDouble(), tolerance);
}

// The integral of f (a value with an error bound at each rational point)
// over the open sector (a, c): CosineGaussLegendre at orders 8, 16, ... 128
// until two agree within `tol`, keeping the higher. Error: their
// difference + f's largest error bound times the width + 64 ulps. The
// ends are rationals a <= lo < hi <= c (at most `trim` inside irrational
// ends); a node is its double image if that rounds inside, else exact.
// The strips the trim leaves out are the caller's to bound.
StatusOr<AggregateValue> IntegrateOverSector(
    const std::function<StatusOr<AggregateValue>(const Rational&)>& f,
    const AlgebraicNumber& a, const AlgebraicNumber& c, Rational trim,
    double tol, const ResourceGovernor* gov) {
  // Squaring narrows the trim only below 1 (a large tolerance's root width
  // is not).
  const Rational half(BigInt(1), BigInt::Pow2(1));
  if (half < trim) trim = half;
  Rational lo, hi;
  do {
    a.RefineTo(trim);
    c.RefineTo(trim);
    lo = a.isolating_interval().hi();
    hi = c.isolating_interval().lo();
    trim = trim * trim;
  } while (!(lo < hi));
  double lo_double = lo.ToDouble(), width = (hi - lo).ToDouble();
  double f_error = 0.0;
  auto at = [&](double s) -> StatusOr<double> {
    Rational x = FloatK::FromDouble(lo_double + width * s).ToRational();
    if (!(lo < x && x < hi)) {
      x = lo + (hi - lo) * FloatK::FromDouble(s).ToRational();
    }
    CCDB_ASSIGN_OR_RETURN(AggregateValue value, f(x));
    f_error = std::max(f_error, value.error_estimate);
    return value.Value();
  };
  double value = 0.0, previous = 0.0, difference = 0.0;
  CCDB_ASSIGN_OR_RETURN(previous, CosineGaussLegendre(at, width, 8, gov));
  for (int order = 16; order <= 128; order *= 2) {
    CCDB_ASSIGN_OR_RETURN(value, CosineGaussLegendre(at, width, order, gov));
    difference = std::abs(value - previous);
    if (difference <= tol) break;
    previous = value;
  }
  return ApproxValue(value, difference + width * f_error +
                                64 * DBL_EPSILON * std::abs(value));
}

// A section of a CAD stack of level k, named by the first level-k factor
// that vanishes on it and the rank of the section among that factor's real
// roots over the stack's base sample.
struct SectionName {
  std::size_t factor = 0;
  std::size_t rank = 0;
};

StatusOr<SectionName> NameSection(const std::vector<CadCell>& stack,
                                  std::size_t s,
                                  const std::vector<Polynomial>& factors) {
  SectionName name;
  while (name.factor < factors.size() &&
         stack[s].sample.SignAt(factors[name.factor]) != 0) {
    ++name.factor;
  }
  if (name.factor == factors.size()) {
    return Status::Internal("CAD section on no factor of its level");
  }
  for (std::size_t t = 1; t < s; t += 2) {
    if (stack[t].sample.SignAt(factors[name.factor]) == 0) ++name.rank;
  }
  return name;
}

// The real roots of a level-k factor in x_k at the rational point
// (x_0, ..., x_{k-1}).
std::vector<AlgebraicNumber> RootsAt(const Polynomial& factor,
                                     const std::vector<Rational>& point) {
  int k = static_cast<int>(point.size());
  std::vector<Rational> coefficients(factor.DegreeIn(k) + 1, Rational(0));
  for (const auto& [monomial, coeff] : factor.terms()) {
    Rational term = coeff;
    for (int v = 0; v < k; ++v) {
      term *= point[v].Pow(static_cast<std::int32_t>(monomial.exponent(v)));
    }
    coefficients[monomial.exponent(k)] += term;
  }
  UPoly at_point(std::move(coefficients));
  if (at_point.is_zero()) return {};
  return *AlgebraicNumber::RootsOf(at_point, nullptr);  // never trips
}

// A satisfied sector of a CAD stack: its position, its bounding sections
// (unnamed at level 0, whose ends are the base samples) and, below the
// innermost level, the satisfied sectors of the next level over it.
struct FibrePiece {
  std::size_t sector = 0;
  SectionName lo, hi;
  std::vector<FibrePiece> inner;
};

// The sectors of `stack` (of level k, over an open cell) that hold a
// satisfied full-dimensional sector. One at either end of the stack makes
// the region unbounded along x_k: *unbounded drops to at most k, and the
// caller returns kUndefined before measuring any piece.
StatusOr<std::vector<FibrePiece>> NamePieces(
    const Cad& cad, const std::vector<CadCell>& stack,
    const ConstraintRelation& relation, int* unbounded) {
  int level = stack.front().dimension() - 1;
  std::vector<FibrePiece> pieces;
  for (std::size_t j = 0; j < stack.size(); j += 2) {
    FibrePiece piece{j, {}, {}, {}};
    if (level + 1 == cad.num_vars()) {
      if (!stack[j].sample.Satisfies(relation.tuples())) continue;
    } else {
      CCDB_ASSIGN_OR_RETURN(
          piece.inner, NamePieces(cad, stack[j].children, relation, unbounded));
      if (piece.inner.empty()) continue;
    }
    if (j == 0 || j + 1 == stack.size()) {
      *unbounded = std::min(*unbounded, level);  // kept, never measured
    } else if (level > 0) {
      const std::vector<Polynomial>& factors = cad.factors_at_level(level);
      CCDB_ASSIGN_OR_RETURN(piece.lo, NameSection(stack, j - 1, factors));
      CCDB_ASSIGN_OR_RETURN(piece.hi, NameSection(stack, j + 1, factors));
    }
    pieces.push_back(std::move(piece));
  }
  return pieces;
}

// The fibre measure at a rational point p = (x_0, ..., x_{k-1}) of an open
// cell over which `pieces` lie: the sum over the pieces of the integral from
// lo(p) to hi(p) of the next level's fibre measure, or of hi(p) - lo(p) at
// the innermost level. The level-k factors are delineable over the cell, so
// a section's name picks out that root of its factor at every p.
StatusOr<AggregateValue> FibreMeasure(const Cad& cad,
                                      const std::vector<FibrePiece>& pieces,
                                      std::vector<Rational>& point, double tol,
                                      const Rational& root_width,
                                      const ResourceGovernor* gov) {
  const std::vector<Polynomial>& factors =
      cad.factors_at_level(static_cast<int>(point.size()));
  std::map<std::size_t, std::vector<AlgebraicNumber>> roots;  // per factor
  auto root_of = [&](const SectionName& name) -> const AlgebraicNumber* {
    auto [it, fresh] = roots.try_emplace(name.factor);
    if (fresh) it->second = RootsAt(factors[name.factor], point);
    return name.rank < it->second.size() ? &it->second[name.rank] : nullptr;
  };
  bool innermost = static_cast<int>(point.size()) + 1 == cad.num_vars();
  Rational length(0);
  double value = 0.0, error = 0.0;
  for (const FibrePiece& piece : pieces) {
    const AlgebraicNumber* lo = root_of(piece.lo);
    const AlgebraicNumber* hi = root_of(piece.hi);
    if (lo == nullptr || hi == nullptr) {
      return Status::NumericalFailure(
          "a CAD section has no root at a quadrature node");
    }
    if (innermost) {
      length += hi->Approximate(root_width) - lo->Approximate(root_width);
      continue;
    }
    double extent = 0.0;  // the largest inner measure at a node
    auto inner_at = [&](const Rational& y) -> StatusOr<AggregateValue> {
      point.push_back(y);
      StatusOr<AggregateValue> inner =
          FibreMeasure(cad, piece.inner, point, tol, root_width, gov);
      point.pop_back();
      if (inner.ok()) extent = std::max(extent, inner->Value());
      return inner;
    };
    // Inner ends are trimmed to the root width the fibres below are
    // measured to; each left-out strip is within that isolating interval.
    CCDB_ASSIGN_OR_RETURN(
        AggregateValue integral,
        IntegrateOverSector(inner_at, *lo, *hi, root_width, tol, gov));
    value += integral.approx_value;
    Rational trims =
        lo->isolating_interval().Width() + hi->isolating_interval().Width();
    error += integral.error_estimate + trims.ToDouble() * extent;
  }
  // Each innermost end lies within root_width / 2 of the true one.
  if (innermost) {
    return ApproxValue(length.ToDouble(), static_cast<double>(pieces.size()) *
                                              root_width.ToDouble());
  }
  return ApproxValue(value, error);
}

// g when `factor` = c (y - g(x)) with c constant: the section is the graph
// y = g(x) of a polynomial.
std::optional<UPoly> GraphOf(const Polynomial& factor) {
  if (factor.DegreeIn(1) != 1) return std::nullopt;
  Polynomial lc = factor.LeadingCoefficientIn(1);
  if (!lc.is_constant()) return std::nullopt;
  // The y^0 coefficient of a level-1 factor mentions x only.
  return *UPoly::FromPolynomial(
      factor.CoefficientsIn(1)[0].Scale(-lc.constant_value().Inverse()), 0);
}

// SURFACE (dimension 2) or VOLUME (dimension 3) of `relation` on its one
// CAD: the integral over each open x-sector of the fibre measure, with `tol`
// the quadrature ladders' agreement and root_width = tol / 64.
StatusOr<AggregateValue> RegionMeasure(AggregateKind kind,
                                       const ConstraintRelation& relation,
                                       double tol, const CadOptions& options) {
  int dims = AggregateInputArity(kind);
  CCDB_CHECK_MSG(relation.arity() == dims, "SURFACE/VOLUME arity mismatch");
  if (relation.is_empty_syntactically()) return ExactValue(Rational(0));
  CCDB_ASSIGN_OR_RETURN(Cad cad,
                        Cad::Build(relation.CollectPolynomials(), dims, options));
  const std::vector<CadCell>& base = cad.roots();
  int unbounded = dims;
  CCDB_ASSIGN_OR_RETURN(std::vector<FibrePiece> sectors,
                        NamePieces(cad, base, relation, &unbounded));
  if (unbounded < dims) {
    static const char* const kAxes[] = {"an x", "a y", "a z"};
    return Status::Undefined(std::string(AggregateKindName(kind)) + " of " +
                             kAxes[unbounded] + "-unbounded region");
  }
  const std::vector<Polynomial>& factors = cad.factors_at_level(1);
  bool exact = true;
  Rational exact_total(0);
  double approx_total = 0.0, approx_error = 0.0;
  Rational root_width = FloatK::FromDouble(tol / 64).ToRational();
  // Per x-section, the antiderivative terms the graph pieces put there.
  std::vector<UPoly> primitive_at(base.size());

  for (const FibrePiece& sector : sectors) {
    std::size_t b = sector.sector;
    // Exact path (SURFACE): every boundary a polynomial graph, so the piece
    // is F(c) - F(a) for an antiderivative F of the summed slice length.
    bool graphs = dims == 2;
    UPoly graph_length;
    for (const FibrePiece& piece : sector.inner) {
      if (!graphs) break;
      std::optional<UPoly> lo = GraphOf(factors[piece.lo.factor]);
      std::optional<UPoly> hi = GraphOf(factors[piece.hi.factor]);
      graphs = lo.has_value() && hi.has_value();
      if (graphs) graph_length = graph_length + (*hi - *lo);
    }
    if (graphs) {
      UPoly primitive = AntiDerivative(graph_length);
      primitive_at[b + 1] = primitive_at[b + 1] + primitive;
      primitive_at[b - 1] = primitive_at[b - 1] - primitive;
      continue;
    }

    exact = false;
    auto measure_at = [&](const Rational& x) {
      std::vector<Rational> point{x};
      return FibreMeasure(cad, sector.inner, point, tol, root_width,
                          options.governor);
    };
    // x-ends trim to 2^-60: the strips left out here are not in the error
    // estimate, so they must be negligible.
    CCDB_ASSIGN_OR_RETURN(
        AggregateValue piece,
        IntegrateOverSector(measure_at, base[b - 1].sample.coord(0),
                            base[b + 1].sample.coord(0),
                            Rational(BigInt(1), BigInt::Pow2(60)), tol,
                            options.governor));
    approx_total += piece.approx_value;
    approx_error += piece.error_estimate;
  }
  // The graph pieces' F terms, summed per x-section: adjacent pieces with
  // one F cancel at their shared end, so an irrational end that only the
  // CAD's projection put there leaves the area exact.
  for (std::size_t s = 1; s < base.size(); s += 2) {
    if (primitive_at[s].is_zero()) continue;
    const AlgebraicNumber& x = base[s].sample.coord(0);
    x.RefineTo(Rational(BigInt(1), BigInt::Pow2(60)));
    // A point interval (rational x) evaluates exactly.
    Interval term = primitive_at[s].EvaluateInterval(x.isolating_interval());
    double mid = term.Midpoint().ToDouble();
    approx_total += mid;
    if (x.is_rational()) {
      exact_total += term.lo();
    } else {
      exact = false;
      approx_error +=
          term.Width().ToDouble() / 2 + 64 * DBL_EPSILON * std::abs(mid);
    }
  }
  if (exact) return ExactValue(exact_total);
  return ApproxValue(approx_total, approx_error);
}

}  // namespace

StatusOr<AggregateValue> AggregateModules::Min(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "MIN requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, cad_.governor));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("MIN of an empty set");
  }
  const auto& first = decomposition.pieces.front();
  if (first.is_point) return EndpointValue(first.lower, tolerance_);
  if (!first.has_lower) {
    return Status::Undefined("MIN of a set unbounded below");
  }
  // Open sector at the bottom: the infimum is not attained.
  return Status::Undefined("MIN does not exist (infimum not attained)");
}

StatusOr<AggregateValue> AggregateModules::Max(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "MAX requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, cad_.governor));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("MAX of an empty set");
  }
  const auto& last = decomposition.pieces.back();
  if (last.is_point) return EndpointValue(last.upper, tolerance_);
  if (!last.has_upper) {
    return Status::Undefined("MAX of a set unbounded above");
  }
  return Status::Undefined("MAX does not exist (supremum not attained)");
}

StatusOr<AggregateValue> AggregateModules::Avg(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "AVG requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, cad_.governor));
  if (decomposition.pieces.empty()) {
    return Status::Undefined("AVG of an empty set");
  }
  bool all_points = true;
  for (const auto& piece : decomposition.pieces) {
    if (!piece.is_point) all_points = false;
    if (!piece.has_lower || !piece.has_upper) {
      return Status::Undefined("AVG of an unbounded set");
    }
  }
  if (all_points) {
    // Arithmetic mean of the finite set.
    bool exact = true;
    Rational exact_sum(0);
    double approx_sum = 0.0;
    for (const auto& piece : decomposition.pieces) {
      AggregateValue v = EndpointValue(piece.lower, tolerance_);
      if (v.exact && exact) {
        exact_sum += v.exact_value;
      } else {
        exact = false;
      }
      approx_sum += v.Value();
    }
    Rational count(static_cast<std::int64_t>(decomposition.pieces.size()));
    if (exact) return ExactValue(exact_sum / count);
    return ApproxValue(approx_sum / count.ToDouble(), tolerance_);
  }
  // Mean with respect to the 1-D uniform measure: (∫ x dx) / measure.
  bool exact = true;
  Rational exact_moment(0), exact_measure(0);
  double approx_moment = 0.0, approx_measure = 0.0;
  Rational half(BigInt(1), BigInt(2));
  for (const auto& piece : decomposition.pieces) {
    if (piece.is_point) continue;
    AggregateValue lo = EndpointValue(piece.lower, tolerance_);
    AggregateValue hi = EndpointValue(piece.upper, tolerance_);
    if (lo.exact && hi.exact && exact) {
      exact_moment +=
          (hi.exact_value * hi.exact_value - lo.exact_value * lo.exact_value) *
          half;
      exact_measure += hi.exact_value - lo.exact_value;
    } else {
      exact = false;
    }
    approx_moment += 0.5 * (hi.Value() * hi.Value() - lo.Value() * lo.Value());
    approx_measure += hi.Value() - lo.Value();
  }
  if (exact) {
    if (exact_measure.is_zero()) return Status::Undefined("AVG of a null set");
    return ExactValue(exact_moment / exact_measure);
  }
  if (approx_measure <= 0.0) return Status::Undefined("AVG of a null set");
  return ApproxValue(approx_moment / approx_measure, tolerance_);
}

StatusOr<AggregateValue> AggregateModules::Length(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_CHECK_MSG(relation.arity() == 1, "LENGTH requires a unary relation");
  CCDB_ASSIGN_OR_RETURN(UnaryDecomposition decomposition,
                        DecomposeUnary(relation, cad_.governor));
  bool exact = true;
  Rational exact_total(0);
  double approx_total = 0.0;
  for (const auto& piece : decomposition.pieces) {
    if (piece.is_point) continue;
    if (!piece.has_lower || !piece.has_upper) {
      return Status::Undefined("unbounded set has infinite measure");
    }
    AggregateValue lo = EndpointValue(piece.lower, tolerance_);
    AggregateValue hi = EndpointValue(piece.upper, tolerance_);
    if (lo.exact && hi.exact && exact) {
      exact_total += hi.exact_value - lo.exact_value;
    } else {
      exact = false;
    }
    approx_total += hi.Value() - lo.Value();
  }
  if (exact) return ExactValue(exact_total);
  return ApproxValue(approx_total, tolerance_);
}

StatusOr<AggregateValue> AggregateModules::Surface(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  return RegionMeasure(AggregateKind::kSurface, relation,
                       std::max(tolerance_, 1e-6), cad_);
}

StatusOr<AggregateValue> AggregateModules::Volume(
    const ConstraintRelation& relation) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  return RegionMeasure(AggregateKind::kVolume, relation,
                       std::max(tolerance_, 1e-5), cad_);
}

StatusOr<ConstraintRelation> AggregateModules::Eval(
    const ConstraintRelation& relation, const Rational& epsilon) const {
  ++call_count_;
  CCDB_METRIC_COUNT("agg.module_calls", 1);
  CCDB_ASSIGN_OR_RETURN(
      NumericalEvaluation eval,
      EvaluateNumerically(relation, cad_.governor, cad_.pool));
  if (!eval.finite) return relation;  // "or to S itself otherwise"
  ConstraintRelation out(relation.arity());
  for (const AlgebraicPoint& point : eval.points) {
    GeneralizedTuple tuple;
    for (int v = 0; v < point.dimension(); ++v) {
      const AlgebraicNumber& coord = point.coord(v);
      Rational value = coord.is_rational() ? coord.rational_value()
                                           : coord.Approximate(epsilon);
      tuple.atoms.emplace_back(Polynomial::Var(v) - Polynomial(value),
                               RelOp::kEq);
    }
    out.AddTuple(std::move(tuple));
  }
  return out;
}

StatusOr<ConstraintRelation> AggregateModules::ApplyParameterized(
    AggregateKind kind, const ConstraintRelation& relation,
    int num_params) const {
  CCDB_CHECK(num_params >= 1);
  int agg_arity = relation.arity() - num_params;
  int required = AggregateInputArity(kind);
  if (required >= 0 && agg_arity != required) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(kind)) + " aggregates over arity " +
        std::to_string(required) + ", got " + std::to_string(agg_arity));
  }
  if (kind == AggregateKind::kEval) {
    return Status::Unimplemented("parameterized EVAL");
  }

  // Split every tuple into t_x (parameters only) and t_y (aggregation
  // variables only, renamed down to 0..agg_arity-1). The paper makes the
  // same separability requirement: "if for each t ∈ r, constraints in t
  // can be divided into constraints only on x and constraints only on y
  // ... (the query is undefined otherwise)".
  struct SplitTuple {
    GeneralizedTuple x_part;
    GeneralizedTuple y_part;
  };
  std::vector<SplitTuple> split;
  std::vector<Polynomial> x_polys;
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    SplitTuple st;
    for (const Atom& atom : tuple.atoms) {
      bool mentions_x = false, mentions_y = false;
      for (int v = 0; v <= atom.poly.max_var(); ++v) {
        if (!atom.poly.Mentions(v)) continue;
        (v < num_params ? mentions_x : mentions_y) = true;
      }
      if (mentions_x && mentions_y) {
        return Status::Undefined(
            "parameterized aggregate over a non-separable tuple: " +
            atom.poly.ToString());
      }
      if (mentions_y) {
        int max_var = atom.poly.max_var();
        std::vector<int> mapping(max_var + 1, 0);
        for (int v = 0; v <= max_var; ++v) {
          mapping[v] = v >= num_params ? v - num_params : v;
        }
        st.y_part.atoms.emplace_back(atom.poly.RenameVars(mapping), atom.op);
      } else {
        st.x_part.atoms.push_back(atom);
        if (!atom.poly.is_constant()) x_polys.push_back(atom.poly);
      }
    }
    split.push_back(std::move(st));
  }

  // CAD of the parameter space (the paper's "Construct a CAD C on the
  // constraint relation {t_x | t ∈ r}"), one module call per cell on the
  // union of the active t_y parts. A cell's label is its value atom
  // z = value; cells where the aggregate is undefined are dropped. Labels
  // are computed on this thread: call_count_ is a plain counter.
  SolutionFormulaSpec spec;
  spec.polys = std::move(x_polys);
  spec.num_vars = num_params;
  spec.num_free = num_params;
  spec.cad = cad_;
  spec.label = [&](const CadCell& cell) -> StatusOr<CellLabel> {
    ConstraintRelation slice_union(agg_arity);
    bool any_active = false;
    for (const SplitTuple& st : split) {
      if (!cell.sample.Satisfies({&st.x_part, 1})) continue;
      any_active = true;
      slice_union.AddTuple(st.y_part);
    }
    if (!any_active) return CellLabel();
    StatusOr<AggregateValue> value = ApplyNumeric(kind, slice_union);
    if (!value.ok()) {
      if (value.status().code() == StatusCode::kUndefined) return CellLabel();
      return value.status();
    }
    Rational exact = value->exact
                         ? value->exact_value
                         : FloatK::FromDouble(value->approx_value).ToRational();
    return CellLabel(std::vector<Atom>{Atom(
        Polynomial::Var(num_params) - Polynomial(exact), RelOp::kEq)});
  };
  CCDB_ASSIGN_OR_RETURN(SolutionFormula formula, BuildSolutionFormula(spec));
  ConstraintRelation out(num_params + 1);
  for (const SolutionFormula::Row& row : formula.rows) {
    GeneralizedTuple tuple = SignConditions(formula.factors, row.signs);
    tuple.atoms.insert(tuple.atoms.end(), row.label.begin(), row.label.end());
    out.AddTuple(std::move(tuple));
  }
  return out;
}

StatusOr<AggregateValue> AggregateModules::ApplyNumeric(
    AggregateKind kind, const ConstraintRelation& relation) const {
  int required = AggregateInputArity(kind);
  if (required >= 0 && relation.arity() != required) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(kind)) + " requires arity " +
        std::to_string(required) + ", got " +
        std::to_string(relation.arity()));
  }
  switch (kind) {
    case AggregateKind::kMin:
      return Min(relation);
    case AggregateKind::kMax:
      return Max(relation);
    case AggregateKind::kAvg:
      return Avg(relation);
    case AggregateKind::kLength:
      return Length(relation);
    case AggregateKind::kSurface:
      return Surface(relation);
    case AggregateKind::kVolume:
      return Volume(relation);
    case AggregateKind::kEval:
      return Status::InvalidArgument("EVAL is not a numeric aggregate");
  }
  return Status::Internal("unreachable aggregate kind");
}

}  // namespace ccdb
