#include "numeric/numerical_eval.h"

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "qe/cad.h"

namespace ccdb {

namespace {

bool IsZeroDimensional(const CadCell& cell) {
  for (std::size_t level = 0; level < cell.index.size(); ++level) {
    if (cell.index[level] % 2 == 1) return false;  // sector somewhere
  }
  return true;
}

}  // namespace

StatusOr<NumericalEvaluation> EvaluateNumerically(
    const ConstraintRelation& relation, const ResourceGovernor* gov,
    ThreadPool* pool) {
  TraceSpan span("numeric.evaluate");
  CCDB_FAILPOINT("numeric.eval");
  CCDB_CHECK_BUDGET(gov, "numeric.eval");
  CCDB_METRIC_COUNT("numeric.evaluations", 1);
  NumericalEvaluation out;
  if (relation.arity() == 0 || relation.is_empty_syntactically()) {
    out.finite = true;
    out.elapsed_us = span.ElapsedUs();
    return out;
  }
  CadOptions cad_options;
  cad_options.governor = gov;
  cad_options.pool = pool;
  CCDB_ASSIGN_OR_RETURN(
      Cad cad, Cad::Build(relation.CollectPolynomials(), relation.arity(),
                          cad_options));
  bool finite = true;
  std::vector<AlgebraicPoint> points;
  cad.ForEachCellAtDimension(relation.arity(), [&](const CadCell& cell) {
    if (!cell.sample.Satisfies(relation.tuples())) return;
    if (!IsZeroDimensional(cell)) {
      finite = false;
      return;
    }
    points.push_back(cell.sample);
  });
  out.finite = finite;
  if (finite) out.points = std::move(points);
  out.elapsed_us = span.ElapsedUs();
  return out;
}

StatusOr<std::vector<std::vector<Rational>>> ApproximateSolutions(
    const ConstraintRelation& relation, const Rational& epsilon,
    const ResourceGovernor* gov, ThreadPool* pool) {
  CCDB_ASSIGN_OR_RETURN(NumericalEvaluation eval,
                        EvaluateNumerically(relation, gov, pool));
  if (!eval.finite) {
    return Status::InvalidArgument(
        "solution set is infinite; NUMERICAL EVALUATION does not apply");
  }
  CCDB_TRACE_SPAN("numeric.approximate_solutions");
  CCDB_METRIC_COUNT("numeric.points_approximated", eval.points.size());
  std::vector<std::vector<Rational>> out;
  out.reserve(eval.points.size());
  for (const AlgebraicPoint& point : eval.points) {
    out.push_back(point.Approximate(epsilon));
  }
  return out;
}

StatusOr<UnaryDecomposition> DecomposeUnary(
    const ConstraintRelation& relation, const ResourceGovernor* gov) {
  CCDB_CHECK_MSG(relation.arity() == 1, "DecomposeUnary requires arity 1");
  CCDB_FAILPOINT("numeric.eval");
  CCDB_CHECK_BUDGET(gov, "numeric.eval");
  UnaryDecomposition out;
  if (relation.is_empty_syntactically()) return out;
  CadOptions cad_options;
  cad_options.governor = gov;
  CCDB_ASSIGN_OR_RETURN(Cad cad,
                        Cad::Build(relation.CollectPolynomials(), 1,
                                   cad_options));
  const std::vector<CadCell>& cells = cad.roots();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].sample.Satisfies(relation.tuples())) continue;
    UnaryDecomposition::Piece piece;
    if (cells[i].index[0] % 2 == 0) {
      piece.is_point = true;
      piece.lower = cells[i].sample.coord(0);
      piece.upper = piece.lower;
    } else {
      // Sector: bounded below by the previous section (if any), above by
      // the next.
      piece.is_point = false;
      piece.has_lower = i > 0;
      piece.has_upper = i + 1 < cells.size();
      if (piece.has_lower) piece.lower = cells[i - 1].sample.coord(0);
      if (piece.has_upper) piece.upper = cells[i + 1].sample.coord(0);
    }
    out.pieces.push_back(std::move(piece));
  }
  return out;
}

}  // namespace ccdb
