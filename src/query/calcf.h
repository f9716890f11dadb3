#ifndef CCDB_QUERY_CALCF_H_
#define CCDB_QUERY_CALCF_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "base/resource.h"
#include "base/status.h"
#include "numeric/approx.h"
#include "qe/qe.h"
#include "query/ast.h"

namespace ccdb {

/// Options of the CALC_F evaluator (paper, Section 5).
struct CalcFOptions {
  /// Order k of the approximation modules (Definition 5.2).
  int approx_order = 8;
  /// The approximation base (a-base): breakpoints splitting the range over
  /// which analytic functions are approximated piecewise. Arguments falling
  /// outside the a-base are not representable (the paper's outer unbounded
  /// pieces cannot carry a polynomial approximation).
  ABase abase = ABase::Uniform(Rational(-8), Rational(8), 16);
  /// Tolerance handed to the aggregate modules.
  double tolerance = 1e-9;
  /// Epsilon for EVAL's solution approximation.
  Rational eval_epsilon = Rational(BigInt(1), BigInt::Pow2(24));
  /// The evaluation's execution context: `qe.governor` is the one budget
  /// of the whole evaluation (instantiation, every QE round, aggregate
  /// module and CAD), and `qe.pool` the pool every stage runs on (null =
  /// the calling thread).
  QeOptions qe;
};

/// Evaluation statistics (Theorem 5.5: "polynomially many k-order
/// approximation and aggregate computation calls"), extended with the
/// per-stage wall-time breakdown of the Figure-1 pipeline.
struct CalcFStats {
  std::uint64_t approximation_calls = 0;
  std::uint64_t aggregate_calls = 0;
  std::uint64_t qe_rounds = 0;
  std::uint64_t max_intermediate_bits = 0;
  /// Stage wall times, each read off the stage's span (base/trace.h).
  /// Parsing the query text (EvaluateText only): "parse.formula".
  double parse_seconds = 0.0;
  /// INSTANTIATION: analytic-function rewriting, lowering, and relation
  /// instantiation from the catalog: "calcf.instantiate".
  double instantiation_seconds = 0.0;
  /// QUANTIFIER ELIMINATION (all rounds, including nested aggregate
  /// stages): "qe.eliminate".
  double qe_seconds = 0.0;
  /// AGGREGATE EVALUATION: time inside the aggregate modules themselves
  /// (their nested QE rounds are accounted to qe_seconds): the spans of
  /// category "aggregate".
  double aggregate_seconds = 0.0;
  /// One-line summary of the structure-aware query plan of the main QE
  /// round (plan/planner.h); "" when the planner is off.
  std::string plan;

  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object with one field per statistic.
  std::string ToJson() const;
};

/// Result of a CALC_F query: always a constraint relation in closed form
/// (Theorem 5.5); a top-level numeric aggregate without parameters is a
/// unary singleton relation `z = value`, and the module's value (exact, or
/// approximate with its error estimate) is also surfaced in `scalar`.
struct CalcFResult {
  ConstraintRelation relation;
  /// Names of the output columns, in column order.
  std::vector<std::string> column_names;
  bool has_scalar = false;
  AggregateValue scalar;
  CalcFStats stats;
};

/// A query text's parse and the time it took (the PARSE stage).
struct ParsedQuery {
  std::shared_ptr<const QFormula> formula;
  std::int64_t parse_us = 0;
};

/// Parses a CALC_F query text (ParseFormula), timing the parse.
StatusOr<ParsedQuery> ParseQuery(const std::string& text);

/// Bottom-up CALC_F evaluator (the Section 5 evaluation algorithm):
/// aggregate predicates are evaluated innermost-first over the DAG G_Q;
/// at each stage analytic functions are replaced by piecewise polynomial
/// approximations over the a-base, the QE algorithm produces a
/// quantifier-free constraint relation, and aggregate modules turn
/// relations into values.
class CalcFEvaluator {
 public:
  using RelationLookup = ccdb::RelationLookup;

  CalcFEvaluator(RelationLookup lookup, CalcFOptions options = {});

  /// Evaluates a parsed CALC_F formula. The result relation's columns are
  /// the formula's free variables in first-occurrence order (or as given
  /// by `output_order` when non-empty).
  StatusOr<CalcFResult> Evaluate(
      const QFormula& query,
      const std::vector<std::string>& output_order = {}) const;

  /// Evaluates a parsed text; the result's stats carry its parse time.
  StatusOr<CalcFResult> Evaluate(
      const ParsedQuery& parsed,
      const std::vector<std::string>& output_order = {}) const;

  /// Convenience: parse and evaluate.
  StatusOr<CalcFResult> EvaluateText(
      const std::string& text,
      const std::vector<std::string>& output_order = {}) const;

 private:
  // Replaces every aggregate predicate in `formula` by polynomial
  // constraints, evaluating nested aggregates first. A non-parameterized
  // numeric aggregate `formula` stores its module value in `*scalar`.
  StatusOr<std::shared_ptr<const QFormula>> EvaluateAggregates(
      const QFormula& formula, CalcFStats* stats,
      std::optional<AggregateValue>* scalar = nullptr) const;

  // Evaluates one aggregate-free formula to a constraint relation over the
  // given output columns.
  StatusOr<ConstraintRelation> EvaluateCore(
      const QFormula& formula, const std::vector<std::string>& columns,
      CalcFStats* stats) const;

  RelationLookup lookup_;
  CalcFOptions options_;
  ApproxModule approx_module_;
  AggregateModules aggregate_modules_;
};

}  // namespace ccdb

#endif  // CCDB_QUERY_CALCF_H_
