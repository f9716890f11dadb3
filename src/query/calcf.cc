#include "query/calcf.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "arith/floatk.h"
#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "query/lower.h"
#include "query/parser.h"

namespace ccdb {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(const SteadyClock::time_point& start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Renders a polynomial back into a QTerm over the given column names.
std::shared_ptr<const QTerm> PolynomialToQTerm(
    const Polynomial& p, const std::vector<std::string>& names) {
  std::shared_ptr<const QTerm> sum;
  for (const auto& [monomial, coeff] : p.terms()) {
    std::shared_ptr<const QTerm> term = QTerm::Const(coeff);
    for (int v = 0; v <= monomial.max_var(); ++v) {
      std::uint32_t e = monomial.exponent(v);
      if (e == 0) continue;
      CCDB_CHECK(v < static_cast<int>(names.size()));
      std::shared_ptr<const QTerm> var = QTerm::Var(names[v]);
      if (e > 1) var = QTerm::Pow(var, e);
      term = QTerm::Binary(QTerm::Kind::kMul, term, var);
    }
    sum = sum == nullptr
              ? term
              : QTerm::Binary(QTerm::Kind::kAdd, sum, term);
  }
  if (sum == nullptr) return QTerm::Const(Rational(0));
  return sum;
}

// Renders a constraint relation back into surface syntax over names.
std::shared_ptr<const QFormula> RelationToQFormula(
    const ConstraintRelation& relation, const std::vector<std::string>& names) {
  std::vector<std::shared_ptr<const QFormula>> disjuncts;
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    std::vector<std::shared_ptr<const QFormula>> conjuncts;
    for (const Atom& atom : tuple.atoms) {
      conjuncts.push_back(QFormula::Compare(PolynomialToQTerm(atom.poly, names),
                                            atom.op,
                                            QTerm::Const(Rational(0))));
    }
    if (conjuncts.empty()) {
      disjuncts.push_back(QFormula::True());
    } else if (conjuncts.size() == 1) {
      disjuncts.push_back(conjuncts[0]);
    } else {
      disjuncts.push_back(
          QFormula::Connective(QFormula::Kind::kAnd, std::move(conjuncts)));
    }
  }
  if (disjuncts.empty()) return QFormula::False();
  if (disjuncts.size() == 1) return disjuncts[0];
  return QFormula::Connective(QFormula::Kind::kOr, std::move(disjuncts));
}

Rational DyadicFromDouble(double value) {
  return FloatK::FromDouble(value).ToRational();
}

// Rewrites analytic function applications inside a term: each f(arg) is
// replaced by a fresh variable t_i, and `constraints` receives the defining
// disjunction OR_e (t_i = h_e(arg') and lo_e <= arg' <= hi_e) over the
// a-base pieces (the paper's step 2). Returns the function-free term.
class FunctionRewriter {
 public:
  FunctionRewriter(const ApproxModule* module, const ABase* abase,
                   CalcFStats* stats)
      : module_(module), abase_(abase), stats_(stats) {}

  StatusOr<std::shared_ptr<const QTerm>> Rewrite(
      const QTerm& term,
      std::vector<std::shared_ptr<const QFormula>>* constraints,
      std::vector<std::string>* fresh_vars) {
    switch (term.kind) {
      case QTerm::Kind::kConst:
      case QTerm::Kind::kVar:
        return std::shared_ptr<const QTerm>(std::make_shared<QTerm>(term));
      case QTerm::Kind::kAdd:
      case QTerm::Kind::kSub:
      case QTerm::Kind::kMul:
      case QTerm::Kind::kDiv: {
        CCDB_ASSIGN_OR_RETURN(auto l,
                              Rewrite(*term.lhs, constraints, fresh_vars));
        CCDB_ASSIGN_OR_RETURN(auto r,
                              Rewrite(*term.rhs, constraints, fresh_vars));
        return QTerm::Binary(term.kind, l, r);
      }
      case QTerm::Kind::kNeg: {
        CCDB_ASSIGN_OR_RETURN(auto l,
                              Rewrite(*term.lhs, constraints, fresh_vars));
        return QTerm::Neg(l);
      }
      case QTerm::Kind::kPow: {
        CCDB_ASSIGN_OR_RETURN(auto l,
                              Rewrite(*term.lhs, constraints, fresh_vars));
        return QTerm::Pow(l, term.exponent);
      }
      case QTerm::Kind::kFunc: {
        CCDB_ASSIGN_OR_RETURN(auto arg,
                              Rewrite(*term.lhs, constraints, fresh_vars));
        std::string fresh = "_approx" + std::to_string(counter_++);
        fresh_vars->push_back(fresh);
        std::vector<std::shared_ptr<const QFormula>> pieces;
        for (const Interval& piece : abase_->Intervals()) {
          if (!DefinedOn(term.func, piece)) continue;
          auto approx = module_->Approximate(term.func, piece);
          if (!approx.ok()) continue;  // undefined piece: excluded
          ++stats_->approximation_calls;
          // t = h(arg) and lo <= arg <= hi.
          std::shared_ptr<const QTerm> h_of_arg =
              QTerm::Const(Rational(0));
          // Horner: h = sum c_i * arg^i.
          const auto& coeffs = approx->poly.coefficients();
          for (std::size_t i = coeffs.size(); i-- > 0;) {
            h_of_arg = QTerm::Binary(
                QTerm::Kind::kAdd,
                QTerm::Binary(QTerm::Kind::kMul, h_of_arg, arg),
                QTerm::Const(coeffs[i]));
          }
          std::vector<std::shared_ptr<const QFormula>> conjuncts;
          conjuncts.push_back(QFormula::Compare(QTerm::Var(fresh), RelOp::kEq,
                                                h_of_arg));
          conjuncts.push_back(QFormula::Compare(QTerm::Const(piece.lo()),
                                                RelOp::kLe, arg));
          conjuncts.push_back(QFormula::Compare(arg, RelOp::kLe,
                                                QTerm::Const(piece.hi())));
          pieces.push_back(
              QFormula::Connective(QFormula::Kind::kAnd, std::move(conjuncts)));
        }
        if (pieces.empty()) {
          return Status::InvalidArgument(
              std::string("no a-base piece can approximate ") +
              AnalyticKindName(term.func));
        }
        constraints->push_back(
            pieces.size() == 1
                ? pieces[0]
                : QFormula::Connective(QFormula::Kind::kOr, std::move(pieces)));
        return QTerm::Var(fresh);
      }
    }
    return Status::Internal("unreachable term kind");
  }

 private:
  const ApproxModule* module_;
  const ABase* abase_;
  CalcFStats* stats_;
  int counter_ = 0;
};

// Rewrites every comparison atom containing analytic functions into
// exists _approxN (defining constraints and rewritten-comparison).
StatusOr<std::shared_ptr<const QFormula>> RewriteFunctions(
    const QFormula& formula, const ApproxModule* module, const ABase* abase,
    CalcFStats* stats) {
  switch (formula.kind) {
    case QFormula::Kind::kTrue:
    case QFormula::Kind::kFalse:
    case QFormula::Kind::kRelation:
      return std::shared_ptr<const QFormula>(
          std::make_shared<QFormula>(formula));
    case QFormula::Kind::kCompare: {
      if (formula.lhs->IsPolynomial() && formula.rhs->IsPolynomial()) {
        return std::shared_ptr<const QFormula>(
            std::make_shared<QFormula>(formula));
      }
      FunctionRewriter rewriter(module, abase, stats);
      std::vector<std::shared_ptr<const QFormula>> constraints;
      std::vector<std::string> fresh_vars;
      CCDB_ASSIGN_OR_RETURN(
          auto lhs, rewriter.Rewrite(*formula.lhs, &constraints, &fresh_vars));
      CCDB_ASSIGN_OR_RETURN(
          auto rhs, rewriter.Rewrite(*formula.rhs, &constraints, &fresh_vars));
      constraints.push_back(QFormula::Compare(lhs, formula.op, rhs));
      std::shared_ptr<const QFormula> body =
          constraints.size() == 1
              ? constraints[0]
              : QFormula::Connective(QFormula::Kind::kAnd,
                                     std::move(constraints));
      return QFormula::Quantifier(QFormula::Kind::kExists,
                                  std::move(fresh_vars), body);
    }
    case QFormula::Kind::kNot: {
      CCDB_ASSIGN_OR_RETURN(
          auto inner,
          RewriteFunctions(*formula.children[0], module, abase, stats));
      return QFormula::Not(inner);
    }
    case QFormula::Kind::kAnd:
    case QFormula::Kind::kOr: {
      std::vector<std::shared_ptr<const QFormula>> mapped;
      for (const auto& child : formula.children) {
        CCDB_ASSIGN_OR_RETURN(auto m,
                              RewriteFunctions(*child, module, abase, stats));
        mapped.push_back(m);
      }
      return QFormula::Connective(formula.kind, std::move(mapped));
    }
    case QFormula::Kind::kExists:
    case QFormula::Kind::kForall: {
      CCDB_ASSIGN_OR_RETURN(
          auto inner,
          RewriteFunctions(*formula.children[0], module, abase, stats));
      return QFormula::Quantifier(formula.kind, formula.bound_vars, inner);
    }
    case QFormula::Kind::kAggregate:
      return Status::Internal(
          "aggregates must be evaluated before function rewriting");
  }
  return Status::Internal("unreachable formula kind");
}

}  // namespace

std::string CalcFStats::ToString() const {
  std::ostringstream out;
  out << "approximation_calls=" << approximation_calls
      << " aggregate_calls=" << aggregate_calls << " qe_rounds=" << qe_rounds
      << " max_intermediate_bits=" << max_intermediate_bits
      << " parse=" << parse_seconds * 1e3 << "ms"
      << " instantiation=" << instantiation_seconds * 1e3 << "ms"
      << " qe=" << qe_seconds * 1e3 << "ms"
      << " aggregates=" << aggregate_seconds * 1e3 << "ms";
  if (!plan.empty()) out << " plan={" << plan << "}";
  return out.str();
}

std::string CalcFStats::ToJson() const {
  return JsonObjectBuilder()
      .Add("approximation_calls", approximation_calls)
      .Add("aggregate_calls", aggregate_calls)
      .Add("qe_rounds", qe_rounds)
      .Add("max_intermediate_bits", max_intermediate_bits)
      .Add("parse_seconds", parse_seconds)
      .Add("instantiation_seconds", instantiation_seconds)
      .Add("qe_seconds", qe_seconds)
      .Add("aggregate_seconds", aggregate_seconds)
      .Add("plan", plan)
      .Build();
}

CalcFEvaluator::CalcFEvaluator(RelationLookup lookup, CalcFOptions options)
    : lookup_(std::move(lookup)),
      options_([](CalcFOptions opts) {
        // One governor bounds the whole evaluation unless the caller split
        // the budgets explicitly.
        if (opts.qe.governor == nullptr) opts.qe.governor = opts.governor;
        return opts;
      }(std::move(options))),
      approx_module_(options_.approx_order),
      aggregate_modules_(options_.tolerance, options_.governor) {}

StatusOr<std::shared_ptr<const QFormula>> CalcFEvaluator::EvaluateAggregates(
    const QFormula& formula, CalcFStats* stats) const {
  switch (formula.kind) {
    case QFormula::Kind::kTrue:
    case QFormula::Kind::kFalse:
    case QFormula::Kind::kCompare:
    case QFormula::Kind::kRelation:
      return std::shared_ptr<const QFormula>(
          std::make_shared<QFormula>(formula));
    case QFormula::Kind::kNot: {
      CCDB_ASSIGN_OR_RETURN(auto inner,
                            EvaluateAggregates(*formula.children[0], stats));
      return QFormula::Not(inner);
    }
    case QFormula::Kind::kAnd:
    case QFormula::Kind::kOr: {
      std::vector<std::shared_ptr<const QFormula>> mapped;
      for (const auto& child : formula.children) {
        CCDB_ASSIGN_OR_RETURN(auto m, EvaluateAggregates(*child, stats));
        mapped.push_back(m);
      }
      return QFormula::Connective(formula.kind, std::move(mapped));
    }
    case QFormula::Kind::kExists:
    case QFormula::Kind::kForall: {
      CCDB_ASSIGN_OR_RETURN(auto inner,
                            EvaluateAggregates(*formula.children[0], stats));
      return QFormula::Quantifier(formula.kind, formula.bound_vars, inner);
    }
    case QFormula::Kind::kAggregate: {
      CCDB_FAILPOINT("calcf.aggregate");
      CCDB_CHECK_BUDGET(options_.governor, "calcf.aggregate");
      // Inner stages first (the DAG order of Section 5).
      CCDB_ASSIGN_OR_RETURN(auto body,
                            EvaluateAggregates(*formula.children[0], stats));
      // Free body variables beyond the aggregation variables are
      // PARAMETERS; they are handled by the paper's step 4 (CAD of the
      // parameter space, one aggregate-module call per cell).
      std::vector<std::string> params;
      for (const std::string& name : body->FreeVarNames()) {
        if (std::find(formula.aggregate_vars.begin(),
                      formula.aggregate_vars.end(),
                      name) == formula.aggregate_vars.end()) {
          params.push_back(name);
        }
      }
      if (!params.empty()) {
        if (formula.aggregate == AggregateKind::kEval) {
          return Status::Unimplemented("parameterized EVAL");
        }
        if (formula.output_vars.size() != 1) {
          return Status::InvalidArgument(
              std::string(AggregateKindName(formula.aggregate)) +
              " has exactly one output variable");
        }
        std::vector<std::string> columns = params;
        columns.insert(columns.end(), formula.aggregate_vars.begin(),
                       formula.aggregate_vars.end());
        CCDB_ASSIGN_OR_RETURN(ConstraintRelation rel,
                              EvaluateCore(*body, columns, stats));
        auto agg_start = SteadyClock::now();
        CCDB_ASSIGN_OR_RETURN(
            ConstraintRelation by_cell,
            aggregate_modules_.ApplyParameterized(
                formula.aggregate, rel, static_cast<int>(params.size())));
        stats->aggregate_seconds += SecondsSince(agg_start);
        stats->aggregate_calls += aggregate_modules_.call_count();
        aggregate_modules_.ResetCallCount();
        std::vector<std::string> out_names = params;
        out_names.push_back(formula.output_vars[0]);
        return RelationToQFormula(by_cell, out_names);
      }
      CCDB_ASSIGN_OR_RETURN(
          ConstraintRelation rel,
          EvaluateCore(*body, formula.aggregate_vars, stats));
      ++stats->aggregate_calls;
      if (formula.aggregate == AggregateKind::kEval) {
        if (formula.output_vars.size() != formula.aggregate_vars.size()) {
          return Status::InvalidArgument(
              "EVAL output arity must match the aggregation arity");
        }
        auto agg_start = SteadyClock::now();
        CCDB_ASSIGN_OR_RETURN(ConstraintRelation evaluated,
                              aggregate_modules_.Eval(rel,
                                                      options_.eval_epsilon));
        stats->aggregate_seconds += SecondsSince(agg_start);
        return RelationToQFormula(evaluated, formula.output_vars);
      }
      if (formula.output_vars.size() != 1) {
        return Status::InvalidArgument(
            std::string(AggregateKindName(formula.aggregate)) +
            " has exactly one output variable");
      }
      auto agg_start = SteadyClock::now();
      CCDB_ASSIGN_OR_RETURN(
          AggregateValue value,
          aggregate_modules_.ApplyNumeric(formula.aggregate, rel));
      stats->aggregate_seconds += SecondsSince(agg_start);
      Rational result = value.exact ? value.exact_value
                                    : DyadicFromDouble(value.approx_value);
      return QFormula::Compare(QTerm::Var(formula.output_vars[0]), RelOp::kEq,
                               QTerm::Const(result));
    }
  }
  return Status::Internal("unreachable formula kind");
}

StatusOr<ConstraintRelation> CalcFEvaluator::EvaluateCore(
    const QFormula& formula, const std::vector<std::string>& columns,
    CalcFStats* stats) const {
  // Stage INSTANTIATION (Figure 1): analytic-function rewriting, lowering
  // to variable indices, and substitution of stored relations.
  Formula instantiated = Formula::True();
  int arity = 0;
  {
    CCDB_TRACE_SPAN("calcf.instantiate");
    CCDB_FAILPOINT("calcf.instantiate");
    CCDB_CHECK_BUDGET(options_.governor, "calcf.instantiate");
    auto start = SteadyClock::now();
    CCDB_ASSIGN_OR_RETURN(
        auto function_free,
        RewriteFunctions(formula, &approx_module_, &options_.abase, stats));
    VarEnv env;
    for (const std::string& column : columns) env.Intern(column);
    arity = env.next_index;
    CCDB_ASSIGN_OR_RETURN(Formula lowered, LowerFormula(*function_free, &env));
    for (int v : lowered.FreeVars()) {
      if (v >= arity) {
        return Status::InvalidArgument(
            "query mentions a free variable beyond the output columns");
      }
    }
    CCDB_ASSIGN_OR_RETURN(instantiated,
                          lowered.InstantiateRelations(lookup_));
    stats->instantiation_seconds += SecondsSince(start);
  }

  // Stage QUANTIFIER ELIMINATION.
  auto qe_start = SteadyClock::now();
  QeStats qe_stats;
  CCDB_ASSIGN_OR_RETURN(
      ConstraintRelation rel,
      EliminateQuantifiers(instantiated, arity, options_.qe, &qe_stats));
  stats->qe_seconds += SecondsSince(qe_start);
  ++stats->qe_rounds;
  stats->max_intermediate_bits =
      std::max(stats->max_intermediate_bits, qe_stats.max_intermediate_bits);
  // Nested aggregate stages run earlier, so the last (main-query) round's
  // plan is the one surfaced.
  stats->plan = qe_stats.plan;
  return rel;
}

StatusOr<CalcFResult> CalcFEvaluator::Evaluate(
    const QFormula& query, const std::vector<std::string>& output_order) const {
  CCDB_TRACE_SPAN("calcf.evaluate");
  CCDB_METRIC_COUNT("calcf.queries", 1);
  CalcFResult result;
  CCDB_ASSIGN_OR_RETURN(auto aggregate_free,
                        EvaluateAggregates(query, &result.stats));
  std::vector<std::string> columns =
      output_order.empty() ? query.FreeVarNames() : output_order;
  CCDB_ASSIGN_OR_RETURN(
      result.relation,
      EvaluateCore(*aggregate_free, columns, &result.stats));
  result.column_names = columns;

  // Surface a scalar when the whole query was a single-output aggregate.
  if (query.kind == QFormula::Kind::kAggregate &&
      query.output_vars.size() == 1 && result.relation.tuples().size() == 1 &&
      result.relation.tuples()[0].atoms.size() == 1) {
    const Atom& atom = result.relation.tuples()[0].atoms[0];
    if (atom.op == RelOp::kEq && atom.poly.DegreeIn(0) == 1) {
      auto coeffs = atom.poly.CoefficientsIn(0);
      if (coeffs.size() == 2 && coeffs[1].is_constant() &&
          coeffs[0].is_constant()) {
        result.has_scalar = true;
        result.scalar.exact = true;
        result.scalar.exact_value =
            -coeffs[0].constant_value() / coeffs[1].constant_value();
        result.scalar.approx_value = result.scalar.exact_value.ToDouble();
      }
    }
  }
  return result;
}

StatusOr<CalcFResult> CalcFEvaluator::EvaluateText(
    const std::string& text,
    const std::vector<std::string>& output_order) const {
  auto parse_start = SteadyClock::now();
  CCDB_ASSIGN_OR_RETURN(auto parsed, ParseFormula(text));
  double parse_seconds = SecondsSince(parse_start);
  CCDB_ASSIGN_OR_RETURN(CalcFResult result, Evaluate(*parsed, output_order));
  result.stats.parse_seconds += parse_seconds;
  return result;
}

}  // namespace ccdb
