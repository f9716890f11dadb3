#ifndef CCDB_AGG_AGGREGATES_H_
#define CCDB_AGG_AGGREGATES_H_

#include <string>
#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "constraint/atom.h"
#include "qe/cad.h"

namespace ccdb {

/// The aggregate functions of CALC_F (paper, Section 5): "MIN, MAX, AVG,
/// LENGTH, SURFACE, VOLUME, and EVAL".
enum class AggregateKind {
  kMin,
  kMax,
  kAvg,
  kLength,
  kSurface,
  kVolume,
  kEval,
};

StatusOr<AggregateKind> AggregateKindFromName(const std::string& name);
const char* AggregateKindName(AggregateKind kind);
/// Required input arity of the aggregate (-1: any arity, for EVAL).
int AggregateInputArity(AggregateKind kind);

/// A numeric aggregate result: exact rational when the geometry allows
/// (rational endpoints, polynomial-graph boundaries), a certified-tolerance
/// double otherwise. The paper's framework explicitly allows approximate
/// module outputs ("manipulation of approximate values").
struct AggregateValue {
  bool exact = false;
  Rational exact_value;
  double approx_value = 0.0;
  double error_estimate = 0.0;

  double Value() const { return exact ? exact_value.ToDouble() : approx_value; }
};

/// The (k,l)-aggregate evaluation modules of Definition 5.3, implemented
/// with our own CAD decomposition and Gauss–Legendre quadrature. Aggregates
/// are *partial*: MIN of an unbounded-below set, or SURFACE of an unbounded
/// region, is kUndefined ("return ... if they exist, undefined otherwise").
class AggregateModules {
 public:
  /// `governor`, when non-null, bounds every CAD decomposition and
  /// quadrature the modules run; exceeded budgets surface as
  /// kResourceExhausted from the aggregate call. The modules' CADs lift on
  /// `pool`; null lifts them on the calling thread. Both borrowed, not
  /// owned.
  explicit AggregateModules(double tolerance = 1e-9,
                            const ResourceGovernor* governor = nullptr,
                            ThreadPool* pool = nullptr)
      : tolerance_(tolerance) {
    cad_.governor = governor;
    cad_.pool = pool;
  }

  /// Number of aggregate-module calls served (Theorem 5.5 counts these).
  std::uint64_t call_count() const { return call_count_; }
  void ResetCallCount() const { call_count_ = 0; }

  /// Smallest value of a unary relation; undefined when empty or when the
  /// infimum is not attained / is -infinity.
  StatusOr<AggregateValue> Min(const ConstraintRelation& relation) const;
  /// Largest value, dually.
  StatusOr<AggregateValue> Max(const ConstraintRelation& relation) const;
  /// Mean value: arithmetic mean of a finite set, or the uniform-measure
  /// mean of a set of positive finite 1-D measure.
  StatusOr<AggregateValue> Avg(const ConstraintRelation& relation) const;
  /// 1-D measure of a unary relation (sum of interval lengths).
  StatusOr<AggregateValue> Length(const ConstraintRelation& relation) const;
  /// 2-D area of a binary relation, exact where every boundary is a
  /// polynomial graph y = g(x) over rational x-sector ends (DESIGN.md §20).
  StatusOr<AggregateValue> Surface(const ConstraintRelation& relation) const;
  /// 3-D volume of a ternary relation on its one CAD: SURFACE's numeric
  /// path one level deeper (y-ends per x node, z-extents per (x, y) node).
  StatusOr<AggregateValue> Volume(const ConstraintRelation& relation) const;

  /// EVAL (paper, Section 5): "maps a given system of constraints S either
  /// to its finite set of solutions if it exists, or to S itself
  /// otherwise". Finite solutions are emitted as exact point tuples when
  /// rational, epsilon-approximated otherwise.
  StatusOr<ConstraintRelation> Eval(const ConstraintRelation& relation,
                                    const Rational& epsilon) const;

  /// Dispatches a numeric aggregate by kind (not EVAL).
  StatusOr<AggregateValue> ApplyNumeric(AggregateKind kind,
                                        const ConstraintRelation& relation) const;

  /// The paper's step 4 (Section 5): PARAMETERIZED aggregate evaluation.
  /// `relation` is over variables 0..num_params-1 (the parameters x) and
  /// num_params..arity-1 (the aggregation variables y). Requires every
  /// tuple to be separable (t == t_x ∧ t_y); builds a CAD of the
  /// parameter space from the t_x constraints, aggregates the union of
  /// the active t_y parts over each cell, and returns a relation over
  /// (x, z): the paper's  { t_c ∧ t_y | c ∈ C, t_y ∈ g_y(r_c) }.
  /// Cells whose aggregate is undefined (e.g. MIN of an unbounded slice)
  /// are omitted — the aggregate predicate is partial there.
  StatusOr<ConstraintRelation> ApplyParameterized(
      AggregateKind kind, const ConstraintRelation& relation,
      int num_params) const;

 private:
  double tolerance_;
  /// The governor and pool of every CAD, quadrature and nested module call.
  CadOptions cad_;
  mutable std::uint64_t call_count_ = 0;
};

}  // namespace ccdb

#endif  // CCDB_AGG_AGGREGATES_H_
