#include "qe/fourier_motzkin.h"

#include <algorithm>
#include <unordered_map>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "plan/fragment.h"

namespace ccdb {

bool IsLinearSystem(const std::vector<GeneralizedTuple>& tuples) {
  return ClassifyTuples(tuples) != Fragment::kPolynomial;
}

namespace {

// Splits every disequality atom p != 0 into the two strict tuples p < 0 and
// p > 0.
std::vector<GeneralizedTuple> SplitDisequalities(
    const std::vector<GeneralizedTuple>& tuples) {
  std::vector<GeneralizedTuple> out;
  for (const GeneralizedTuple& tuple : tuples) {
    std::vector<GeneralizedTuple> expanded{GeneralizedTuple()};
    for (const Atom& atom : tuple.atoms) {
      if (atom.op == RelOp::kNeq) {
        std::vector<GeneralizedTuple> next;
        for (const GeneralizedTuple& partial : expanded) {
          GeneralizedTuple less = partial;
          less.atoms.emplace_back(atom.poly, RelOp::kLt);
          GeneralizedTuple greater = partial;
          greater.atoms.emplace_back(atom.poly, RelOp::kGt);
          next.push_back(std::move(less));
          next.push_back(std::move(greater));
        }
        expanded = std::move(next);
      } else {
        for (GeneralizedTuple& partial : expanded) {
          partial.atoms.push_back(atom);
        }
      }
    }
    out.insert(out.end(), std::make_move_iterator(expanded.begin()),
               std::make_move_iterator(expanded.end()));
  }
  return out;
}

// Eliminates var from one tuple (conjunction) of linear atoms without
// disequalities. Returns the resulting tuples (usually one).
StatusOr<std::vector<GeneralizedTuple>> EliminateFromTuple(
    const GeneralizedTuple& tuple, int var, const ResourceGovernor* gov) {
  // Normalize each atom mentioning var to: coeff * var + rest (op) 0.
  // First, if an equation mentions var, solve and substitute.
  for (std::size_t i = 0; i < tuple.atoms.size(); ++i) {
    const Atom& atom = tuple.atoms[i];
    if (atom.op != RelOp::kEq || !atom.poly.Mentions(var)) continue;
    auto coeffs = atom.poly.CoefficientsIn(var);
    CCDB_CHECK(coeffs.size() == 2);  // linear
    if (!coeffs[1].is_constant()) {
      return Status::InvalidArgument("nonlinear atom in Fourier-Motzkin");
    }
    Rational c = coeffs[1].constant_value();
    // var = -rest / c.
    Polynomial solved = coeffs[0].Scale(-c.Inverse());
    GeneralizedTuple substituted;
    for (std::size_t j = 0; j < tuple.atoms.size(); ++j) {
      if (j == i) continue;
      const Atom& other = tuple.atoms[j];
      substituted.atoms.emplace_back(other.poly.SubstitutePoly(var, solved),
                                     other.op);
    }
    if (!substituted.SimplifyConstants()) {
      return std::vector<GeneralizedTuple>{};
    }
    return std::vector<GeneralizedTuple>{std::move(substituted)};
  }

  // No equation: gather lower/upper bounds.
  // atom: c*var + rest (op) 0 with op in {<, <=, >, >=} becomes
  //   var (op') -rest/c with direction depending on sign(c).
  struct Bound {
    Polynomial value;  // the bound expression
    bool strict;
  };
  std::vector<Bound> lower, upper;
  GeneralizedTuple remainder;
  for (const Atom& atom : tuple.atoms) {
    if (!atom.poly.Mentions(var)) {
      remainder.atoms.push_back(atom);
      continue;
    }
    auto coeffs = atom.poly.CoefficientsIn(var);
    CCDB_CHECK(coeffs.size() == 2);
    if (!coeffs[1].is_constant()) {
      return Status::InvalidArgument("nonlinear atom in Fourier-Motzkin");
    }
    Rational c = coeffs[1].constant_value();
    CCDB_CHECK(!c.is_zero());
    Polynomial bound = coeffs[0].Scale(-c.Inverse());
    RelOp op = atom.op;
    // c*var + rest op 0  <=>  var op'  bound  (op' flips when c < 0).
    bool flip = c.sign() < 0;
    switch (op) {
      case RelOp::kLt:
      case RelOp::kLe: {
        bool strict = op == RelOp::kLt;
        if (flip) {
          lower.push_back({bound, strict});
        } else {
          upper.push_back({bound, strict});
        }
        break;
      }
      case RelOp::kGt:
      case RelOp::kGe: {
        bool strict = op == RelOp::kGt;
        if (flip) {
          upper.push_back({bound, strict});
        } else {
          lower.push_back({bound, strict});
        }
        break;
      }
      case RelOp::kEq:
      case RelOp::kNeq:
        CCDB_CHECK_MSG(false, "equations/disequalities handled earlier");
    }
  }
  // Cross every lower bound with every upper bound: l (op) u. This product
  // is where FM's output-size blowup lives, so each generated constraint
  // charges the governor.
  CCDB_METRIC_COUNT("fm.constraints_generated", lower.size() * upper.size());
  for (const Bound& l : lower) {
    for (const Bound& u : upper) {
      CCDB_CHECK_BUDGET(gov, "qe.fm");
      RelOp op = (l.strict || u.strict) ? RelOp::kLt : RelOp::kLe;
      remainder.atoms.emplace_back(l.value - u.value, op);
    }
  }
  if (!remainder.SimplifyConstants()) {
    return std::vector<GeneralizedTuple>{};
  }
  return std::vector<GeneralizedTuple>{std::move(remainder)};
}

}  // namespace

StatusOr<std::vector<GeneralizedTuple>> EliminateExistsLinear(
    const std::vector<GeneralizedTuple>& tuples, int var,
    const ResourceGovernor* gov, ThreadPool* pool) {
  if (!IsLinearSystem(tuples)) {
    return Status::InvalidArgument("Fourier-Motzkin requires linear atoms");
  }
  CCDB_FAILPOINT("qe.fm");
  CCDB_METRIC_COUNT("fm.rounds", 1);
  // Existential quantification distributes over the union, so every
  // disjunct is eliminated independently; results land in index-addressed
  // slots and are concatenated in input order, never completion order, so
  // the output is identical at every thread count.
  std::vector<GeneralizedTuple> split = SplitDisequalities(tuples);
  CCDB_ASSIGN_OR_RETURN(
      std::vector<std::vector<GeneralizedTuple>> slots,
      ThreadPool::Resolve(pool)->ParallelMap<std::vector<GeneralizedTuple>>(
          split.size(),
          [&](std::size_t i) -> StatusOr<std::vector<GeneralizedTuple>> {
            CCDB_CHECK_BUDGET(gov, "qe.fm");
            CCDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> eliminated,
                                  EliminateFromTuple(split[i], var, gov));
            if (gov != nullptr) {
              for (const GeneralizedTuple& t : eliminated) {
                std::size_t bytes = 0;
                for (const Atom& atom : t.atoms) {
                  bytes += atom.poly.EstimateBytes();
                }
                gov->ChargeBytes(bytes);
              }
            }
            return eliminated;
          }));
  std::vector<GeneralizedTuple> out;
  for (std::vector<GeneralizedTuple>& slot : slots) {
    for (GeneralizedTuple& t : slot) out.push_back(std::move(t));
  }
  return SimplifyTuples(std::move(out));
}

std::vector<GeneralizedTuple> SimplifyTuples(
    std::vector<GeneralizedTuple> tuples) {
  // Canonicalize each disjunct (sign-normalized interned atoms, sorted and
  // deduplicated conjunctions, trivially-false disjuncts dropped), then
  // drop syntactically duplicate disjuncts — equality is cheap because
  // canonical atoms share interned polynomials. First occurrence is kept,
  // so the disjunct order stays input-derived and deterministic.
  std::vector<GeneralizedTuple> out;
  std::unordered_map<std::size_t, std::vector<std::size_t>> seen;
  for (GeneralizedTuple& tuple : tuples) {
    if (!tuple.Canonicalize()) continue;
    std::size_t hash = tuple.Hash();
    bool duplicate = false;
    for (std::size_t index : seen[hash]) {
      if (out[index] == tuple) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen[hash].push_back(out.size());
    out.push_back(std::move(tuple));
  }
  return out;
}

StatusOr<bool> LinearTupleEmpty(const GeneralizedTuple& tuple,
                                const ResourceGovernor* gov,
                                ThreadPool* pool) {
  int max_var = -1;
  for (const Atom& atom : tuple.atoms) {
    max_var = std::max(max_var, atom.poly.max_var());
  }
  if (max_var < 0) return tuple.TriviallyFalse();
  std::vector<GeneralizedTuple> rest{tuple};
  for (int var = max_var; var >= 0 && !rest.empty(); --var) {
    CCDB_ASSIGN_OR_RETURN(rest, EliminateExistsLinear(rest, var, gov, pool));
  }
  return rest.empty();
}

namespace {

// The key of a linear atom p op 0: p = s*d + c with d the interned
// primitive form of p's non-constant part, so p op 0 <=> d - b op' 0.
struct LinearKey {
  Polynomial direction;
  Rational bound;
  RelOp op;
};

// False for constant and nonlinear atoms.
bool KeyLinearAtom(const Atom& atom, LinearKey* key) {
  if (atom.poly.TotalDegree() != 1) return false;
  Rational constant = atom.poly.constant_value();
  Rational scale;
  key->direction =
      (atom.poly - Polynomial(constant)).IntegerNormalized(&scale).Interned();
  key->bound = -constant / scale;
  key->op = scale.sign() < 0 ? FlipOp(atom.op) : atom.op;
  return true;
}

}  // namespace

bool LinearBounds::Range::Below(const Rational& v, bool strict) const {
  return upper.present &&
         (upper.value < v || (upper.value == v && (upper.strict || !strict)));
}

bool LinearBounds::Range::Above(const Rational& v, bool strict) const {
  return lower.present &&
         (lower.value > v || (lower.value == v && (lower.strict || !strict)));
}

bool LinearBounds::Range::Excludes(const Rational& v) const {
  return Below(v, true) || Above(v, true) ||
         std::find(excluded.begin(), excluded.end(), v) != excluded.end();
}

LinearBounds::LinearBounds(const GeneralizedTuple& tuple) {
  // Keeps the tighter of two bounds on one side: the larger lower or the
  // smaller upper bound, the strict one on a tie.
  auto tighten = [](Side* side, const Rational& value, bool strict,
                    bool is_lower) {
    if (!side->present ||
        (is_lower ? value > side->value : value < side->value) ||
        (value == side->value && strict)) {
      *side = Side{true, value, strict};
    }
  };
  for (const Atom& atom : tuple.atoms) {
    if (atom.poly.is_constant()) {
      if (!SignSatisfies(atom.poly.constant_value().sign(), atom.op)) {
        contradictory_ = true;
      }
      continue;
    }
    LinearKey key;
    if (!KeyLinearAtom(atom, &key)) continue;
    auto range = std::find_if(
        ranges_.begin(), ranges_.end(),
        [&key](const Range& r) { return r.direction == key.direction; });
    if (range == ranges_.end()) {
      range = ranges_.insert(ranges_.end(), Range{key.direction, {}, {}, {}});
    }
    const bool strict = key.op == RelOp::kLt || key.op == RelOp::kGt;
    switch (key.op) {
      case RelOp::kLt:
      case RelOp::kLe:
        tighten(&range->upper, key.bound, strict, false);
        break;
      case RelOp::kGt:
      case RelOp::kGe:
        tighten(&range->lower, key.bound, strict, true);
        break;
      case RelOp::kEq:
        tighten(&range->upper, key.bound, false, false);
        tighten(&range->lower, key.bound, false, true);
        break;
      case RelOp::kNeq:
        range->excluded.push_back(key.bound);
        break;
    }
  }
  for (const Range& range : ranges_) {
    // Empty when the upper bound falls below the lower one (a tie with a
    // strict side included), or the one value left is excluded.
    const Side& lower = range.lower;
    if (lower.present && (range.Below(lower.value, !lower.strict) ||
                          (range.Pinned(lower.value) &&
                           range.Excludes(lower.value)))) {
      contradictory_ = true;
    }
  }
}

const LinearBounds::Range* LinearBounds::Find(
    const Polynomial& direction) const {
  for (const Range& range : ranges_) {
    if (range.direction == direction) return &range;
  }
  return nullptr;
}

BoundVerdict LinearBounds::Decide(const Atom& atom) const {
  if (atom.poly.is_constant()) {
    return SignSatisfies(atom.poly.constant_value().sign(), atom.op)
               ? BoundVerdict::kEntailed
               : BoundVerdict::kDisjoint;
  }
  LinearKey key;
  if (!KeyLinearAtom(atom, &key)) return BoundVerdict::kUnknown;
  const Range* range = Find(key.direction);
  if (range == nullptr) return BoundVerdict::kUnknown;
  const Rational& v = key.bound;
  bool entailed = false;
  bool disjoint = false;
  switch (key.op) {
    case RelOp::kLt:
      entailed = range->Below(v, true);
      disjoint = range->Above(v, false);
      break;
    case RelOp::kLe:
      entailed = range->Below(v, false);
      disjoint = range->Above(v, true);
      break;
    case RelOp::kGt:
      entailed = range->Above(v, true);
      disjoint = range->Below(v, false);
      break;
    case RelOp::kGe:
      entailed = range->Above(v, false);
      disjoint = range->Below(v, true);
      break;
    case RelOp::kEq:
      entailed = range->Pinned(v);
      disjoint = range->Excludes(v);
      break;
    case RelOp::kNeq:
      entailed = range->Excludes(v);
      disjoint = range->Pinned(v);
      break;
  }
  if (entailed) return BoundVerdict::kEntailed;
  return disjoint ? BoundVerdict::kDisjoint : BoundVerdict::kUnknown;
}

GeneralizedTuple LinearBounds::Tightest() const {
  GeneralizedTuple out;
  if (contradictory_) {
    out.atoms.emplace_back(Polynomial(1), RelOp::kEq);  // 1 = 0
    return out;
  }
  for (const Range& range : ranges_) {
    auto bound = [&range](const Rational& value, RelOp op) {
      return Atom(range.direction - Polynomial(value), op);
    };
    const Side& lower = range.lower;
    const Side& upper = range.upper;
    if (lower.present && range.Pinned(lower.value)) {
      out.atoms.push_back(bound(lower.value, RelOp::kEq));
    } else {
      if (lower.present) {
        out.atoms.push_back(
            bound(lower.value, lower.strict ? RelOp::kGt : RelOp::kGe));
      }
      if (upper.present) {
        out.atoms.push_back(
            bound(upper.value, upper.strict ? RelOp::kLt : RelOp::kLe));
      }
    }
    for (const Rational& value : range.excluded) {
      if (!range.Below(value, true) && !range.Above(value, true)) {
        out.atoms.push_back(bound(value, RelOp::kNeq));
      }
    }
  }
  return out;
}

LinearContainment::LinearContainment(const GeneralizedTuple& t,
                                     const ResourceGovernor* gov,
                                     ThreadPool* pool)
    : bounds_(t), gov_(gov), pool_(pool) {}

StatusOr<bool> LinearContainment::EmptyWith(const Atom* extra) {
  if (!tightest_.has_value()) tightest_ = bounds_.Tightest();
  if (extra == nullptr) return LinearTupleEmpty(*tightest_, gov_, pool_);
  GeneralizedTuple witness = *tightest_;
  witness.atoms.push_back(*extra);
  return LinearTupleEmpty(witness, gov_, pool_);
}

StatusOr<bool> LinearContainment::Empty() {
  if (!empty_.has_value()) {
    CCDB_ASSIGN_OR_RETURN(bool empty, EmptyWith(nullptr));
    empty_ = empty;
  }
  return *empty_;
}

StatusOr<bool> LinearContainment::In(const GeneralizedTuple& u) {
  if (bounds_.contradictory() || empty_.value_or(false)) return true;
  std::vector<const Atom*> open;
  for (const Atom& atom : u.atoms) {
    switch (bounds_.Decide(atom)) {
      case BoundVerdict::kEntailed:
        break;
      case BoundVerdict::kDisjoint:
        // t ∧ atom is empty, so t ⊆ u only when t is.
        return Empty();
      case BoundVerdict::kUnknown:
        open.push_back(&atom);
        break;
    }
  }
  if (open.empty()) return true;
  ++eliminations_;
  for (const Atom* atom : open) {
    const Atom negated = atom->Negated();
    CCDB_ASSIGN_OR_RETURN(bool none, EmptyWith(&negated));
    if (!none) return false;
  }
  return true;
}

}  // namespace ccdb
