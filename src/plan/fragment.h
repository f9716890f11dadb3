#ifndef CCDB_PLAN_FRAGMENT_H_
#define CCDB_PLAN_FRAGMENT_H_

/// Fragment classification for the paper's strict expressiveness hierarchy
/// FO(<=) ⊂ FO(<=,+) ⊂ FO(<=,+,×) (Proposition 4.6). Every atom,
/// generalized tuple, and DNF system is classified into the CHEAPEST
/// fragment whose elimination engine can answer it:
///
///   kLinear      → Fourier-Motzkin          (qe/fourier_motzkin, Thm 4.2)
///   kPolynomial  → CAD                      (qe/cad, Theorem 4.1)
///
/// FO(<=) has no engine of its own: a dense-order matrix is linear, and
/// Fourier-Motzkin keeps dense-order input dense-order (the closure behind
/// Theorem 4.8, checked by dense_order_test).
///
/// This is the one shared home of the linearity test that the engines'
/// entry guard (IsLinearSystem) and the structure-aware planner
/// (plan/planner) dispatch on.

#include <vector>

#include "constraint/atom.h"

namespace ccdb {

enum class Fragment {
  kLinear = 0,      // total degree <= 1
  kPolynomial = 1,  // anything else
};

/// The engine answering the fragment: "fourier_motzkin", "cad".
const char* FragmentEngine(Fragment f);

/// Linear atom: total degree <= 1.
bool IsLinearAtom(const Atom& atom);

/// Polynomial iff some atom is; an empty conjunction is linear.
Fragment ClassifyTuple(const GeneralizedTuple& tuple);
/// Polynomial iff some tuple is; an empty system is linear.
Fragment ClassifyTuples(const std::vector<GeneralizedTuple>& tuples);

}  // namespace ccdb

#endif  // CCDB_PLAN_FRAGMENT_H_
