#include "plan/fragment.h"

namespace ccdb {

const char* FragmentEngine(Fragment f) {
  switch (f) {
    case Fragment::kLinear:
      return "fourier_motzkin";
    case Fragment::kPolynomial:
      return "cad";
  }
  return "?";
}

bool IsLinearAtom(const Atom& atom) { return atom.poly.TotalDegree() <= 1; }

Fragment ClassifyTuple(const GeneralizedTuple& tuple) {
  for (const Atom& atom : tuple.atoms) {
    if (!IsLinearAtom(atom)) return Fragment::kPolynomial;
  }
  return Fragment::kLinear;
}

Fragment ClassifyTuples(const std::vector<GeneralizedTuple>& tuples) {
  for (const GeneralizedTuple& tuple : tuples) {
    if (ClassifyTuple(tuple) == Fragment::kPolynomial) {
      return Fragment::kPolynomial;
    }
  }
  return Fragment::kLinear;
}

}  // namespace ccdb
