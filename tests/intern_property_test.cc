// Property/fuzz tests for the hash-consed IR: canonicalization is
// idempotent, construction-time normalization preserves semantics (checked
// differentially against a shadow tree that evaluates the raw, un-normalized
// atoms), structurally equal formulas intern to one node (also under
// concurrent construction — the TSan CI leg exercises the arena locks), and
// the negated-operator normalization regression: ¬(p < 0) and p >= 0 must be
// the same interned atom. Also pins the invariants the normalization fast
// paths rely on: interned atoms are canonical, ToNnf returns an NNF input
// as the same node, and ToDnf matches a DNF that re-canonicalizes every
// atom.

#include <memory>
#include <random>
#include <unordered_map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constraint/formula.h"
#include "poly/polynomial.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

// Shadow of a formula built exactly as the random generator asked, with no
// canonicalization anywhere: the atom stores the raw polynomial/operator
// pair, and evaluation is textbook connective semantics over raw sign
// tests. Differential oracle for the construction-time normalization.
struct Shadow {
  enum Kind { kAtom, kNot, kAnd, kOr } kind;
  Polynomial poly;
  RelOp op = RelOp::kEq;
  std::vector<std::unique_ptr<Shadow>> children;

  bool EvaluateAt(const std::vector<Rational>& point) const {
    switch (kind) {
      case kAtom:
        return SignSatisfies(poly.Evaluate(point).sign(), op);
      case kNot:
        return !children[0]->EvaluateAt(point);
      case kAnd:
        for (const auto& child : children) {
          if (!child->EvaluateAt(point)) return false;
        }
        return true;
      case kOr:
        for (const auto& child : children) {
          if (child->EvaluateAt(point)) return true;
        }
        return false;
    }
    return false;
  }
};

// Builds a random quantifier-free formula and its shadow simultaneously.
Formula RandomFormula(std::mt19937_64* rng, int depth,
                      std::unique_ptr<Shadow>* shadow) {
  if (depth == 0 || (*rng)() % 4 == 0) {
    std::uniform_int_distribution<std::int64_t> coeff(-4, 4);
    // Non-primitive, possibly negative-leading polynomials on purpose —
    // the canonicalizer must gcd-reduce and sign-normalize them.
    Polynomial p = Polynomial(2 * coeff(*rng)) * Polynomial::Var(0) +
                   Polynomial(2 * coeff(*rng)) * Polynomial::Var(1) +
                   Polynomial(coeff(*rng)) * Polynomial::Var(0) *
                       Polynomial::Var(1) +
                   Polynomial(coeff(*rng));
    RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                   RelOp::kNeq, RelOp::kGe, RelOp::kGt};
    RelOp op = ops[(*rng)() % 6];
    *shadow = std::make_unique<Shadow>();
    (*shadow)->kind = Shadow::kAtom;
    (*shadow)->poly = p;
    (*shadow)->op = op;
    return Formula::MakeAtom(Atom(p, op));
  }
  switch ((*rng)() % 3) {
    case 0: {
      std::unique_ptr<Shadow> child;
      Formula f = Formula::Not(RandomFormula(rng, depth - 1, &child));
      *shadow = std::make_unique<Shadow>();
      (*shadow)->kind = Shadow::kNot;
      (*shadow)->children.push_back(std::move(child));
      return f;
    }
    case 1: {
      std::unique_ptr<Shadow> a, b;
      Formula f = Formula::And(RandomFormula(rng, depth - 1, &a),
                               RandomFormula(rng, depth - 1, &b));
      *shadow = std::make_unique<Shadow>();
      (*shadow)->kind = Shadow::kAnd;
      (*shadow)->children.push_back(std::move(a));
      (*shadow)->children.push_back(std::move(b));
      return f;
    }
    default: {
      std::unique_ptr<Shadow> a, b;
      Formula f = Formula::Or(RandomFormula(rng, depth - 1, &a),
                              RandomFormula(rng, depth - 1, &b));
      *shadow = std::make_unique<Shadow>();
      (*shadow)->kind = Shadow::kOr;
      (*shadow)->children.push_back(std::move(a));
      (*shadow)->children.push_back(std::move(b));
      return f;
    }
  }
}

// Rebuilds a formula from its observable structure through the public
// constructors. Because construction canonicalizes, rebuild(f) == f states
// that canonicalization is idempotent (a fixed point of itself).
Formula Rebuild(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return Formula::True();
    case Formula::Kind::kFalse:
      return Formula::False();
    case Formula::Kind::kAtom:
      return Formula::MakeAtom(f.atom());
    case Formula::Kind::kRelation:
      return Formula::Relation(f.relation_name(), f.relation_args());
    case Formula::Kind::kNot:
      return Formula::Not(Rebuild(f.children()[0]));
    case Formula::Kind::kAnd: {
      std::vector<Formula> children;
      for (const Formula& child : f.children()) {
        children.push_back(Rebuild(child));
      }
      return Formula::And(children);
    }
    case Formula::Kind::kOr: {
      std::vector<Formula> children;
      for (const Formula& child : f.children()) {
        children.push_back(Rebuild(child));
      }
      return Formula::Or(children);
    }
    case Formula::Kind::kExists:
      return Formula::Exists(f.quantified_var(), Rebuild(f.children()[0]));
    case Formula::Kind::kForall:
      return Formula::Forall(f.quantified_var(), Rebuild(f.children()[0]));
  }
  return Formula::True();
}

void CollectAtoms(const Formula& f, std::vector<Atom>* out) {
  if (f.kind() == Formula::Kind::kAtom) {
    out->push_back(f.atom());
    return;
  }
  for (const Formula& child : f.children()) CollectAtoms(child, out);
}

void CollectRawAtoms(const Shadow& shadow, std::vector<Atom>* out) {
  if (shadow.kind == Shadow::kAtom) {
    out->emplace_back(shadow.poly, shadow.op);
    return;
  }
  for (const auto& child : shadow.children) CollectRawAtoms(*child, out);
}

// ToDnf as it was before it trusted the canonical-atom invariant: every
// disjunct goes through GeneralizedTuple::Canonicalize, which
// re-canonicalizes each atom and folds constant ones.
std::vector<GeneralizedTuple> CanonicalizingDnf(const Formula& nnf) {
  std::vector<GeneralizedTuple> tuples;
  switch (nnf.kind()) {
    case Formula::Kind::kTrue:
      tuples.emplace_back();
      break;
    case Formula::Kind::kFalse:
      break;
    case Formula::Kind::kAtom:
      tuples.emplace_back(std::vector<Atom>{nnf.atom()});
      break;
    case Formula::Kind::kOr:
      for (const Formula& child : nnf.children()) {
        for (GeneralizedTuple& t : CanonicalizingDnf(child)) {
          tuples.push_back(std::move(t));
        }
      }
      break;
    case Formula::Kind::kAnd: {
      tuples.emplace_back();
      for (const Formula& child : nnf.children()) {
        std::vector<GeneralizedTuple> sub = CanonicalizingDnf(child);
        std::vector<GeneralizedTuple> next;
        for (const GeneralizedTuple& left : tuples) {
          for (const GeneralizedTuple& right : sub) {
            GeneralizedTuple merged = left;
            merged.atoms.insert(merged.atoms.end(), right.atoms.begin(),
                                right.atoms.end());
            next.push_back(std::move(merged));
          }
        }
        tuples = std::move(next);
      }
      break;
    }
    default:
      ADD_FAILURE() << "CanonicalizingDnf needs a quantifier-free NNF";
  }
  return tuples;
}

std::vector<GeneralizedTuple> CanonicalizingToDnf(const Formula& f) {
  std::vector<GeneralizedTuple> kept;
  std::unordered_map<std::size_t, std::vector<std::size_t>> seen;
  for (GeneralizedTuple& tuple : CanonicalizingDnf(ToNnf(f))) {
    if (!tuple.Canonicalize()) continue;
    bool duplicate = false;
    for (std::size_t index : seen[tuple.Hash()]) {
      duplicate |= kept[index] == tuple;
    }
    if (duplicate) continue;
    seen[tuple.Hash()].push_back(kept.size());
    kept.push_back(std::move(tuple));
  }
  return kept;
}

class InternPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InternPropertyTest, CanonicalizationIsIdempotent) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::unique_ptr<Shadow> shadow;
    Formula f = RandomFormula(&rng, 3, &shadow);
    Formula rebuilt = Rebuild(f);
    EXPECT_TRUE(f == rebuilt) << f.ToString({"x", "y"});
    EXPECT_EQ(f.id(), rebuilt.id());
    // Atom::Canonical is idempotent on the raw generated atoms, and every
    // atom an interned formula holds is canonical and non-constant — the
    // invariant that lets ToDnf skip re-canonicalizing.
    std::vector<Atom> raw;
    CollectRawAtoms(*shadow, &raw);
    for (const Atom& atom : raw) {
      Atom once = atom.Canonical();
      EXPECT_TRUE(once.Canonical() == once) << atom.ToString({"x", "y"});
    }
    std::vector<Atom> interned;
    CollectAtoms(f, &interned);
    for (const Atom& atom : interned) {
      EXPECT_TRUE(atom.Canonical() == atom) << atom.ToString({"x", "y"});
      EXPECT_FALSE(atom.poly.is_constant());
    }
  }
}

TEST_P(InternPropertyTest, NormalizationPreservesTruthDifferentially) {
  std::mt19937_64 rng(1000 + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    std::unique_ptr<Shadow> shadow;
    Formula f = RandomFormula(&rng, 3, &shadow);
    for (std::int64_t xi = -4; xi <= 4; ++xi) {
      for (std::int64_t yi = -3; yi <= 3; ++yi) {
        std::vector<Rational> point{R(xi, 2), R(yi, 3)};
        EXPECT_EQ(shadow->EvaluateAt(point), f.EvaluateAt(point))
            << f.ToString({"x", "y"});
      }
    }
  }
}

TEST_P(InternPropertyTest, StructurallyEqualFormulasShareOneNode) {
  std::mt19937_64 rng(2000 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::unique_ptr<Shadow> shadow;
    std::mt19937_64 rng_copy = rng;  // same stream -> same formula
    Formula a = RandomFormula(&rng, 3, &shadow);
    Formula b = RandomFormula(&rng_copy, 3, &shadow);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.Hash(), b.Hash());
  }
}

TEST_P(InternPropertyTest, ToNnfOfNnfIsTheSameNode) {
  std::mt19937_64 rng(4000 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::unique_ptr<Shadow> shadow;
    Formula f = RandomFormula(&rng, 3, &shadow);
    for (const Formula& g :
         {f, Formula::Not(Formula::Exists(1, f)),
          Formula::Forall(0, Formula::Not(Formula::And(f, Formula::Exists(
                                                              1, f))))}) {
      Formula nnf = ToNnf(g);
      EXPECT_EQ(ToNnf(nnf).id(), nnf.id()) << g.ToString({"x", "y"});
    }
  }
}

TEST_P(InternPropertyTest, ToDnfMatchesCanonicalizingDnf) {
  std::mt19937_64 rng(5000 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::unique_ptr<Shadow> shadow;
    Formula f = RandomFormula(&rng, 3, &shadow);
    EXPECT_EQ(ToDnf(f).value(), CanonicalizingToDnf(f))
        << f.ToString({"x", "y"});
  }
}

TEST(InternConcurrencyTest, ConcurrentConstructionInternsUniquely) {
  // Every thread builds the same seeded formulas and keeps them alive;
  // since ids are never reused and the formulas coexist, hash-consing
  // must give every thread the same node (same id) at each index. Under
  // the TSan CI leg this also exercises the arena's shard locking.
  constexpr int kThreads = 8;
  constexpr int kFormulas = 40;
  std::vector<std::vector<Formula>> built(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &built] {
      std::mt19937_64 rng(12345);
      built[t].reserve(kFormulas);
      for (int i = 0; i < kFormulas; ++i) {
        std::unique_ptr<Shadow> shadow;
        built[t].push_back(RandomFormula(&rng, 3, &shadow));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kFormulas; ++i) {
      EXPECT_TRUE(built[0][i] == built[t][i]);
      EXPECT_EQ(built[0][i].id(), built[t][i].id());
    }
  }
}

TEST(NegatedOpNormalizationTest, NegatedLtIsGe) {
  // Regression: ¬(p < 0) must be the SAME interned atom as p >= 0 — the
  // two spellings used to normalize differently.
  Polynomial p = Polynomial::Var(0) - Polynomial(3);
  Formula not_lt = Formula::Not(Formula::MakeAtom(Atom(p, RelOp::kLt)));
  Formula ge = Formula::MakeAtom(Atom(p, RelOp::kGe));
  EXPECT_TRUE(not_lt == ge);
  EXPECT_EQ(not_lt.id(), ge.id());
  EXPECT_EQ(not_lt.kind(), Formula::Kind::kAtom);
}

TEST(NegatedOpNormalizationTest, SignFlipUnifiesMirroredAtoms) {
  // -p < 0 and p > 0 are one atom; x < y and y > x are one formula; and
  // scaling never splits an equivalence class.
  Polynomial x = Polynomial::Var(0), y = Polynomial::Var(1);
  EXPECT_TRUE(Atom(-x, RelOp::kLt).Canonical() ==
              Atom(x, RelOp::kGt).Canonical());
  EXPECT_TRUE(Formula::Compare(x, RelOp::kLt, y) ==
              Formula::Compare(y, RelOp::kGt, x));
  EXPECT_TRUE(Formula::Compare(Polynomial(6) * x, RelOp::kLe,
                               Polynomial(6) * y) ==
              Formula::Compare(x, RelOp::kLe, y));
}

TEST(NegatedOpNormalizationTest, DoubleNegationFolds) {
  Polynomial p = Polynomial::Var(0) * Polynomial::Var(0) - Polynomial(2);
  Formula atom = Formula::MakeAtom(Atom(p, RelOp::kLe));
  EXPECT_TRUE(Formula::Not(Formula::Not(atom)) == atom);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ccdb
