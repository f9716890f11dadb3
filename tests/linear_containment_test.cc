// Linear tuple containment (LinearBounds / LinearContainment, the Datalog
// fixpoint's subsumption test) against the QE driver as the oracle:
// t ⊆ u iff no point satisfies t ∧ ¬u, i.e. !DecideSentence(∃x̄ (t ∧ ¬u)).
// Every verdict of the bound-keyed decision must equal the oracle's, on
// hand-picked cases and on seeded random pairs over 1-3 variables with
// rational coefficients, all six operators, parallel directions at
// different scales, empty and identical tuples, and `!=` atoms.

#include <gtest/gtest.h>

#include "test_pool.h"

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "constraint/formula.h"
#include "property_env.h"
#include "qe/fourier_motzkin.h"
#include "qe/qe.h"

namespace ccdb {
namespace {

Polynomial V(int i) { return Polynomial::Var(i); }

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial P(std::int64_t n) { return Polynomial(R(n)); }

// The oracle: the body of the QE containment test the fixpoint used
// before linear pairs were decided by bounds.
bool QeContained(const GeneralizedTuple& t, const GeneralizedTuple& u,
                 int vars) {
  std::vector<Formula> t_atoms;
  for (const Atom& atom : t.atoms) t_atoms.push_back(Formula::MakeAtom(atom));
  std::vector<Formula> u_atoms;
  for (const Atom& atom : u.atoms) u_atoms.push_back(Formula::MakeAtom(atom));
  Formula witness =
      Formula::And(Formula::And(t_atoms), Formula::Not(Formula::And(u_atoms)));
  for (int v = vars; v-- > 0;) witness = Formula::Exists(v, std::move(witness));
  QeOptions options;
  options.pool = ccdb_test::ProcessPool();
  StatusOr<bool> has_witness = DecideSentence(witness, options);
  EXPECT_TRUE(has_witness.ok()) << has_witness.status().ToString();
  return has_witness.ok() && !*has_witness;
}

// The decision under test; `eliminated` reports whether the bounds left
// an atom open, so the verdict needed Fourier-Motzkin on t ∧ ¬a.
bool Contained(const GeneralizedTuple& t, const GeneralizedTuple& u,
               bool* eliminated = nullptr) {
  LinearContainment test(t, nullptr, ccdb_test::ProcessPool());
  StatusOr<bool> inside = test.In(u);
  EXPECT_TRUE(inside.ok()) << inside.status().ToString();
  if (eliminated != nullptr) *eliminated = test.eliminations() > 0;
  return inside.ok() && *inside;
}

GeneralizedTuple Tuple(std::vector<Atom> atoms) {
  return GeneralizedTuple(std::move(atoms));
}

TEST(LinearBoundsTest, ParallelDirectionsCompareByBound) {
  // 2x - 1 <= 0 is x <= 1/2 on the direction x.
  LinearBounds bounds(Tuple({Atom(P(2) * V(0) - R(1), RelOp::kLe)}));
  EXPECT_EQ(bounds.Decide(Atom(V(0) - R(7), RelOp::kLe)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(bounds.Decide(Atom(P(-3) * V(0) + R(21), RelOp::kGe)),
            BoundVerdict::kEntailed);  // -3x + 21 >= 0 is x <= 7
  EXPECT_EQ(bounds.Decide(Atom(P(4) * V(0) - R(2), RelOp::kLe)),
            BoundVerdict::kEntailed);  // the same bound at another scale
  EXPECT_EQ(bounds.Decide(Atom(P(4) * V(0) - R(2), RelOp::kLt)),
            BoundVerdict::kUnknown);  // x < 1/2 is tighter
  EXPECT_EQ(bounds.Decide(Atom(V(0) - R(1, 2), RelOp::kGt)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(bounds.Decide(Atom(V(0) - R(1, 2), RelOp::kGe)),
            BoundVerdict::kUnknown);  // x = 1/2 is a common point
  EXPECT_EQ(bounds.Decide(Atom(V(1) - R(7), RelOp::kLe)),
            BoundVerdict::kUnknown);  // y is not bounded
  EXPECT_EQ(bounds.Decide(Atom(V(0) * V(0), RelOp::kGe)),
            BoundVerdict::kUnknown);  // nonlinear
  EXPECT_FALSE(bounds.contradictory());
}

TEST(LinearBoundsTest, StrictnessDecidesTies) {
  LinearBounds open(Tuple({Atom(V(0) - R(1), RelOp::kLt)}));
  EXPECT_EQ(open.Decide(Atom(V(0) - R(1), RelOp::kLe)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(open.Decide(Atom(V(0) - R(1), RelOp::kLt)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(open.Decide(Atom(V(0) - R(1), RelOp::kGe)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(open.Decide(Atom(V(0) - R(1), RelOp::kEq)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(open.Decide(Atom(V(0) - R(1), RelOp::kNeq)),
            BoundVerdict::kEntailed);

  LinearBounds closed(Tuple({Atom(V(0) - R(1), RelOp::kLe)}));
  EXPECT_EQ(closed.Decide(Atom(V(0) - R(1), RelOp::kLt)),
            BoundVerdict::kUnknown);
  EXPECT_EQ(closed.Decide(Atom(V(0) - R(1), RelOp::kGe)),
            BoundVerdict::kUnknown);
  EXPECT_EQ(closed.Decide(Atom(V(0) - R(1), RelOp::kGt)),
            BoundVerdict::kDisjoint);
}

TEST(LinearBoundsTest, EqualitiesAndDisequalities) {
  // x + y = 2 pins the direction x + y; x - y != 0 excludes one value.
  LinearBounds bounds(Tuple({Atom(V(0) + V(1) - R(2), RelOp::kEq),
                             Atom(V(0) - V(1), RelOp::kNeq)}));
  EXPECT_EQ(bounds.Decide(Atom(P(3) * V(0) + P(3) * V(1) - R(6), RelOp::kEq)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(bounds.Decide(Atom(V(0) + V(1) - R(1), RelOp::kNeq)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(bounds.Decide(Atom(V(0) + V(1) - R(2), RelOp::kNeq)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(bounds.Decide(Atom(V(0) + V(1) - R(2), RelOp::kLt)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(bounds.Decide(Atom(P(2) * V(1) - P(2) * V(0), RelOp::kNeq)),
            BoundVerdict::kEntailed);
  EXPECT_EQ(bounds.Decide(Atom(V(0) - V(1), RelOp::kEq)),
            BoundVerdict::kDisjoint);
  EXPECT_EQ(bounds.Decide(Atom(V(0) - V(1), RelOp::kGt)),
            BoundVerdict::kUnknown);
}

TEST(LinearBoundsTest, ContradictoryBoundsMarkTheTupleEmpty) {
  EXPECT_TRUE(LinearBounds(Tuple({Atom(V(0) - R(1), RelOp::kLt),
                                  Atom(V(0) - R(1), RelOp::kGe)}))
                  .contradictory());
  EXPECT_TRUE(LinearBounds(Tuple({Atom(P(2) * V(0) - R(2), RelOp::kEq),
                                  Atom(V(0) - R(1), RelOp::kNeq)}))
                  .contradictory());
  StatusOr<bool> tightest_empty = LinearTupleEmpty(
      LinearBounds(Tuple({Atom(V(0), RelOp::kGt), Atom(V(0), RelOp::kLe)}))
          .Tightest());
  ASSERT_TRUE(tightest_empty.ok());
  EXPECT_TRUE(*tightest_empty);
  EXPECT_FALSE(LinearBounds(Tuple({Atom(V(0) - R(1), RelOp::kLe),
                                   Atom(V(0) - R(1), RelOp::kGe)}))
                   .contradictory());
  // Empty, but only through two directions: bounds cannot tell, FM can.
  GeneralizedTuple hidden = Tuple({Atom(V(0) + V(1), RelOp::kLe),
                                   Atom(V(0) - R(1), RelOp::kGe),
                                   Atom(V(1) - R(1), RelOp::kGe)});
  EXPECT_FALSE(LinearBounds(hidden).contradictory());
  StatusOr<bool> empty = LinearTupleEmpty(hidden);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(*empty);
  EXPECT_TRUE(Contained(hidden, Tuple({Atom(V(0) - R(99), RelOp::kGt)})));
}

TEST(LinearContainmentTest, HandPickedPairsMatchTheOracle) {
  const std::vector<std::pair<GeneralizedTuple, GeneralizedTuple>> pairs = {
      // A Reach-shaped pair: y = x + 2 on [0, 3] inside y - x >= 1, x >= -1.
      {Tuple({Atom(V(1) - V(0) - R(2), RelOp::kEq), Atom(-V(0), RelOp::kLe),
              Atom(V(0) - R(3), RelOp::kLe)}),
       Tuple({Atom(V(1) - V(0) - R(1), RelOp::kGe),
              Atom(V(0) + R(1), RelOp::kGe)})},
      // Implied through a second direction: needs t ∧ ¬a.
      {Tuple({Atom(V(0), RelOp::kGe), Atom(V(1), RelOp::kGe)}),
       Tuple({Atom(V(0) + V(1), RelOp::kGe)})},
      {Tuple({Atom(V(0), RelOp::kGe), Atom(V(1), RelOp::kGe)}),
       Tuple({Atom(V(0) + V(1), RelOp::kGt)})},
      // An equality the bounds cannot see, and its disequality.
      {Tuple({Atom(V(0) - V(1), RelOp::kEq), Atom(V(1) - R(1), RelOp::kEq)}),
       Tuple({Atom(V(0) - R(1), RelOp::kEq)})},
      {Tuple({Atom(V(0) - V(1), RelOp::kEq), Atom(V(1) - R(1), RelOp::kEq)}),
       Tuple({Atom(V(0) - R(2), RelOp::kNeq)})},
      {Tuple({Atom(V(0), RelOp::kGe)}), Tuple({Atom(V(0), RelOp::kNeq)})},
      // A `!=` at the closed end of t's interval: t is x < 1.
      {Tuple({Atom(V(0) - R(1), RelOp::kLe), Atom(V(0) - R(1), RelOp::kNeq)}),
       Tuple({Atom(V(0) - R(1), RelOp::kLt)})},
      {Tuple({Atom(V(0) - R(1), RelOp::kLe), Atom(V(0) - R(1), RelOp::kNeq),
              Atom(V(1) - V(0), RelOp::kEq)}),
       Tuple({Atom(V(1) - R(1), RelOp::kLt)})},
      // Identical tuples, the empty conjunction, and an empty t.
      {Tuple({Atom(V(0) - R(1), RelOp::kLt)}),
       Tuple({Atom(V(0) - R(1), RelOp::kLt)})},
      {Tuple({}), Tuple({Atom(V(0), RelOp::kLt)})},
      {Tuple({Atom(V(0), RelOp::kLt)}), Tuple({})},
      {Tuple({Atom(V(0), RelOp::kLt), Atom(V(0), RelOp::kGt)}),
       Tuple({Atom(V(1), RelOp::kEq)})},
  };
  for (const auto& [t, u] : pairs) {
    EXPECT_EQ(Contained(t, u), QeContained(t, u, 2))
        << t.ToString() << "  in  " << u.ToString();
  }
}

// Seeded pair generator. Coefficients and constants come from small
// ranges so bounds often tie, which is where strictness matters.
class PairGenerator {
 public:
  explicit PairGenerator(std::uint64_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  Rational Coefficient() {
    int num = Int(1, 3) * (Int(0, 1) == 0 ? 1 : -1);
    return R(num, Int(1, 2));
  }

  RelOp Op() {
    static constexpr RelOp kOps[] = {RelOp::kEq, RelOp::kNeq, RelOp::kLt,
                                     RelOp::kLe, RelOp::kGt,  RelOp::kGe};
    return kOps[Int(0, 5)];
  }

  Atom Random(int vars) {
    Polynomial p = Polynomial(R(Int(-3, 3), Int(1, 2)));
    bool any = false;
    for (int v = 0; v < vars; ++v) {
      if (Int(0, 2) == 0) continue;
      p += Polynomial(Coefficient()) * V(v);
      any = true;
    }
    if (!any) p += Polynomial(Coefficient()) * V(Int(0, vars - 1));
    return Atom(p, Op());
  }

  // An atom on a hyperplane parallel to `atom`'s: the direction scaled by
  // a nonzero rational (sign included), a nearby constant, any operator.
  Atom Parallel(const Atom& atom) {
    Rational scale = Coefficient();
    Rational constant = atom.poly.constant_value();
    Polynomial direction = atom.poly - Polynomial(constant);
    Rational shifted = constant * scale;
    if (Int(0, 1) == 0) shifted += R(Int(-2, 2), Int(1, 2));
    return Atom(direction.Scale(scale) + Polynomial(shifted), Op());
  }

 private:
  std::mt19937_64 rng_;
};

TEST(LinearContainmentTest, MatchesQeOracleOnSeededPairs) {
  const int pairs = 2000 * ccdb_test::PropertyIterScale();
  PairGenerator gen(20261017);
  int contained = 0;
  int empty_t = 0;
  int identical = 0;
  int by_elimination = 0;
  for (int i = 0; i < pairs; ++i) {
    const int vars = 1 + i % 3;
    GeneralizedTuple t;
    const int t_size = gen.Int(0, 4);
    for (int k = 0; k < t_size; ++k) t.atoms.push_back(gen.Random(vars));
    // Redundant or tying parallel bounds inside t itself.
    if (!t.atoms.empty() && i % 5 >= 2 && gen.Int(0, 1) == 0) {
      t.atoms.push_back(gen.Parallel(t.atoms[0]));
    }
    GeneralizedTuple u;
    switch (i % 5) {
      case 0:  // an identical tuple, possibly with scaled atoms
        ++identical;
        for (const Atom& atom : t.atoms) {
          Rational scale = gen.Coefficient();
          u.atoms.emplace_back(atom.poly.Scale(scale),
                               scale.sign() < 0 ? FlipOp(atom.op) : atom.op);
        }
        break;
      case 1:  // t made empty by an opposite bound on one of its directions
        if (!t.atoms.empty()) {
          ++empty_t;
          t.atoms.emplace_back(t.atoms[0].poly, NegateOp(t.atoms[0].op));
        }
        [[fallthrough]];
      default: {  // parallel variants of t's atoms mixed with fresh atoms
        const int u_size = gen.Int(0, 3);
        for (int k = 0; k < u_size; ++k) {
          if (!t.atoms.empty() && gen.Int(0, 2) != 0) {
            const int pick = gen.Int(0, static_cast<int>(t.atoms.size()) - 1);
            u.atoms.push_back(gen.Parallel(t.atoms[pick]));
          } else {
            u.atoms.push_back(gen.Random(vars));
          }
        }
      }
    }
    // The fixpoint hands canonical tuples to the containment test; check
    // raw and canonical forms alike.
    if (i % 2 == 1) {
      if (!t.Canonicalize() || !u.Canonicalize()) continue;
    }
    const bool oracle = QeContained(t, u, vars);
    bool eliminated = false;
    ASSERT_EQ(Contained(t, u, &eliminated), oracle)
        << "pair " << i << ": " << t.ToString() << "  in  " << u.ToString();
    contained += oracle ? 1 : 0;
    by_elimination += eliminated ? 1 : 0;
  }
  std::printf("%d pairs: %d contained, %d needed t ∧ ¬a\n", pairs, contained,
              by_elimination);
  // The generator must exercise both verdicts, not only the easy one.
  EXPECT_GT(contained, pairs / 10);
  EXPECT_LT(contained, pairs - pairs / 10);
  EXPECT_GT(empty_t, pairs / 10);
  EXPECT_GT(identical, pairs / 10);
  // Both halves of the decision carry weight: bounds alone, and the exact
  // elimination of t ∧ ¬a for what they leave open.
  EXPECT_GT(by_elimination, pairs / 20);
  EXPECT_LT(by_elimination, pairs - pairs / 20);
}

}  // namespace
}  // namespace ccdb
