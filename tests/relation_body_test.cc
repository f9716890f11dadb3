// Instantiation by reference against its oracle. A RelationBody builds a
// relation version's body, and its formula under another column map, once
// for every read; RelationToFormula(relation, args), rebuilt per read, is
// the oracle. Formulas are interned, so the two must be the
// same node: the checks are pointer equalities (operator==), over random
// relations and column maps of every kind a lowered query produces:
// identity, permutation, a repeated variable, shifted variables and
// constant arguments. CCDB_PROPERTY_ITERS scales the corpus.

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "constraint/formula.h"
#include "property_env.h"

namespace ccdb {
namespace {

constexpr int kArity = 3;

Polynomial X(int v) { return Polynomial::Var(v); }

// A random atom over columns 0..2: linear with small coefficients, now
// and then a product term, and now and then a difference of two columns
// (which a repeated-variable map folds to a constant).
Atom RandomAtom(std::mt19937* rng) {
  std::uniform_int_distribution<int> coeff(-3, 3), column(0, kArity - 1),
      shape(0, 5), op(0, 5);
  Polynomial p(coeff(*rng));
  switch (shape(*rng)) {
    case 0: {
      int a = column(*rng), b = column(*rng);
      p = p + X(a) - X(b);
      break;
    }
    case 1:
      p = p + X(column(*rng)) * X(column(*rng));
      break;
    default:
      for (int v = 0; v < kArity; ++v) p = p + Polynomial(coeff(*rng)) * X(v);
  }
  return Atom(p, static_cast<RelOp>(op(*rng)));
}

ConstraintRelation RandomRelation(std::mt19937* rng, int tuples) {
  std::uniform_int_distribution<int> atoms(1, 4);
  ConstraintRelation relation(kArity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple;
    for (int a = atoms(*rng); a > 0; --a) {
      tuple.atoms.push_back(RandomAtom(rng));
    }
    // Stored tuples are canonical, as the catalog keeps them; a trivially
    // false one is kept too (the body drops it, like the oracle does).
    tuple.Canonicalize();
    relation.AddTuple(std::move(tuple));
  }
  return relation;
}

const std::vector<std::vector<int>>& ColumnMaps() {
  static const std::vector<std::vector<int>> maps = {
      {0, 1, 2},  // identity
      {2, 0, 1},  // permutation: R(c, x, y) lowered with c -> variable 2
      {1, 2, 0},  // permutation
      {0, 0, 1},  // repeated variable: R(x, x, y)
      {1, 0, 1},  // repeated variable: R(y, x, y)
      {5, 3, 4},  // shifted into a wider query
  };
  return maps;
}

std::uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(RelationBodyTest, InstantiateIsTheRebuiltFormula) {
  std::mt19937 rng(20240601);
  const int cases = 40 * ccdb_test::PropertyIterScale();
  for (int c = 0; c < cases; ++c) {
    ConstraintRelation relation = RandomRelation(&rng, 1 + c % 12);
    RelationBody body(relation);
    // Each map is read twice in a row (the second read is memoized), and
    // the five non-identity maps take turns in a memo of one, so the
    // second round rebuilds each after another evicted it.
    const std::vector<std::vector<int>>& maps = ColumnMaps();
    for (int round = 0; round < 2; ++round) {
      for (std::size_t m = 0; m < maps.size(); ++m) {
        const std::vector<int>& args = maps[(m + c) % maps.size()];
        Formula oracle = RelationToFormula(relation, args);
        for (int read = 0; read < 2; ++read) {
          EXPECT_EQ(body.Instantiate(args), oracle)
              << "case " << c << " round " << round << " args " << args[0]
              << args[1] << args[2] << ": " << oracle.ToString();
        }
      }
    }
  }
}

TEST(RelationBodyTest, ConstantArgumentsInstantiateLikeTheOracle) {
  // R(7, x, y) lowers to exists c (R(c, x, y) and c - 7 = 0) with x, y the
  // free columns 0, 1 and c the fresh variable 2.
  std::mt19937 rng(99);
  for (int c = 0; c < 10 * ccdb_test::PropertyIterScale(); ++c) {
    ConstraintRelation relation = RandomRelation(&rng, 1 + c);
    RelationBody body(relation);
    Formula constant = Formula::Compare(X(2), RelOp::kEq, Polynomial(7));
    Formula query = Formula::Exists(
        2, Formula::And(Formula::Relation("R", {2, 0, 1}), constant));
    Formula oracle = Formula::Exists(
        2, Formula::And(RelationToFormula(relation, {2, 0, 1}), constant));
    for (int read = 0; read < 2; ++read) {
      StatusOr<Formula> instantiated = query.InstantiateRelations(
          [&body](const std::string&) -> StatusOr<RelationBody> {
            return body;
          });
      ASSERT_TRUE(instantiated.ok());
      EXPECT_EQ(*instantiated, oracle) << "case " << c;
    }
  }
}

TEST(RelationBodyTest, OneBuildPerVersionAndNoAtomsOnAnIdentityReread) {
  std::mt19937 rng(3);
  ConstraintRelation relation = RandomRelation(&rng, 20);
  RelationBody body(relation);
  const std::uint64_t builds = CounterValue("catalog.relation_formula_builds");
  body.Instantiate({0, 1, 2});
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 1);
  const std::uint64_t atoms = CounterValue("query.instantiate_atoms");
  RelationBody shared = body;  // a copy shares the built body
  shared.Instantiate({0, 1, 2});
  EXPECT_EQ(CounterValue("query.instantiate_atoms"), atoms);
  shared.Instantiate({2, 0, 1});  // another column map: a build of its own
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 2);
  const std::uint64_t renamed = CounterValue("query.instantiate_atoms");
  EXPECT_GT(renamed, atoms);
  body.Instantiate({2, 0, 1});  // memoized
  EXPECT_EQ(CounterValue("query.instantiate_atoms"), renamed);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 2);
}

}  // namespace
}  // namespace ccdb
