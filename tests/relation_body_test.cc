// Instantiation by reference against its oracle. A RelationBody builds a
// relation version's body, and its formula under another column map, once
// for every read; RelationToFormula(relation, args), rebuilt per read, is
// the oracle. Formulas are interned, so the two must be the
// same node: the checks are pointer equalities (operator==), over random
// relations and column maps of every kind a lowered query produces:
// identity, permutation, a repeated variable, shifted variables and
// constant arguments. A read whose bounds drop tuples is the oracle
// rebuilt from the tuples whose box meets the bounds, and the boxes
// themselves are checked against the points that satisfy their tuple.
// CCDB_PROPERTY_ITERS scales the corpus.

#include <algorithm>
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

// A random relation whose tuples mostly bound column 0 by a key atom
// x0 - k (op) 0, k in 5..9, as a stored relation keyed by a constant
// argument is.
ConstraintRelation RandomKeyedRelation(std::mt19937* rng, int tuples) {
  std::uniform_int_distribution<int> key(5, 9), key_op(0, 3), atoms(1, 3);
  static const RelOp kKeyOps[] = {RelOp::kEq, RelOp::kLe, RelOp::kGt,
                                  RelOp::kNeq};
  ConstraintRelation relation(kArity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple;
    tuple.atoms.emplace_back(X(0) - Polynomial(key(*rng)),
                             kKeyOps[key_op(*rng)]);
    for (int a = atoms(*rng); a > 0; --a) {
      tuple.atoms.push_back(RandomAtom(rng));
    }
    tuple.Canonicalize();
    relation.AddTuple(std::move(tuple));
  }
  return relation;
}

// A random relation whose tuples bound most columns by a closed range and
// add random atoms over all three columns, so the box's propagation pass
// has bounded columns to work from.
ConstraintRelation RandomBoxedRelation(std::mt19937* rng, int tuples) {
  std::uniform_int_distribution<int> start(-3, 1), width(1, 3), bounded(0, 2),
      atoms(1, 2);
  ConstraintRelation relation(kArity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple;
    for (int v = 0; v < kArity; ++v) {
      if (bounded(*rng) == 0) continue;
      const int lo = start(*rng);
      tuple.atoms.emplace_back(X(v) - Polynomial(lo), RelOp::kGe);
      tuple.atoms.emplace_back(X(v) - Polynomial(lo + width(*rng)),
                               RelOp::kLe);
    }
    for (int a = atoms(*rng); a > 0; --a) {
      tuple.atoms.push_back(RandomAtom(rng));
    }
    tuple.Canonicalize();
    relation.AddTuple(std::move(tuple));
  }
  return relation;
}

// The points of a grid over columns 0..2 with coordinates k/2, -8 <= k <= 8.
std::vector<std::vector<Rational>> GridPoints() {
  std::vector<std::vector<Rational>> points;
  for (int a = -8; a <= 8; ++a) {
    for (int b = -8; b <= 8; ++b) {
      for (int c = -8; c <= 8; ++c) {
        points.push_back({Rational(BigInt(a), BigInt(2)),
                          Rational(BigInt(b), BigInt(2)),
                          Rational(BigInt(c), BigInt(2))});
      }
    }
  }
  return points;
}

TEST(RelationBodyTest, EveryPointOfATupleLiesInItsBox) {
  // Random tuples of linear, product and != atoms; every grid point that
  // satisfies a tuple must lie in its box. `tightened` counts the boxes
  // the propagation pass narrowed past the single-variable bounds.
  std::mt19937 rng(7);
  const std::vector<std::vector<Rational>> points = GridPoints();
  std::uint64_t satisfied = 0, tightened = 0;
  for (int c = 0; c < 40 * ccdb_test::PropertyIterScale(); ++c) {
    ConstraintRelation relation = c % 3 == 0   ? RandomRelation(&rng, 4)
                                  : c % 3 == 1 ? RandomKeyedRelation(&rng, 4)
                                               : RandomBoxedRelation(&rng, 4);
    for (const GeneralizedTuple& tuple : relation.tuples()) {
      TupleBox box = TupleBox::Of(tuple, kArity);
      GeneralizedTuple singles;
      for (const Atom& atom : tuple.atoms) {
        int mentioned = 0;
        for (int v = 0; v < kArity; ++v) mentioned += atom.poly.Mentions(v);
        if (mentioned == 1 && atom.poly.TotalDegree() == 1) {
          singles.atoms.push_back(atom);
        }
      }
      TupleBox single_box = TupleBox::Of(singles, kArity);
      for (int v = 0; v < kArity; ++v) {
        tightened += box.columns[v].lower != single_box.columns[v].lower ||
                     box.columns[v].upper != single_box.columns[v].upper;
      }
      for (const std::vector<Rational>& point : points) {
        if (!tuple.SatisfiedAt(point)) continue;
        ++satisfied;
        EXPECT_TRUE(box.MayContain(point))
            << "case " << c << " tuple " << tuple.ToString() << " point ("
            << point[0].ToString() << ", " << point[1].ToString() << ", "
            << point[2].ToString() << ")";
      }
    }
  }
  EXPECT_GT(satisfied, 0u);
  EXPECT_GT(tightened, 0u);
}

// The tuple of a convex polygon over columns (1, 2) with column 0 = id, as
// registry-style definitions write it: for each edge (a, b) of the
// counter-clockwise vertex list, (bx-ax)(y-ay) - (by-ay)(x-ax) >= 0.
GeneralizedTuple Polygon(int id,
                         const std::vector<std::pair<int, int>>& vertices) {
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X(0) - Polynomial(id), RelOp::kEq);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    auto [ax, ay] = vertices[i];
    auto [bx, by] = vertices[(i + 1) % vertices.size()];
    tuple.atoms.emplace_back(Polynomial(bx - ax) * (X(2) - Polynomial(ay)) -
                                 Polynomial(by - ay) * (X(1) - Polynomial(ax)),
                             RelOp::kGe);
  }
  tuple.Canonicalize();
  return tuple;
}

TEST(RelationBodyTest, RectanglesAndTriangleCutsGetTheirVertexHull) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> corner(-20, 20), side(1, 6);
  for (int c = 0; c < 20 * ccdb_test::PropertyIterScale(); ++c) {
    const int x0 = corner(rng), y0 = corner(rng);
    const int x1 = x0 + side(rng), y1 = y0 + side(rng);
    const std::vector<std::vector<std::pair<int, int>>> shapes = {
        {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}},  // the rectangle
        {{x0, y0}, {x1, y0}, {x1, y1}},            // rising diagonal
        {{x0, y0}, {x1, y1}, {x0, y1}},
        {{x0, y0}, {x1, y0}, {x0, y1}},  // falling diagonal
        {{x1, y0}, {x1, y1}, {x0, y1}},
    };
    for (const auto& vertices : shapes) {
      TupleBox box = TupleBox::Of(Polygon(c, vertices), kArity);
      int lo_x = vertices[0].first, hi_x = lo_x;
      int lo_y = vertices[0].second, hi_y = lo_y;
      for (auto [x, y] : vertices) {
        lo_x = std::min(lo_x, x);
        hi_x = std::max(hi_x, x);
        lo_y = std::min(lo_y, y);
        hi_y = std::max(hi_y, y);
      }
      const std::vector<std::pair<int, int>> hull = {
          {c, c}, {lo_x, hi_x}, {lo_y, hi_y}};
      for (int v = 0; v < kArity; ++v) {
        const VarBounds& column = box.columns[v];
        ASSERT_TRUE(column.lower.has_value() && column.upper.has_value())
            << "case " << c << " column " << v;
        EXPECT_EQ(*column.lower, Rational(hull[v].first))
            << "case " << c << " column " << v;
        EXPECT_EQ(*column.upper, Rational(hull[v].second))
            << "case " << c << " column " << v;
      }
    }
  }
}

TEST(RelationBodyTest, ConstantArgumentsInstantiateTheTuplesTheirBoxesAdmit) {
  // R(7, x, y) lowers to exists c (R(c, x, y) and c - 7 = 0) with x, y the
  // free columns 0, 1 and c the fresh variable 2. The binding bounds
  // column 0 to [7, 7], so the occurrence is the oracle rebuilt from the
  // tuples whose box admits 7 there, and when that is every tuple, the
  // whole relation's formula. No grid point with column 0 = 7 may satisfy
  // a dropped tuple.
  std::mt19937 rng(99);
  const std::vector<std::vector<Rational>> points = GridPoints();
  int pruning_cases = 0, whole_cases = 0;
  for (int c = 0; c < 20 * ccdb_test::PropertyIterScale(); ++c) {
    ConstraintRelation relation = c % 4 == 0
                                      ? RandomRelation(&rng, 1 + c % 12)
                                      : RandomKeyedRelation(&rng, 1 + c % 12);
    RelationBody body(relation);
    ConstraintRelation admitted(kArity);
    const VarBounds seven{Rational(7), Rational(7)};
    for (const GeneralizedTuple& tuple : relation.tuples()) {
      if (TupleBox::Of(tuple, kArity).columns[0].Meets(seven)) {
        admitted.AddTuple(tuple);
        continue;
      }
      for (const std::vector<Rational>& point : points) {
        EXPECT_FALSE(tuple.SatisfiedAt({Rational(7), point[1], point[2]}))
            << "case " << c << " dropped tuple " << tuple.ToString();
      }
    }
    const bool whole = admitted.tuples().size() == relation.tuples().size();
    (whole ? whole_cases : pruning_cases) += 1;
    Formula constant = Formula::Compare(X(2), RelOp::kEq, Polynomial(7));
    Formula query = Formula::Exists(
        2, Formula::And(Formula::Relation("R", {2, 0, 1}), constant));
    Formula oracle = Formula::Exists(
        2, Formula::And(RelationToFormula(admitted, {2, 0, 1}), constant));
    for (int read = 0; read < 2; ++read) {
      const std::uint64_t kept =
          CounterValue("query.instantiate.tuples_kept");
      const std::uint64_t pruned =
          CounterValue("query.instantiate.tuples_pruned");
      StatusOr<Formula> instantiated = query.InstantiateRelations(
          [&body](const std::string&) -> StatusOr<RelationBody> {
            return body;
          });
      ASSERT_TRUE(instantiated.ok());
      EXPECT_EQ(*instantiated, oracle) << "case " << c;
      EXPECT_EQ(CounterValue("query.instantiate.tuples_kept") - kept,
                admitted.tuples().size());
      EXPECT_EQ(CounterValue("query.instantiate.tuples_pruned") - pruned,
                relation.tuples().size() - admitted.tuples().size());
    }
    if (whole) {
      // Nothing dropped: the read is the version's memoized renaming.
      EXPECT_EQ(body.Instantiate({2, 0, 1}),
                RelationToFormula(relation, {2, 0, 1}));
    }
  }
  EXPECT_GT(pruning_cases, 0);
  EXPECT_GT(whole_cases, 0);
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

TEST(RelationBodyTest, AFilteredReadBuildsNoBodyAndInternsOnlyItsKeptTuples) {
  // Tuple k is the box k <= x0 <= k + 1, 0 <= x1 <= 1, 0 <= x2 <= 1.
  ConstraintRelation relation(kArity);
  for (int k = 0; k < 10; ++k) {
    GeneralizedTuple tuple;
    tuple.atoms.emplace_back(X(0) - Polynomial(k), RelOp::kGe);
    tuple.atoms.emplace_back(X(0) - Polynomial(k + 1), RelOp::kLe);
    for (int v : {1, 2}) {
      tuple.atoms.emplace_back(X(v), RelOp::kGe);
      tuple.atoms.emplace_back(X(v) - Polynomial(1), RelOp::kLe);
    }
    tuple.Canonicalize();
    relation.AddTuple(std::move(tuple));
  }
  RelationBody body(relation);
  const std::vector<int> identity = {0, 1, 2};
  // x0 in [3/2, 2]: tuples 1 and 2 meet it (tuple 2 at its corner).
  const std::vector<VarBounds> bounds = {
      {Rational(BigInt(3), BigInt(2)), Rational(2)}, {}, {}};
  const Formula oracle = RelationToFormula(
      ConstraintRelation(kArity, {relation.tuples()[1], relation.tuples()[2]}),
      identity);
  const std::uint64_t builds = CounterValue("catalog.relation_formula_builds");
  const std::uint64_t atoms = CounterValue("query.instantiate_atoms");
  for (int read = 0; read < 2; ++read) {
    EXPECT_EQ(body.Instantiate(identity, bounds), oracle);
  }
  // Each read interned its two tuples' six atoms each; no body was built.
  EXPECT_EQ(CounterValue("query.instantiate_atoms"), atoms + 2 * 2 * 6);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds);
  // Bounds every tuple meets read the memoized body: one build, and the
  // re-read interns nothing.
  const std::vector<VarBounds> loose = {{Rational(0), Rational(10)}, {}, {}};
  const Formula whole = body.Instantiate(identity, loose);
  EXPECT_EQ(whole, body.Body());
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 1);
  const std::uint64_t after_build = CounterValue("query.instantiate_atoms");
  EXPECT_EQ(body.Instantiate(identity, loose), whole);
  EXPECT_EQ(CounterValue("query.instantiate_atoms"), after_build);
}

}  // namespace
}  // namespace ccdb
