#include "constraint/formula.h"

#include <gtest/gtest.h>

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

// S(x,y): 4x^2 - y - 20x + 25 <= 0 (the paper's running relation).
ConstraintRelation PaperRelationS() {
  ConstraintRelation s(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(
      Polynomial(4) * X().Pow(2) - Y() - Polynomial(20) * X() + Polynomial(25),
      RelOp::kLe);
  s.AddTuple(std::move(tuple));
  return s;
}

TEST(AtomTest, OperatorsAndNegation) {
  EXPECT_EQ(NegateOp(RelOp::kLe), RelOp::kGt);
  EXPECT_EQ(NegateOp(RelOp::kEq), RelOp::kNeq);
  EXPECT_EQ(NegateOp(NegateOp(RelOp::kLt)), RelOp::kLt);
  EXPECT_TRUE(SignSatisfies(-1, RelOp::kLt));
  EXPECT_TRUE(SignSatisfies(0, RelOp::kLe));
  EXPECT_FALSE(SignSatisfies(1, RelOp::kLe));
  EXPECT_TRUE(SignSatisfies(0, RelOp::kEq));
  EXPECT_TRUE(SignSatisfies(1, RelOp::kNeq));

  Atom a(X() - Polynomial(1), RelOp::kLt);
  EXPECT_TRUE(a.SatisfiedAt({R(0)}));
  EXPECT_FALSE(a.SatisfiedAt({R(1)}));
  EXPECT_TRUE(a.Negated().SatisfiedAt({R(1)}));
}

TEST(GeneralizedTupleTest, SatisfactionAndSimplify) {
  GeneralizedTuple triangle;  // x<=y and x>=0 and y<=10 (paper's example)
  triangle.atoms.emplace_back(X() - Y(), RelOp::kLe);
  triangle.atoms.emplace_back(-X(), RelOp::kLe);
  triangle.atoms.emplace_back(Y() - Polynomial(10), RelOp::kLe);
  EXPECT_TRUE(triangle.SatisfiedAt({R(1), R(5)}));
  EXPECT_FALSE(triangle.SatisfiedAt({R(5), R(1)}));
  EXPECT_FALSE(triangle.SatisfiedAt({R(-1), R(5)}));

  GeneralizedTuple with_constants;
  with_constants.atoms.emplace_back(Polynomial(0), RelOp::kEq);  // true
  with_constants.atoms.emplace_back(X(), RelOp::kGt);
  EXPECT_TRUE(with_constants.SimplifyConstants());
  EXPECT_EQ(with_constants.atoms.size(), 1u);

  GeneralizedTuple contradictory;
  contradictory.atoms.emplace_back(Polynomial(1), RelOp::kLt);  // 1 < 0
  EXPECT_TRUE(contradictory.TriviallyFalse());
  EXPECT_FALSE(contradictory.SimplifyConstants());
}

TEST(ConstraintRelationTest, MembershipPaperExample) {
  ConstraintRelation s = PaperRelationS();
  // (2.5, 0) is on the boundary of S.
  EXPECT_TRUE(s.Contains({R(5, 2), R(0)}));
  // (2.5, 9) is inside S (p = -9 <= 0).
  EXPECT_TRUE(s.Contains({R(5, 2), R(9)}));
  // (0, 0) is outside (p = 25 > 0).
  EXPECT_FALSE(s.Contains({R(0), R(0)}));
  EXPECT_EQ(s.MaxDegree(), 2u);
  EXPECT_EQ(s.DistinctPolynomialCount(), 1u);
  EXPECT_EQ(s.MaxCoefficientBitLength(), 5u);
}

TEST(FormulaTest, ConstructionAndKinds) {
  Formula t = Formula::True();
  Formula f = Formula::False();
  EXPECT_EQ(t.kind(), Formula::Kind::kTrue);
  EXPECT_EQ(Formula::And(t, f).kind(), Formula::Kind::kFalse);  // simplified
  EXPECT_EQ(Formula::Or(t, f).kind(), Formula::Kind::kTrue);
  Formula atom = Formula::Compare(X(), RelOp::kLe, Y());
  EXPECT_EQ(atom.kind(), Formula::Kind::kAtom);
  // Canonicalization sign-normalizes the atom: x - y <= 0 becomes
  // y - x >= 0 (positive leading coefficient in the term order).
  EXPECT_EQ(atom.atom().op, RelOp::kGe);
  EXPECT_EQ(atom.atom().poly, Y() - X());
  EXPECT_EQ(atom, Formula::Compare(Y(), RelOp::kGe, X()));
  Formula ex = Formula::Exists(1, atom);
  EXPECT_EQ(ex.kind(), Formula::Kind::kExists);
  EXPECT_EQ(ex.quantified_var(), 1);
  EXPECT_FALSE(ex.is_quantifier_free());
  EXPECT_TRUE(atom.is_quantifier_free());
}

TEST(FormulaTest, FreeVars) {
  Formula atom = Formula::Compare(X(), RelOp::kLe, Y());
  std::set<int> fv = atom.FreeVars();
  EXPECT_EQ(fv, (std::set<int>{0, 1}));
  Formula ex = Formula::Exists(1, atom);
  EXPECT_EQ(ex.FreeVars(), (std::set<int>{0}));
  Formula rel = Formula::Relation("S", {0, 2});
  EXPECT_EQ(rel.FreeVars(), (std::set<int>{0, 2}));
  EXPECT_EQ(Formula::Exists(2, rel).FreeVars(), (std::set<int>{0}));
}

TEST(FormulaTest, EvaluateAtQuantifierFree) {
  // (x <= y and x >= 0) or x = 7.
  Formula f = Formula::Or(
      Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                   Formula::Compare(X(), RelOp::kGe, Polynomial(0))),
      Formula::Compare(X(), RelOp::kEq, Polynomial(7)));
  EXPECT_TRUE(f.EvaluateAt({R(1), R(2)}));
  EXPECT_FALSE(f.EvaluateAt({R(-1), R(2)}));
  EXPECT_TRUE(f.EvaluateAt({R(7), R(-100)}));
  EXPECT_TRUE(Formula::Not(f).EvaluateAt({R(3), R(1)}));
}

TEST(FormulaTest, InstantiateRelationsPaperQuery) {
  // Q(x) = exists y (S(x, y) and y <= 0), the paper's Section 2 query.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Relation("S", {0, 1}),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(0))));
  ConstraintRelation s = PaperRelationS();
  auto lookup =
      [&s](const std::string& name) -> StatusOr<ConstraintRelation> {
    if (name == "S") return s;
    return Status::NotFound("no relation " + name);
  };
  auto instantiated = query.InstantiateRelations(lookup);
  ASSERT_TRUE(instantiated.ok());
  EXPECT_FALSE(instantiated->has_relation_symbols());
  EXPECT_EQ(instantiated->FreeVars(), (std::set<int>{0}));

  Formula unknown = Formula::Relation("T", {0});
  EXPECT_FALSE(unknown.InstantiateRelations(lookup).ok());

  Formula wrong_arity = Formula::Relation("S", {0});
  EXPECT_FALSE(wrong_arity.InstantiateRelations(lookup).ok());
}

TEST(FormulaTest, InstantiationRenamesColumns) {
  // S used as S(z, w) with z=var 3, w=var 7.
  ConstraintRelation s = PaperRelationS();
  Formula use = Formula::Relation("S", {3, 7});
  auto instantiated = use.InstantiateRelations(
      [&s](const std::string&) -> StatusOr<ConstraintRelation> { return s; });
  ASSERT_TRUE(instantiated.ok());
  // Satisfied where S holds with x->var3, y->var7.
  std::vector<Rational> point(8, R(0));
  point[3] = R(5, 2);
  point[7] = R(9);
  EXPECT_TRUE(instantiated->EvaluateAt(point));
  point[3] = R(0);
  EXPECT_FALSE(instantiated->EvaluateAt(point));
}

TEST(NnfTest, PushesNegations) {
  Formula atom1 = Formula::Compare(X(), RelOp::kLt, Polynomial(0));
  Formula atom2 = Formula::Compare(Y(), RelOp::kEq, Polynomial(1));
  Formula f = Formula::Not(Formula::And(atom1, atom2));
  Formula nnf = ToNnf(f);
  EXPECT_EQ(nnf.kind(), Formula::Kind::kOr);
  EXPECT_EQ(nnf.children()[0].atom().op, RelOp::kGe);
  EXPECT_EQ(nnf.children()[1].atom().op, RelOp::kNeq);

  Formula q = Formula::Not(Formula::Exists(0, atom1));
  Formula qnnf = ToNnf(q);
  EXPECT_EQ(qnnf.kind(), Formula::Kind::kForall);
  EXPECT_EQ(qnnf.children()[0].atom().op, RelOp::kGe);

  EXPECT_EQ(ToNnf(Formula::Not(Formula::Not(atom1))).kind(),
            Formula::Kind::kAtom);
  EXPECT_EQ(ToNnf(Formula::Not(Formula::True())).kind(),
            Formula::Kind::kFalse);
}

TEST(PrenexTest, PullsAndRenames) {
  // exists y (x<y) and exists y (y<x): bound vars must be renamed apart,
  // onto the compact targets 1 and 2.
  Formula left = Formula::Exists(1, Formula::Compare(X(), RelOp::kLt, Y()));
  Formula right = Formula::Exists(1, Formula::Compare(Y(), RelOp::kLt, X()));
  Formula f = Formula::And(left, right);
  QeNormalForm normal = NormalizeForQe(f, /*num_free_vars=*/1);
  ASSERT_EQ(normal.prefix.size(), 2u);
  EXPECT_TRUE(normal.prefix[0].is_exists);
  EXPECT_TRUE(normal.prefix[1].is_exists);
  EXPECT_EQ(normal.prefix[0].var, 1);
  EXPECT_EQ(normal.prefix[1].var, 2);
  EXPECT_TRUE(normal.matrix.is_quantifier_free());
  EXPECT_EQ(normal.tuples, ToDnf(normal.matrix));
  // Matrix satisfiable with suitable witnesses: x=0 and {1, -1} for the
  // two bound variables. AND children are structurally sorted, so which
  // bound variable belongs to which conjunct is not fixed — one of the two
  // assignments must work.
  std::vector<Rational> point(3, R(0));
  point[1] = R(1);
  point[2] = R(-1);
  bool forward = normal.matrix.EvaluateAt(point);
  point[1] = R(-1);
  point[2] = R(1);
  bool backward = normal.matrix.EvaluateAt(point);
  EXPECT_TRUE(forward || backward);
  EXPECT_FALSE(forward && backward);
}

TEST(PrenexTest, ForallUnderNegation) {
  // not (forall y (y > x)) == exists y (y <= x).
  Formula f = Formula::Not(
      Formula::Forall(1, Formula::Compare(Y(), RelOp::kGt, X())));
  QeNormalForm normal = NormalizeForQe(f, /*num_free_vars=*/1);
  ASSERT_EQ(normal.prefix.size(), 1u);
  EXPECT_TRUE(normal.prefix[0].is_exists);
  EXPECT_EQ(normal.prefix[0].var, 1);
  EXPECT_EQ(normal.matrix.kind(), Formula::Kind::kAtom);
  EXPECT_EQ(normal.matrix.atom().op, RelOp::kLe);
  ASSERT_EQ(normal.tuples.size(), 1u);
  EXPECT_EQ(normal.tuples[0].atoms.size(), 1u);
}

TEST(PrenexTest, BoundVariablesAtTheirTargetsAreNotRebuilt) {
  // exists y (x < y and y < 3) with y already variable 1: the matrix is
  // the quantifier's own body node.
  Formula body = Formula::And(Formula::Compare(X(), RelOp::kLt, Y()),
                              Formula::Compare(Y(), RelOp::kLt, Polynomial(3)));
  QeNormalForm normal = NormalizeForQe(Formula::Exists(1, body), 1);
  ASSERT_EQ(normal.prefix.size(), 1u);
  EXPECT_EQ(normal.prefix[0].var, 1);
  EXPECT_EQ(normal.matrix.id(), body.id());
}

TEST(PrenexTest, BoundVariableBelowFreeCountMovesUp) {
  // exists x (x < y) with two free slots: x (variable 0) is bound, so it
  // moves to the first quantifier slot 2 while y stays variable 1.
  Formula f = Formula::Exists(0, Formula::Compare(X(), RelOp::kLt, Y()));
  QeNormalForm normal = NormalizeForQe(f, /*num_free_vars=*/2);
  ASSERT_EQ(normal.prefix.size(), 1u);
  EXPECT_EQ(normal.prefix[0].var, 2);
  EXPECT_EQ(normal.matrix,
            Formula::Compare(Polynomial::Var(2), RelOp::kLt, Y()));
}

TEST(PrenexTest, ShadowedVariableGetsItsOwnSlot) {
  // exists y (y < 1 and exists y (y > 5)) over free x: the inner y is a
  // different variable, so the matrix is y1 < 1 and y2 > 5.
  Formula inner = Formula::Exists(1, Formula::Compare(Y(), RelOp::kGt,
                                                      Polynomial(5)));
  Formula f = Formula::Exists(
      1, Formula::And(Formula::Compare(Y(), RelOp::kLt, Polynomial(1)),
                      Formula::And(inner, Formula::Compare(X(), RelOp::kLt,
                                                           Y()))));
  QeNormalForm normal = NormalizeForQe(f, /*num_free_vars=*/1);
  ASSERT_EQ(normal.prefix.size(), 2u);
  Formula expected = Formula::And(
      {Formula::Compare(Y(), RelOp::kLt, Polynomial(1)),
       Formula::Compare(X(), RelOp::kLt, Y()),
       Formula::Compare(Polynomial::Var(2), RelOp::kGt, Polynomial(5))});
  EXPECT_EQ(normal.matrix, expected);
}

TEST(DnfTest, CrossProduct) {
  // (a or b) and c -> (a and c) or (b and c).
  Formula a = Formula::Compare(X(), RelOp::kLt, Polynomial(0));
  Formula b = Formula::Compare(X(), RelOp::kGt, Polynomial(5));
  Formula c = Formula::Compare(Y(), RelOp::kEq, Polynomial(1));
  auto tuples = ToDnf(Formula::And(Formula::Or(a, b), c));
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].atoms.size(), 2u);
  EXPECT_EQ(tuples[1].atoms.size(), 2u);
}

TEST(DnfTest, SimplifiesTrivial) {
  Formula contradiction =
      Formula::Compare(Polynomial(1), RelOp::kLt, Polynomial(0));
  EXPECT_TRUE(ToDnf(contradiction).empty());
  auto tuples = ToDnf(Formula::True());
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].atoms.empty());
  EXPECT_TRUE(ToDnf(Formula::False()).empty());
}

TEST(FormulaTest, ToStringRoundTripReadable) {
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Relation("S", {0, 1}),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(0))));
  std::string rendered = query.ToString({"x", "y"});
  EXPECT_NE(rendered.find("exists y"), std::string::npos);
  EXPECT_NE(rendered.find("S(x, y)"), std::string::npos);
}

}  // namespace
}  // namespace ccdb
