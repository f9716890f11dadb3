#include "storage/catalog.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/metrics.h"
#include "constraint/formula.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(TupleBoxTest, DerivedFromLinearAtoms) {
  // 0 <= x <= 5, y = 3, plus a nonlinear atom that contributes nothing.
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(-Polynomial::Var(0), RelOp::kLe);
  tuple.atoms.emplace_back(Polynomial::Var(0) - Polynomial(5), RelOp::kLe);
  tuple.atoms.emplace_back(Polynomial::Var(1) - Polynomial(3), RelOp::kEq);
  tuple.atoms.emplace_back(
      Polynomial::Var(0) * Polynomial::Var(1) - Polynomial(1), RelOp::kLe);
  TupleBox box = TupleBox::Of(tuple, 2);
  EXPECT_TRUE(box.MayContain({R(2), R(3)}));
  EXPECT_FALSE(box.MayContain({R(6), R(3)}));
  EXPECT_FALSE(box.MayContain({R(-1), R(3)}));
  EXPECT_FALSE(box.MayContain({R(2), R(4)}));
  EXPECT_FALSE(box.MayContain({R(2), R(2)}));
}

TEST(TupleBoxTest, NegatedCoefficientFlips) {
  // -2x + 6 <= 0  ->  x >= 3.
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(Polynomial(-2) * Polynomial::Var(0) + Polynomial(6),
                           RelOp::kLe);
  TupleBox box = TupleBox::Of(tuple, 1);
  EXPECT_TRUE(box.MayContain({R(3)}));
  EXPECT_TRUE(box.MayContain({R(100)}));
  EXPECT_FALSE(box.MayContain({R(2)}));
}

TEST(CatalogTest, AddGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelationFromText(
                        "S(x, y) := 4*x^2 - y - 20*x + 25 <= 0")
                  .ok());
  EXPECT_TRUE(catalog.HasRelation("S"));
  EXPECT_FALSE(catalog.AddRelationFromText("S(x) := x = 0").ok());
  auto s = catalog.GetRelation("S");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->arity(), 2);
  EXPECT_TRUE(catalog.DropRelation("S").ok());
  EXPECT_FALSE(catalog.HasRelation("S"));
  EXPECT_FALSE(catalog.DropRelation("S").ok());
}

TEST(CatalogTest, ContainsUsesIndex) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddRelationFromText("Box(x, y) := 0 <= x and x <= 1 and "
                                  "0 <= y and y <= 1")
          .ok());
  auto in = catalog.Contains("Box", {R(1, 2), R(1, 2)});
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);
  auto out = catalog.Contains("Box", {R(2), R(2)});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(*out);
  EXPECT_FALSE(catalog.Contains("Nope", {R(0)}).ok());
  EXPECT_FALSE(catalog.Contains("Box", {R(0)}).ok());  // arity mismatch
}

TEST(CatalogTest, SerializeRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelationFromText(
                        "S(x, y) := 4*x^2 - y - 20*x + 25 <= 0")
                  .ok());
  ASSERT_TRUE(catalog.AddRelationFromText(
                        "Seg(t) := (0 <= t and t <= 10) or t = 20")
                  .ok());
  std::string text = catalog.Serialize();
  auto reloaded = Catalog::Deserialize(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString() << "\n" << text;
  EXPECT_EQ(reloaded->RelationNames(), catalog.RelationNames());
  // Semantics preserved on sample points.
  auto contains = reloaded->Contains("S", {R(5, 2), R(0)});
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  auto seg20 = reloaded->Contains("Seg", {R(20)});
  ASSERT_TRUE(seg20.ok());
  EXPECT_TRUE(*seg20);
  auto seg15 = reloaded->Contains("Seg", {R(15)});
  ASSERT_TRUE(seg15.ok());
  EXPECT_FALSE(*seg15);
}

TEST(CatalogTest, RationalCoefficientsSurviveRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddRelationFromText("H(x) := 2*x - 1 <= 0 and -2*x - 1 <= 0")
          .ok());
  auto reloaded = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto in = reloaded->Contains("H", {R(1, 4)});
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);
  auto out = reloaded->Contains("H", {R(3, 4)});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(*out);
}

TEST(CatalogTest, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelationFromText("P(x) := x^2 - 2 <= 0").ok());
  std::string path = "/tmp/ccdb_catalog_test.txt";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  auto loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->HasRelation("P"));
  std::remove(path.c_str());
  EXPECT_FALSE(Catalog::LoadFromFile("/tmp/ccdb_does_not_exist.txt").ok());
}

TEST(CatalogTest, FailedSaveLeavesPreviousFileIntact) {
  // SaveToFile is atomic (tmp + fsync + rename): a write failure mid-save
  // must leave the previous file byte-identical and no .tmp behind.
  Catalog first;
  ASSERT_TRUE(first.AddRelationFromText("P(x) := x^2 - 2 <= 0").ok());
  std::string path = testing::TempDir() + "/ccdb_catalog_atomic_save.txt";
  std::string tmp_path = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp_path.c_str());
  ASSERT_TRUE(first.SaveToFile(path).ok());
  const std::string before = first.Serialize();

  Catalog second;
  ASSERT_TRUE(second.AddRelationFromText("Q(x) := x <= 9").ok());
  FailpointRegistry::Global().ClearAll();
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("save.write=short-write@1").ok());
  Status st = second.SaveToFile(path);
  FailpointRegistry::Global().ClearAll();
  EXPECT_FALSE(st.ok());

  auto reloaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->Serialize(), before);
  std::ifstream tmp_probe(tmp_path);
  EXPECT_FALSE(tmp_probe.good()) << "failed save left " << tmp_path;
  std::remove(path.c_str());
}

TEST(CatalogTest, DeserializeErrorsCarryLineNumbers) {
  auto bad = Catalog::Deserialize("# header\nR(x) := x <= 1\nbroken line\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos);
}

std::uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// S(x, y) instantiated from the catalog's current snapshot, as a query
// reads it.
Formula ReadS(const Catalog& catalog) {
  auto snapshot = catalog.Snapshot();
  StatusOr<Formula> read = Formula::Relation("S", {0, 1}).InstantiateRelations(
      [&snapshot](const std::string& name) { return snapshot->GetBody(name); });
  EXPECT_TRUE(read.ok());
  return *read;
}

TEST(CatalogTest, OneBodyBuildPerRelationVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelationFromText("S(x, y) := (x >= 0 and y <= x) or "
                                       "(x <= -1 and y >= 2*x)")
                  .ok());
  const std::uint64_t builds =
      CounterValue("catalog.relation_formula_builds");
  Formula first = ReadS(catalog);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 1);
  const std::uint64_t atoms = CounterValue("query.instantiate_atoms");
  Formula second = ReadS(catalog);
  EXPECT_EQ(second, first);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 1);
  EXPECT_EQ(CounterValue("query.instantiate_atoms"), atoms);

  ASSERT_TRUE(catalog.InsertTuplesFromText("S(x, y) := x = 5 and y = 5").ok());
  Formula third = ReadS(catalog);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds + 2);
  StatusOr<ConstraintRelation> relation = catalog.GetRelation("S");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(third, RelationToFormula(*relation, {0, 1}));
}

TEST(CatalogTest, InsertAppendsNewTuplesAndSharesOtherRelations) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.AddRelationFromText("S(x, y) := (x = 1 and y = 1) or x = 2")
          .ok());
  ASSERT_TRUE(catalog.AddRelationFromText("T(x) := x >= 0").ok());
  auto before = catalog.Snapshot();
  StatusOr<RelationBody> t_before = before->GetBody("T");
  ASSERT_TRUE(t_before.ok());
  // One duplicate of a stored tuple, one new tuple, and the new tuple
  // again: only the new tuple is appended, once.
  ASSERT_TRUE(catalog
                  .InsertTuplesFromText(
                      "S(x, y) := x = 2 or (x = 3 and y = 0) or "
                      "(y = 0 and x = 3)")
                  .ok());
  auto after = catalog.Snapshot();
  StatusOr<ConstraintRelation> s_before = before->GetRelation("S");
  StatusOr<ConstraintRelation> s_after = after->GetRelation("S");
  ASSERT_TRUE(s_before.ok() && s_after.ok());
  ASSERT_EQ(s_after->tuples().size(), s_before->tuples().size() + 1);
  for (std::size_t i = 0; i < s_before->tuples().size(); ++i) {
    EXPECT_EQ(s_after->tuples()[i], s_before->tuples()[i]);
  }
  EXPECT_EQ(after->GetRelationVersion("S")->base,
            before->GetRelationVersion("S")->base);
  EXPECT_GT(after->GetRelationVersion("S")->version,
            before->GetRelationVersion("S")->version);
  // T's entry is shared, not copied: its built body carries over.
  EXPECT_EQ(after->GetRelationVersion("T")->version,
            before->GetRelationVersion("T")->version);
  Formula t = t_before->Instantiate({0});
  const std::uint64_t builds =
      CounterValue("catalog.relation_formula_builds");
  StatusOr<RelationBody> t_after = after->GetBody("T");
  ASSERT_TRUE(t_after.ok());
  EXPECT_EQ(t_after->Instantiate({0}), t);
  EXPECT_EQ(CounterValue("catalog.relation_formula_builds"), builds);
}

}  // namespace
}  // namespace ccdb
