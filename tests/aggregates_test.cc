#include "agg/aggregates.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/metrics.h"

#include "test_pool.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

ConstraintRelation UnaryInterval(const Rational& lo, const Rational& hi) {
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(Polynomial(lo) - X(), RelOp::kLe);
  tuple.atoms.emplace_back(X() - Polynomial(hi), RelOp::kLe);
  rel.AddTuple(std::move(tuple));
  return rel;
}

ConstraintRelation FinitePoints(std::initializer_list<Rational> values) {
  ConstraintRelation rel(1);
  for (const Rational& v : values) {
    GeneralizedTuple tuple;
    tuple.atoms.emplace_back(X() - Polynomial(v), RelOp::kEq);
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

// The paper's Example 5.1/5.4 region: S(x,y) ∧ y <= 9 where
// S = 4x^2 - y - 20x + 25 <= 0. Its area is exactly 18.
ConstraintRelation PaperSurfaceRegion() {
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(
      Polynomial(4) * X().Pow(2) - Y() - Polynomial(20) * X() + Polynomial(25),
      RelOp::kLe);
  tuple.atoms.emplace_back(Y() - Polynomial(9), RelOp::kLe);
  rel.AddTuple(std::move(tuple));
  return rel;
}

TEST(AggregateTest, KindPlumbing) {
  EXPECT_TRUE(AggregateKindFromName("SURFACE").ok());
  EXPECT_FALSE(AggregateKindFromName("MEDIAN").ok());
  EXPECT_EQ(AggregateInputArity(AggregateKind::kSurface), 2);
  EXPECT_EQ(AggregateInputArity(AggregateKind::kVolume), 3);
  EXPECT_EQ(AggregateInputArity(AggregateKind::kMin), 1);
  EXPECT_STREQ(AggregateKindName(AggregateKind::kAvg), "AVG");
}

TEST(AggregateTest, MinMaxClosedInterval) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel = UnaryInterval(R(-3), R(7));
  auto min = modules.Min(rel);
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_TRUE(min->exact);
  EXPECT_EQ(min->exact_value, R(-3));
  auto max = modules.Max(rel);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->exact_value, R(7));
}

TEST(AggregateTest, MinUndefinedForOpenOrUnbounded) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  // Open interval: 0 < x < 1.
  ConstraintRelation open(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(-X(), RelOp::kLt);
  tuple.atoms.emplace_back(X() - Polynomial(1), RelOp::kLt);
  open.AddTuple(std::move(tuple));
  auto min = modules.Min(open);
  EXPECT_FALSE(min.ok());
  EXPECT_EQ(min.status().code(), StatusCode::kUndefined);

  // Unbounded below: x <= 0.
  ConstraintRelation unbounded(1);
  GeneralizedTuple t2;
  t2.atoms.emplace_back(X(), RelOp::kLe);
  unbounded.AddTuple(std::move(t2));
  EXPECT_FALSE(modules.Min(unbounded).ok());
  // But MAX of the same set exists: 0.
  auto max = modules.Max(unbounded);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->exact_value, R(0));
}

TEST(AggregateTest, MinOfIrrationalEndpoint) {
  // x^2 <= 2: min is -sqrt(2), reported approximately.
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X().Pow(2) - Polynomial(2), RelOp::kLe);
  rel.AddTuple(std::move(tuple));
  auto min = modules.Min(rel);
  ASSERT_TRUE(min.ok());
  EXPECT_FALSE(min->exact);
  EXPECT_NEAR(min->Value(), -std::sqrt(2.0), 1e-8);
}

TEST(AggregateTest, AvgFiniteSet) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  auto avg = modules.Avg(FinitePoints({R(1), R(2), R(6)}));
  ASSERT_TRUE(avg.ok());
  EXPECT_TRUE(avg->exact);
  EXPECT_EQ(avg->exact_value, R(3));
}

TEST(AggregateTest, AvgOfInterval) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  auto avg = modules.Avg(UnaryInterval(R(2), R(6)));
  ASSERT_TRUE(avg.ok());
  EXPECT_TRUE(avg->exact);
  EXPECT_EQ(avg->exact_value, R(4));
  // Union of [0,2] and [4,6]: mean = (2 + 10)/ (2+2)... moment: (2-0)(1) +
  // (6-4)(5) = 2 + 10 = 12, measure 4, avg 3.
  ConstraintRelation uni = UnaryInterval(R(0), R(2));
  ConstraintRelation second = UnaryInterval(R(4), R(6));
  for (const auto& t : second.tuples()) {
    uni.AddTuple(t);
  }
  auto avg2 = modules.Avg(uni);
  ASSERT_TRUE(avg2.ok());
  EXPECT_EQ(avg2->exact_value, R(3));
}

TEST(AggregateTest, AvgUndefinedCases) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  EXPECT_EQ(modules.Avg(ConstraintRelation(1)).status().code(),
            StatusCode::kUndefined);
  ConstraintRelation unbounded(1);
  GeneralizedTuple t;
  t.atoms.emplace_back(X(), RelOp::kGe);
  unbounded.AddTuple(std::move(t));
  EXPECT_EQ(modules.Avg(unbounded).status().code(), StatusCode::kUndefined);
}

TEST(AggregateTest, LengthUnionOfIntervals) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation uni = UnaryInterval(R(0), R(1));
  ConstraintRelation second = UnaryInterval(R(5), R(7));
  for (const auto& t : second.tuples()) uni.AddTuple(t);
  auto length = modules.Length(uni);
  ASSERT_TRUE(length.ok());
  EXPECT_TRUE(length->exact);
  EXPECT_EQ(length->exact_value, R(3));
  // Points have measure zero.
  auto zero = modules.Length(FinitePoints({R(1), R(5)}));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->exact_value, R(0));
}

TEST(AggregateTest, LengthIrrationalEndpoints) {
  AggregateModules modules(1e-10, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X().Pow(2) - Polynomial(2), RelOp::kLe);
  rel.AddTuple(std::move(tuple));
  auto length = modules.Length(rel);
  ASSERT_TRUE(length.ok());
  EXPECT_NEAR(length->Value(), 2.0 * std::sqrt(2.0), 1e-8);
}

TEST(AggregateTest, SurfacePaperExampleExactly18) {
  // The headline example of the paper: SURFACE(S ∧ y<=9) = 18, computed
  // EXACTLY by the graph-boundary fast path.
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  auto area = modules.Surface(PaperSurfaceRegion());
  ASSERT_TRUE(area.ok()) << area.status().ToString();
  EXPECT_TRUE(area->exact);
  EXPECT_EQ(area->exact_value, R(18));
}

TEST(AggregateTest, SurfaceTriangle) {
  // The paper's Section 3 triangle: x<=y, x>=0, y<=10. Area = 50.
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X() - Y(), RelOp::kLe);
  tuple.atoms.emplace_back(-X(), RelOp::kLe);
  tuple.atoms.emplace_back(Y() - Polynomial(10), RelOp::kLe);
  rel.AddTuple(std::move(tuple));
  auto area = modules.Surface(rel);
  ASSERT_TRUE(area.ok()) << area.status().ToString();
  EXPECT_TRUE(area->exact);
  EXPECT_EQ(area->exact_value, R(50));
}

// A binary relation of one tuple.
ConstraintRelation Region(std::vector<Atom> atoms) {
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms = std::move(atoms);
  rel.AddTuple(std::move(tuple));
  return rel;
}

Atom Disk(std::int64_t r_squared) {
  return Atom(X().Pow(2) + Y().Pow(2) - Polynomial(r_squared), RelOp::kLe);
}

// A numeric answer checked against its closed form: the error estimate
// covers the true error, and stays within the module's tolerance floor f
// relative to the answer's size.
void ExpectOracle(const StatusOr<AggregateValue>& value, double oracle,
                  double f) {
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_FALSE(value->exact);
  EXPECT_LE(std::abs(value->Value() - oracle), value->error_estimate)
      << "value " << value->Value() << " oracle " << oracle;
  EXPECT_LE(value->error_estimate, f * std::max(1.0, std::abs(oracle)));
}

// SURFACE's numeric-path tolerance floor.
constexpr double kSurfaceFloor = 1e-6;

TEST(AggregateTest, SurfaceDisksMatchPiRSquared) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ExpectOracle(modules.Surface(Region({Disk(1)})), M_PI, kSurfaceFloor);
  ExpectOracle(modules.Surface(Region({Disk(9)})), 9.0 * M_PI, kSurfaceFloor);
}

TEST(AggregateTest, SurfaceChordCutDiskMatchesDiskMinusSegment) {
  // x^2 + y^2 <= 4 and y <= x + 1: the line is d = 1/sqrt(2) from the
  // centre, so the cut-off segment is r^2 acos(d/r) - d sqrt(r^2 - d^2).
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  double r = 2.0, d = 1.0 / std::sqrt(2.0);
  double segment = r * r * std::acos(d / r) - d * std::sqrt(r * r - d * d);
  ExpectOracle(
      modules.Surface(Region({Disk(4), Atom(Y() - X() - Polynomial(1),
                                            RelOp::kLe)})),
      M_PI * r * r - segment, kSurfaceFloor);
}

TEST(AggregateTest, SurfaceAnnulusAndEllipse) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  // 1 <= x^2 + y^2 <= 4: two y-sectors over |x| < 1, area 4π − π.
  ExpectOracle(
      modules.Surface(Region(
          {Disk(4), Atom(Polynomial(1) - X().Pow(2) - Y().Pow(2),
                         RelOp::kLe)})),
      3.0 * M_PI, kSurfaceFloor);
  // x^2/4 + y^2 <= 1: πab with a = 2, b = 1.
  ExpectOracle(modules.Surface(Region({Atom(
                   X().Pow(2) + Polynomial(4) * Y().Pow(2) - Polynomial(4),
                   RelOp::kLe)})),
               2.0 * M_PI, kSurfaceFloor);
}

TEST(AggregateTest, SurfaceBandStaysExactAcrossProjectionRoots) {
  // 2x^2 + 3x - 5 <= y <= 2x^2 + 3x - 1 over -87/32 <= x <= -105/64: the
  // y^0 coefficient 2x^2 + 3x - 1 puts the irrational root (-3 - sqrt 17)/4
  // inside the x-range, where no boundary changes. The two pieces' terms
  // cancel there, so the area stays exactly 4 * 69/64.
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  Polynomial p = Polynomial(2) * X().Pow(2) + Polynomial(3) * X();
  auto area = modules.Surface(Region(
      {Atom(Polynomial(R(-87, 32)) - X(), RelOp::kLe),
       Atom(X() - Polynomial(R(-105, 64)), RelOp::kLe),
       Atom(p - Polynomial(5) - Y(), RelOp::kLe),
       Atom(Y() - p + Polynomial(1), RelOp::kLe)}));
  ASSERT_TRUE(area.ok()) << area.status().ToString();
  EXPECT_TRUE(area->exact);
  EXPECT_EQ(area->exact_value, R(69, 16));
}

TEST(AggregateTest, SurfaceBuildsOneCadPerCall) {
  // The numeric path reads slice lengths off the one CAD's sections: no
  // per-node CAD.
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  Counter* builds = MetricsRegistry::Global().GetCounter("cad.builds");
  for (const ConstraintRelation& region :
       {Region({Disk(9)}),
        Region({Disk(4), Atom(Y() - X() - Polynomial(1), RelOp::kLe)}),
        PaperSurfaceRegion()}) {
    std::uint64_t before = builds->value();
    auto area = modules.Surface(region);
    ASSERT_TRUE(area.ok()) << area.status().ToString();
    EXPECT_EQ(builds->value() - before, 1u);
  }
}

TEST(AggregateTest, SurfaceUnboundedUndefined) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(Y() - X(), RelOp::kLe);  // half plane
  rel.AddTuple(std::move(tuple));
  auto area = modules.Surface(rel);
  EXPECT_FALSE(area.ok());
  EXPECT_EQ(area.status().code(), StatusCode::kUndefined);
}

TEST(AggregateTest, SurfaceEmptyRegionZero) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(2);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X().Pow(2) + Y().Pow(2) + Polynomial(1),
                           RelOp::kLe);  // empty
  rel.AddTuple(std::move(tuple));
  auto area = modules.Surface(rel);
  ASSERT_TRUE(area.ok()) << area.status().ToString();
  EXPECT_NEAR(area->Value(), 0.0, 1e-12);
}

// VOLUME's tolerance floor.
constexpr double kVolumeFloor = 1e-5;

// A ternary relation, one tuple per atom list.
ConstraintRelation Solid(std::vector<std::vector<Atom>> tuples) {
  ConstraintRelation rel(3);
  for (std::vector<Atom>& atoms : tuples) {
    GeneralizedTuple tuple;
    tuple.atoms = std::move(atoms);
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

// lo <= v <= hi.
std::vector<Atom> Between(const Polynomial& v, std::int64_t lo,
                          std::int64_t hi) {
  return {Atom(Polynomial(lo) - v, RelOp::kLe),
          Atom(v - Polynomial(hi), RelOp::kLe)};
}

std::vector<Atom> Join(std::vector<std::vector<Atom>> parts) {
  std::vector<Atom> atoms;
  for (std::vector<Atom>& part : parts) {
    atoms.insert(atoms.end(), part.begin(), part.end());
  }
  return atoms;
}

// (x - cx)^2 + y^2 + z^2 <= 1.
Atom UnitBall(std::int64_t cx = 0) {
  return Atom((X() - Polynomial(cx)).Pow(2) + Y().Pow(2) + Z().Pow(2) -
                  Polynomial(1),
              RelOp::kLe);
}

ConstraintRelation Box() {
  return Solid({Join({Between(X(), 0, 2), Between(Y(), 0, 3),
                      Between(Z(), 0, 5)})});
}

// x^2 + y^2 <= z <= 1.
ConstraintRelation Paraboloid() {
  return Solid({{Atom(X().Pow(2) + Y().Pow(2) - Z(), RelOp::kLe),
                 Atom(Z() - Polynomial(1), RelOp::kLe)}});
}

ConstraintRelation TwoBalls() { return Solid({{UnitBall()}, {UnitBall(3)}}); }

TEST(AggregateTest, VolumeBox) {
  // Box [0,2]x[0,3]x[0,5]: volume 30 (numeric).
  AggregateModules modules(1e-6, nullptr, ccdb_test::ProcessPool());
  ExpectOracle(modules.Volume(Box()), 30.0, kVolumeFloor);
}

TEST(AggregateTest, VolumeUnitBall) {
  AggregateModules modules(1e-6, nullptr, ccdb_test::ProcessPool());
  ExpectOracle(modules.Volume(Solid({{UnitBall()}})), 4.0 * M_PI / 3.0,
               kVolumeFloor);
}

TEST(AggregateTest, VolumeClosedForms) {
  AggregateModules modules(1e-6, nullptr, ccdb_test::ProcessPool());
  // ∫∫ (1 - x^2 - y^2) over the unit disk.
  ExpectOracle(modules.Volume(Paraboloid()), M_PI / 2.0, kVolumeFloor);
  // x^2 + y^2 <= 1, 0 <= z <= x + 2: ∫∫ (x + 2) over the unit disk.
  ExpectOracle(
      modules.Volume(Solid({{Atom(X().Pow(2) + Y().Pow(2) - Polynomial(1),
                                  RelOp::kLe),
                             Atom(-Z(), RelOp::kLe),
                             Atom(Z() - X() - Polynomial(2), RelOp::kLe)}})),
      2.0 * M_PI, kVolumeFloor);
  // The upper half of the unit ball.
  ExpectOracle(modules.Volume(Solid({{UnitBall(), Atom(-Z(), RelOp::kLe)}})),
               2.0 * M_PI / 3.0, kVolumeFloor);
  ExpectOracle(modules.Volume(TwoBalls()), 8.0 * M_PI / 3.0, kVolumeFloor);
}

TEST(AggregateTest, VolumeAtALargeToleranceTerminates) {
  // The inner level trims its ends to the root width tol / 64, here above
  // 1: the trim must still narrow until the ends' isolating intervals part.
  AggregateModules modules(1000.0, nullptr, ccdb_test::ProcessPool());
  const std::pair<ConstraintRelation, double> cases[] = {
      {Solid({{UnitBall()}}), 4.0 * M_PI / 3.0},
      {Paraboloid(), M_PI / 2.0},
      {TwoBalls(), 8.0 * M_PI / 3.0},
  };
  for (const auto& [region, oracle] : cases) {
    auto volume = modules.Volume(region);
    ASSERT_TRUE(volume.ok()) << volume.status().ToString();
    EXPECT_LE(std::abs(volume->Value() - oracle), volume->error_estimate)
        << "value " << volume->Value() << " oracle " << oracle;
  }
}

TEST(AggregateTest, VolumeBuildsOneCadPerCall) {
  // The z-extents are read off the one 3-D CAD's sections: no per-node
  // slice CAD.
  AggregateModules modules(1e-6, nullptr, ccdb_test::ProcessPool());
  Counter* builds = MetricsRegistry::Global().GetCounter("cad.builds");
  for (const ConstraintRelation& region :
       {Solid({{UnitBall()}}), Box(), Paraboloid(), TwoBalls()}) {
    std::uint64_t before = builds->value();
    auto volume = modules.Volume(region);
    ASSERT_TRUE(volume.ok()) << volume.status().ToString();
    EXPECT_EQ(builds->value() - before, 1u);
  }
}

TEST(AggregateTest, VolumeUnboundedUndefined) {
  AggregateModules modules(1e-6, nullptr, ccdb_test::ProcessPool());
  struct Case {
    ConstraintRelation region;
    const char* message;
  };
  const Case cases[] = {
      {Solid({Join({{Atom(-X(), RelOp::kLe)}, Between(Y(), 0, 1),
                    Between(Z(), 0, 1)})}),
       "VOLUME of an x-unbounded region"},
      {Solid({Join({Between(X(), 0, 1), {Atom(-Y(), RelOp::kLe)},
                    Between(Z(), 0, 1)})}),
       "VOLUME of a y-unbounded region"},
      // x^2 + y^2 <= 1 and z >= 0.
      {Solid({{Atom(X().Pow(2) + Y().Pow(2) - Polynomial(1), RelOp::kLe),
               Atom(-Z(), RelOp::kLe)}}),
       "VOLUME of a z-unbounded region"},
  };
  for (const Case& c : cases) {
    auto volume = modules.Volume(c.region);
    ASSERT_FALSE(volume.ok()) << c.message;
    EXPECT_EQ(volume.status().code(), StatusCode::kUndefined);
    EXPECT_EQ(volume.status().message(), c.message);
  }
}

TEST(AggregateTest, EvalFiniteSolutions) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X().Pow(2) - Polynomial(4), RelOp::kEq);
  rel.AddTuple(std::move(tuple));
  auto result = modules.Eval(rel, R(1, 1000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tuples().size(), 2u);
  EXPECT_TRUE(result->Contains({R(2)}));
  EXPECT_TRUE(result->Contains({R(-2)}));
}

TEST(AggregateTest, EvalInfiniteReturnsOriginal) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  ConstraintRelation rel(1);
  GeneralizedTuple tuple;
  tuple.atoms.emplace_back(X(), RelOp::kGe);
  rel.AddTuple(std::move(tuple));
  auto result = modules.Eval(rel, R(1, 1000));
  ASSERT_TRUE(result.ok());
  // "to S itself otherwise".
  EXPECT_EQ(result->tuples().size(), rel.tuples().size());
  EXPECT_TRUE(result->Contains({R(42)}));
}

TEST(AggregateTest, ApplyNumericDispatchAndArityChecks) {
  AggregateModules modules(1e-9, nullptr, ccdb_test::ProcessPool());
  auto bad = modules.ApplyNumeric(AggregateKind::kSurface,
                                  UnaryInterval(R(0), R(1)));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good =
      modules.ApplyNumeric(AggregateKind::kLength, UnaryInterval(R(0), R(1)));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->exact_value, R(1));
  EXPECT_GE(modules.call_count(), 1u);
}

}  // namespace
}  // namespace ccdb
