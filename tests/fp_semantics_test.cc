#include "fp/fp_semantics.h"

#include <gtest/gtest.h>

#include "test_pool.h"

namespace ccdb {
namespace {

// EliminateQuantifiersFp of a one-free-variable query at k, on the test
// pool (test_pool.h).
StatusOr<ConstraintRelation> Fp(const Formula& query, std::uint32_t k,
                                FpQeStats* stats) {
  return EliminateQuantifiersFp(query, 1, FpContext{k}, stats,
                                ccdb_test::ProcessPool());
}

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }

TEST(FpSemanticsTest, DefinedWhenBudgetSuffices) {
  // Small linear query, generous k.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(X(), RelOp::kLe, Y()),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(10))));
  FpQeStats stats;
  auto result = Fp(query, 64, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.defined);
  EXPECT_LE(stats.max_bits, 64u);
  EXPECT_TRUE(result->Contains({R(10)}));
}

TEST(FpSemanticsTest, UndefinedWhenBudgetTooSmall) {
  // Multiplicative query with large coefficients: exceed a tiny budget.
  Polynomial big = Polynomial(1 << 20) * X().Pow(2) - Y();
  Formula query = Formula::Exists(
      1, Formula::And(Formula::MakeAtom(Atom(big, RelOp::kEq)),
                      Formula::MakeAtom(Atom(Y() - Polynomial(3), RelOp::kEq))));
  FpQeStats stats;
  auto result = Fp(query, 4, &stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUndefined);
  EXPECT_FALSE(stats.defined);
  EXPECT_GT(stats.max_bits, 4u);
}

TEST(FpSemanticsTest, Theorem41SeparationPolynomialBitGrowth) {
  // Theorem 4.1's engine: with multiplication, the QE algorithm needs
  // integers polynomially larger than the input. Squaring a coefficient
  // doubles its bit length: exists y (y = c*x*x and y*... keep simple:
  // the resultant of (y - c x^2, y - c) forces c^2-scale numbers.
  std::int64_t c = 100;  // 7 bits
  Formula query = Formula::Exists(
      1,
      Formula::And(
          Formula::MakeAtom(
              Atom(Y() - Polynomial(c) * X().Pow(2), RelOp::kEq)),
          Formula::MakeAtom(
              Atom(Y().Pow(2) - Polynomial(97), RelOp::kEq))));
  FpQeStats stats;
  auto exact = Fp(query, 1 << 20, &stats);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  // Input coefficients fit in 7 bits; intermediates need strictly more.
  EXPECT_GT(stats.max_bits, 7u);
}

TEST(FpSemanticsTest, Theorem42LinearBitGrowthLinear) {
  // For linear queries the growth is a constant factor (Lemma 4.4 linear
  // case): check max_bits <= c * input_bits for growing input bit lengths,
  // with a stable small c.
  for (int shift = 4; shift <= 24; shift += 10) {
    std::int64_t coeff = (1ll << shift) - 1;  // shift bits
    Formula query = Formula::Exists(
        1, Formula::And(
               Formula::Compare(Polynomial(coeff) * X(), RelOp::kLe, Y()),
               Formula::Compare(Y(), RelOp::kLe, Polynomial(coeff))));
    FpQeStats stats;
    auto result = Fp(query, 1 << 20, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(stats.qe.used_linear_path);
    EXPECT_LE(stats.max_bits, static_cast<std::uint64_t>(3 * shift + 8))
        << "input bits " << shift;
  }
}

TEST(FpSemanticsTest, DecideSentenceFp) {
  Formula sentence = Formula::Exists(
      0, Formula::MakeAtom(Atom(X() - Polynomial(3), RelOp::kEq)));
  auto truth = DecideSentenceFp(sentence, FpContext{64}, nullptr,
                                ccdb_test::ProcessPool());
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(*truth);
}

TEST(FpSemanticsTest, MinimalDefiningK) {
  Formula query = Formula::Exists(
      1, Formula::And(Formula::Compare(Polynomial(255) * X(), RelOp::kLe, Y()),
                      Formula::Compare(Y(), RelOp::kLe, Polynomial(255))));
  auto k = MinimalDefiningK(query, 1, 1 << 16, ccdb_test::ProcessPool());
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_GE(*k, 8u);
  EXPECT_LE(*k, 64u);
  // The query is then defined at exactly that k and undefined below.
  FpQeStats stats;
  EXPECT_TRUE(Fp(query, *k, &stats).ok());
  if (*k > 1) {
    auto below = Fp(query, *k - 1, &stats);
    EXPECT_FALSE(below.ok());
  }
}

TEST(FpSemanticsTest, PartialityIsMonotoneInK) {
  // If defined at k, defined at every k' >= k (same pipeline, same bits).
  Polynomial p = Polynomial(12345) * X().Pow(2) - Y();
  Formula query = Formula::Exists(
      1, Formula::MakeAtom(Atom(p, RelOp::kEq)));
  auto k = MinimalDefiningK(query, 1, 1 << 16, ccdb_test::ProcessPool());
  ASSERT_TRUE(k.ok());
  for (std::uint32_t extra : {0u, 1u, 10u, 100u}) {
    FpQeStats stats;
    EXPECT_TRUE(Fp(query, *k + extra, &stats).ok());
  }
}

}  // namespace
}  // namespace ccdb
