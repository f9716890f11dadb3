#include "qe/dense_order.h"

#include <random>

#include <gtest/gtest.h>

#include "qe/qe.h"
#include "test_pool.h"

namespace ccdb {
namespace {

using ccdb_test::ProcessPool;

// QeOptions on the test pool (test_pool.h).
QeOptions Pooled() {
  QeOptions options;
  options.pool = ProcessPool();
  return options;
}

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

GeneralizedTuple Tuple(std::initializer_list<Atom> atoms) {
  GeneralizedTuple t;
  for (const Atom& a : atoms) t.atoms.push_back(a);
  return t;
}

TEST(DenseOrderTest, RecognizesDenseOrderAtoms) {
  // x - y < 0, x - 3 <= 0, constants: dense order.
  EXPECT_TRUE(IsDenseOrderSystem(
      {Tuple({Atom(X() - Y(), RelOp::kLt), Atom(X() - Polynomial(3),
                                                RelOp::kLe)})}));
  // x + y: not a difference.
  EXPECT_FALSE(IsDenseOrderSystem({Tuple({Atom(X() + Y(), RelOp::kLt)})}));
  // 2x - y: non-unit coefficient.
  EXPECT_FALSE(IsDenseOrderSystem(
      {Tuple({Atom(Polynomial(2) * X() - Y(), RelOp::kLt)})}));
  // x - y + 1: offset difference encodes addition.
  EXPECT_FALSE(IsDenseOrderSystem(
      {Tuple({Atom(X() - Y() + Polynomial(1), RelOp::kLt)})}));
  // x*y: nonlinear.
  EXPECT_FALSE(IsDenseOrderSystem({Tuple({Atom(X() * Y(), RelOp::kEq)})}));
  // Constant-only atoms are allowed.
  EXPECT_TRUE(IsDenseOrderSystem({Tuple({Atom(Polynomial(1), RelOp::kGt)})}));
}

TEST(DenseOrderTest, BetweennessElimination) {
  // exists y (x < y and y < z): by density, equivalent to x < z.
  GeneralizedTuple tuple = Tuple(
      {Atom(X() - Y(), RelOp::kLt), Atom(Y() - Z(), RelOp::kLt)});
  auto result = EliminateExistsDenseOrder({tuple}, 1, nullptr, ProcessPool());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].SatisfiedAt({R(0), R(0), R(1)}));
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(1), R(0), R(0)}));
  EXPECT_FALSE((*result)[0].SatisfiedAt({R(1), R(0), R(1)}));  // x = z
  EXPECT_TRUE(IsDenseOrderSystem(*result));
}

TEST(DenseOrderTest, ClosureOverRandomSystems) {
  // Elimination stays inside the dense-order language (the closure
  // property the module asserts), exhaustively over random systems.
  std::mt19937_64 rng(91);
  std::uniform_int_distribution<std::int64_t> constant(-5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<GeneralizedTuple> tuples;
    for (int t = 0; t < 2; ++t) {
      GeneralizedTuple tuple;
      for (int a = 0; a < 3; ++a) {
        int mode = static_cast<int>(rng() % 3);
        RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq, RelOp::kNeq};
        RelOp op = ops[rng() % 4];
        int v1 = static_cast<int>(rng() % 3);
        int v2 = static_cast<int>(rng() % 3);
        if (mode == 0 && v1 != v2) {
          tuple.atoms.emplace_back(
              Polynomial::Var(v1) - Polynomial::Var(v2), op);
        } else {
          tuple.atoms.emplace_back(
              Polynomial::Var(v1) - Polynomial(constant(rng)), op);
        }
      }
      tuples.push_back(std::move(tuple));
    }
    ASSERT_TRUE(IsDenseOrderSystem(tuples));
    auto result = EliminateExistsDenseOrder(tuples, 2, nullptr, ProcessPool());
    ASSERT_TRUE(result.ok()) << "trial " << trial;
    EXPECT_TRUE(IsDenseOrderSystem(*result)) << "trial " << trial;
  }
}

TEST(DenseOrderTest, QeStatsReportDenseOrderPath) {
  // exists y (x < y and y < 10): the engine should recognize DO input.
  Formula query = Formula::Exists(
      1, Formula::And(Formula::MakeAtom(Atom(X() - Y(), RelOp::kLt)),
                      Formula::MakeAtom(
                          Atom(Y() - Polynomial(10), RelOp::kLt))));
  QeStats stats;
  auto result = EliminateQuantifiers(query, 1, Pooled(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.used_linear_path);
  EXPECT_TRUE(stats.used_dense_order_path);
  EXPECT_TRUE(result->Contains({R(5)}));
  EXPECT_FALSE(result->Contains({R(10)}));

  // With a non-unit coefficient the DO flag drops but linear stays.
  Formula linear = Formula::Exists(
      1, Formula::MakeAtom(
             Atom(Polynomial(2) * X() - Y(), RelOp::kLt)));
  auto r2 = EliminateQuantifiers(linear, 1, Pooled(), &stats);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(stats.used_linear_path);
  EXPECT_FALSE(stats.used_dense_order_path);
}

TEST(DenseOrderTest, OrderInsensitivityToExactValues) {
  // The paper's Theorem 4.2 argument: order-only queries depend only on
  // the relative order of the constants. Scale all constants by a huge
  // factor; the query's answer pattern (relative to the scaled grid) is
  // unchanged, and the finite-precision pipeline bits stay proportional
  // to the constants' bits with constant factor ~1.
  for (std::int64_t scale : {1ll, 1000ll, 1000000ll}) {
    GeneralizedTuple tuple = Tuple(
        {Atom(X() - Y(), RelOp::kLt),
         Atom(Y() - Polynomial(2 * scale), RelOp::kLt)});
    auto result = EliminateExistsDenseOrder({tuple}, 1, nullptr, ProcessPool());
    ASSERT_TRUE(result.ok());
    // Answer: x < 2*scale.
    bool in = false;
    for (const auto& t : *result) {
      if (t.SatisfiedAt({R(scale), R(0)})) in = true;
    }
    EXPECT_TRUE(in) << scale;
    bool out = false;
    for (const auto& t : *result) {
      if (t.SatisfiedAt({R(3 * scale), R(0)})) out = true;
    }
    EXPECT_FALSE(out) << scale;
  }
}

TEST(DenseOrderTest, RejectsNonDenseOrder) {
  GeneralizedTuple tuple = Tuple({Atom(X() + Y(), RelOp::kLt)});
  auto result = EliminateExistsDenseOrder({tuple}, 1, nullptr, ProcessPool());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccdb
