// Differential property tests for formula normalization: NNF, DNF and the
// QE prologue NormalizeForQe must preserve semantics. Random
// quantifier-free formulas are compared pointwise before and after each
// transformation. NormalizeForQe is compared against the composition it
// replaced (rename every bound variable to a fresh index while pulling the
// quantifiers out, then compact the fresh indices), kept here as the
// oracle, over random quantified formulas with sibling and nested scopes,
// shadowing, and universal quantifiers under negation. Also covers variable
// shadowing in the surface-syntax lowering.

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "constraint/formula.h"
#include "property_env.h"
#include "qe/qe.h"
#include "query/lower.h"
#include "query/parser.h"

namespace ccdb {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

// Random quantifier-free formula over two variables with nested
// connectives and negations.
Formula RandomQfFormula(std::mt19937_64* rng, int depth) {
  if (depth == 0 || (*rng)() % 4 == 0) {
    std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
    Polynomial p = Polynomial(coeff(*rng)) * Polynomial::Var(0) +
                   Polynomial(coeff(*rng)) * Polynomial::Var(1) +
                   Polynomial(coeff(*rng));
    RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                   RelOp::kNeq, RelOp::kGe, RelOp::kGt};
    return Formula::MakeAtom(Atom(p, ops[(*rng)() % 6]));
  }
  switch ((*rng)() % 3) {
    case 0:
      return Formula::Not(RandomQfFormula(rng, depth - 1));
    case 1:
      return Formula::And(RandomQfFormula(rng, depth - 1),
                          RandomQfFormula(rng, depth - 1));
    default:
      return Formula::Or(RandomQfFormula(rng, depth - 1),
                         RandomQfFormula(rng, depth - 1));
  }
}

// Every variable index occurring in `f`, free or bound.
void CollectAllVars(const Formula& f, std::set<int>* out) {
  if (f.kind() == Formula::Kind::kAtom) {
    const Polynomial& p = f.atom().poly;
    for (int v = 0; v <= p.max_var(); ++v) {
      if (p.Mentions(v)) out->insert(v);
    }
  } else if (f.kind() == Formula::Kind::kRelation) {
    out->insert(f.relation_args().begin(), f.relation_args().end());
  } else if (f.kind() == Formula::Kind::kExists ||
             f.kind() == Formula::Kind::kForall) {
    out->insert(f.quantified_var());
  }
  for (const Formula& child : f.children()) CollectAllVars(child, out);
}

std::set<int> AllVars(const Formula& f) {
  std::set<int> out;
  CollectAllVars(f, &out);
  return out;
}

// --- Oracle: the prenex composition NormalizeForQe replaced. ---

// Renames free occurrences of `from` to `to` (`to` must be fresh).
Formula OracleRenameFreeVar(const Formula& f, int from, int to) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return f;
    case Formula::Kind::kAtom: {
      const Polynomial& p = f.atom().poly;
      if (!p.Mentions(from)) return f;
      std::vector<int> mapping(std::max(p.max_var(), from) + 1);
      std::iota(mapping.begin(), mapping.end(), 0);
      mapping[from] = to;
      return Formula::MakeAtom(Atom(p.RenameVars(mapping), f.atom().op));
    }
    case Formula::Kind::kNot:
      return Formula::Not(OracleRenameFreeVar(f.children()[0], from, to));
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      std::vector<Formula> mapped;
      for (const Formula& child : f.children()) {
        mapped.push_back(OracleRenameFreeVar(child, from, to));
      }
      return f.kind() == Formula::Kind::kAnd ? Formula::And(mapped)
                                             : Formula::Or(mapped);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      if (f.quantified_var() == from) return f;  // bound below
      Formula inner = OracleRenameFreeVar(f.children()[0], from, to);
      return f.kind() == Formula::Kind::kExists
                 ? Formula::Exists(f.quantified_var(), inner)
                 : Formula::Forall(f.quantified_var(), inner);
    }
    case Formula::Kind::kRelation:
      break;
  }
  ADD_FAILURE() << "relation symbol in the oracle's input";
  return f;
}

struct OraclePrenex {
  std::vector<PrenexBlock> prefix;
  Formula matrix;
};

// Pulls the quantifiers of an NNF formula out, renaming each bound
// variable to the next fresh index before descending into its body.
OraclePrenex OraclePullQuantifiers(const Formula& g, int* next_fresh) {
  switch (g.kind()) {
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      OraclePrenex out;
      std::vector<Formula> matrices;
      for (const Formula& child : g.children()) {
        OraclePrenex sub = OraclePullQuantifiers(child, next_fresh);
        out.prefix.insert(out.prefix.end(), sub.prefix.begin(),
                          sub.prefix.end());
        matrices.push_back(sub.matrix);
      }
      out.matrix = g.kind() == Formula::Kind::kAnd ? Formula::And(matrices)
                                                   : Formula::Or(matrices);
      return out;
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      int fresh = (*next_fresh)++;
      Formula body =
          OracleRenameFreeVar(g.children()[0], g.quantified_var(), fresh);
      OraclePrenex sub = OraclePullQuantifiers(body, next_fresh);
      OraclePrenex out;
      out.prefix.push_back({g.kind() == Formula::Kind::kExists, fresh});
      out.prefix.insert(out.prefix.end(), sub.prefix.begin(),
                        sub.prefix.end());
      out.matrix = sub.matrix;
      return out;
    }
    default:
      return {{}, g};
  }
}

// Prenex form with the quantified variables compacted to
// num_free_vars, num_free_vars+1, ... in prefix order. The fresh indices
// increase along the prefix, so renaming in order never captures.
OraclePrenex OracleNormalize(const Formula& f, int num_free_vars) {
  std::set<int> all_vars = AllVars(f);
  int next_fresh = num_free_vars;
  if (!all_vars.empty()) {
    next_fresh = std::max(next_fresh, *all_vars.rbegin() + 1);
  }
  OraclePrenex prenex = OraclePullQuantifiers(ToNnf(f), &next_fresh);
  for (std::size_t i = 0; i < prenex.prefix.size(); ++i) {
    int target = num_free_vars + static_cast<int>(i);
    if (prenex.prefix[i].var != target) {
      prenex.matrix =
          OracleRenameFreeVar(prenex.matrix, prenex.prefix[i].var, target);
      prenex.prefix[i].var = target;
    }
  }
  return prenex;
}

// Random relation-free formula whose free variables lie in `scope`.
// Quantifiers bind indices drawn from 0..5, so a bound variable may shadow
// a free one (an index below num_free_vars), shadow an outer bound one, sit
// at its prefix target or away from it; negations put forall under not.
Formula RandomQuantifiedFormula(std::mt19937_64* rng, int depth,
                                std::vector<int> scope) {
  auto atom_over = [&](int must_mention) {
    std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
    Polynomial p = Polynomial(coeff(*rng));
    if (must_mention >= 0) {
      p = p + Polynomial(1 + (*rng)() % 3) * Polynomial::Var(must_mention);
    }
    for (int k = 0; k < 2 && !scope.empty(); ++k) {
      p = p + Polynomial(coeff(*rng)) *
                  Polynomial::Var(scope[(*rng)() % scope.size()]);
    }
    RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                   RelOp::kNeq, RelOp::kGe, RelOp::kGt};
    return Formula::MakeAtom(Atom(p, ops[(*rng)() % 6]));
  };
  if (depth == 0 || (*rng)() % 5 == 0) return atom_over(-1);
  switch ((*rng)() % 5) {
    case 0:
      return Formula::Not(RandomQuantifiedFormula(rng, depth - 1, scope));
    case 1:
      return Formula::And(RandomQuantifiedFormula(rng, depth - 1, scope),
                          RandomQuantifiedFormula(rng, depth - 1, scope));
    case 2:
      return Formula::Or(RandomQuantifiedFormula(rng, depth - 1, scope),
                         RandomQuantifiedFormula(rng, depth - 1, scope));
    default: {
      const int var = static_cast<int>((*rng)() % 6);
      const bool exists = (*rng)() % 2 == 0;
      if (std::find(scope.begin(), scope.end(), var) == scope.end()) {
        scope.push_back(var);
      }
      // The extra atom keeps the quantifier from being vacuous.
      Formula inner = RandomQuantifiedFormula(rng, depth - 1, scope);
      Formula body = (*rng)() % 2 == 0 ? Formula::And(inner, atom_over(var))
                                       : Formula::Or(inner, atom_over(var));
      return exists ? Formula::Exists(var, body) : Formula::Forall(var, body);
    }
  }
}

// True when no two sibling subformulas both hold quantifiers, so the
// quantifier scopes nest in a single chain and the prefix order is fixed.
bool ScopesFormChain(const Formula& nnf) {
  if (nnf.is_quantifier_free()) return true;
  if (nnf.kind() == Formula::Kind::kExists ||
      nnf.kind() == Formula::Kind::kForall) {
    return ScopesFormChain(nnf.children()[0]);
  }
  int quantified = 0;
  for (const Formula& child : nnf.children()) {
    if (child.is_quantifier_free()) continue;
    ++quantified;
    if (!ScopesFormChain(child)) return false;
  }
  return quantified <= 1;
}

bool DnfTruth(const std::vector<GeneralizedTuple>& tuples,
              const std::vector<Rational>& point) {
  for (const GeneralizedTuple& tuple : tuples) {
    if (tuple.SatisfiedAt(point)) return true;
  }
  return false;
}

class NormalizationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalizationPropertyTest, NnfPreservesTruthPointwise) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Formula f = RandomQfFormula(&rng, 3);
    Formula nnf = ToNnf(f);
    for (std::int64_t xi = -4; xi <= 4; ++xi) {
      for (std::int64_t yi = -4; yi <= 4; yi += 2) {
        std::vector<Rational> point{R(xi, 2), R(yi, 3)};
        EXPECT_EQ(f.EvaluateAt(point), nnf.EvaluateAt(point))
            << f.ToString({"x", "y"});
      }
    }
  }
}

TEST_P(NormalizationPropertyTest, DnfPreservesTruthPointwise) {
  std::mt19937_64 rng(500 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Formula f = RandomQfFormula(&rng, 3);
    std::vector<GeneralizedTuple> dnf = ToDnf(f);
    for (std::int64_t xi = -4; xi <= 4; ++xi) {
      for (std::int64_t yi = -4; yi <= 4; yi += 2) {
        std::vector<Rational> point{R(xi, 2), R(yi, 3)};
        bool dnf_truth = false;
        for (const GeneralizedTuple& tuple : dnf) {
          if (tuple.SatisfiedAt(point)) {
            dnf_truth = true;
            break;
          }
        }
        EXPECT_EQ(f.EvaluateAt(point), dnf_truth) << f.ToString({"x", "y"});
      }
    }
  }
}

TEST_P(NormalizationPropertyTest, PrenexMatrixAgreesUnderWitnesses) {
  // exists z (body) where body mixes z into a random formula: the matrix
  // with the quantifier's slot set to a witness w must equal the original
  // body with z := w.
  std::mt19937_64 rng(900 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Formula body = RandomQfFormula(&rng, 2);
    // Inject the quantified variable 3 into the body.
    Formula with_z = Formula::And(
        body, Formula::MakeAtom(
                  Atom(Polynomial::Var(3) - Polynomial::Var(0), RelOp::kLe)));
    if (with_z.FreeVars().count(3) == 0) {
      // The random body folded to a constant and the conjunction dropped
      // the injected atom, so Exists elides the vacuous quantifier.
      continue;
    }
    QeNormalForm normal =
        NormalizeForQe(Formula::Exists(3, with_z), /*num_free_vars=*/2);
    ASSERT_EQ(normal.prefix.size(), 1u);
    ASSERT_EQ(normal.prefix[0].var, 2);
    for (std::int64_t w = -2; w <= 2; ++w) {
      for (std::int64_t xi = -2; xi <= 2; ++xi) {
        std::vector<Rational> point{R(xi), R(1, 2), R(w)};
        std::vector<Rational> original_point{R(xi), R(1, 2), R(0), R(w)};
        EXPECT_EQ(normal.matrix.EvaluateAt(point),
                  with_z.EvaluateAt(original_point));
        EXPECT_EQ(DnfTruth(normal.tuples, point),
                  with_z.EvaluateAt(original_point));
      }
    }
  }
}

TEST_P(NormalizationPropertyTest, NormalizeForQeAgreesWithPrenexOracle) {
  // Against the old composition: chain-shaped scopes must give the same
  // prefix and the identical interned matrix. Sibling scopes may be
  // numbered in another order, so there the matrices must agree at
  // rational sample points under some permutation of the quantifier slots
  // that keeps every slot's quantifier kind.
  std::mt19937_64 rng(1300 + GetParam());
  const int trials = 40 * ccdb_test::PropertyIterScale();
  int chains = 0, siblings = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const int num_free_vars = static_cast<int>(rng() % 3);
    std::vector<int> scope(static_cast<std::size_t>(num_free_vars));
    std::iota(scope.begin(), scope.end(), 0);
    Formula f = RandomQuantifiedFormula(&rng, 4, scope);
    const std::string text = f.ToString();
    QeNormalForm normal = NormalizeForQe(f, num_free_vars);
    OraclePrenex oracle = OracleNormalize(f, num_free_vars);
    const std::size_t q = normal.prefix.size();
    ASSERT_EQ(q, oracle.prefix.size()) << text;
    EXPECT_TRUE(normal.matrix.is_quantifier_free()) << text;
    EXPECT_EQ(normal.tuples, ToDnf(normal.matrix)) << text;
    for (std::size_t i = 0; i < q; ++i) {
      EXPECT_EQ(normal.prefix[i].var, num_free_vars + static_cast<int>(i));
    }

    const int n = num_free_vars + static_cast<int>(q);
    std::vector<std::vector<Rational>> points;
    for (int k = 0; k < 12; ++k) {
      std::vector<Rational> point;
      for (int v = 0; v < n; ++v) {
        point.push_back(R(static_cast<std::int64_t>(rng() % 9) - 4,
                          1 + static_cast<std::int64_t>(rng() % 3)));
      }
      EXPECT_EQ(DnfTruth(normal.tuples, point),
                normal.matrix.EvaluateAt(point))
          << text;
      points.push_back(std::move(point));
    }

    if (ScopesFormChain(ToNnf(f))) {
      ++chains;
      for (std::size_t i = 0; i < q; ++i) {
        EXPECT_EQ(normal.prefix[i].is_exists, oracle.prefix[i].is_exists)
            << text;
      }
      EXPECT_EQ(normal.matrix.id(), oracle.matrix.id()) << text;
      continue;
    }
    if (q > 6) continue;  // keep the permutation search small
    ++siblings;
    std::vector<int> slot(q);  // normal slot i is oracle slot slot[i]
    std::iota(slot.begin(), slot.end(), 0);
    bool matched = false;
    do {
      bool kinds_match = true;
      for (std::size_t i = 0; i < q; ++i) {
        kinds_match &=
            normal.prefix[i].is_exists == oracle.prefix[slot[i]].is_exists;
      }
      if (!kinds_match) continue;
      matched = std::all_of(
          points.begin(), points.end(), [&](const std::vector<Rational>& p) {
            std::vector<Rational> moved = p;
            for (std::size_t i = 0; i < q; ++i) {
              moved[num_free_vars + slot[i]] = p[num_free_vars + i];
            }
            return normal.matrix.EvaluateAt(p) ==
                   oracle.matrix.EvaluateAt(moved);
          });
    } while (!matched && std::next_permutation(slot.begin(), slot.end()));
    EXPECT_TRUE(matched) << text;
  }
  // The generator must actually exercise both shapes.
  EXPECT_GT(chains, 0);
  EXPECT_GT(siblings, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizationPropertyTest,
                         ::testing::Range(0, 6));

// exists x y (R(id, x, y) and x + y <= 4), lowered with `padding` extra
// names interned after id, then instantiated with a two-tuple R.
Formula LoweredRegistryQuery(int padding) {
  auto parsed = ParseFormula("exists x y (R(id, x, y) and x + y <= 4)");
  EXPECT_TRUE(parsed.ok());
  VarEnv env;
  env.Intern("id");
  for (int i = 0; i < padding; ++i) env.Intern("pad" + std::to_string(i));
  auto lowered = LowerFormula(**parsed, &env);
  EXPECT_TRUE(lowered.ok());
  Polynomial id = Polynomial::Var(0), x = Polynomial::Var(1),
             y = Polynomial::Var(2);
  ConstraintRelation r(3);
  for (int k = 1; k <= 2; ++k) {
    r.AddTuple(GeneralizedTuple(
        {Atom(id - Polynomial(k), RelOp::kEq), Atom(x - Polynomial(k), RelOp::kGe),
         Atom(y - x, RelOp::kLe)}));
  }
  auto instantiated = lowered->InstantiateRelations(
      [&](const std::string&) -> StatusOr<ConstraintRelation> { return r; });
  EXPECT_TRUE(instantiated.ok());
  return *instantiated;
}

std::uint64_t AtomsRenamed() {
  return MetricsRegistry::Global()
      .GetCounter("qe.normalize.atoms_renamed")
      ->value();
}

TEST(AtomsRenamedCounterTest, ZeroWhenBoundVariablesSitAtTheirTargets) {
  // x and y are lowered right after the one free variable, so they are
  // already variables 1 and 2: the instantiated union is not rebuilt.
  Formula aligned = LoweredRegistryQuery(/*padding=*/0);
  const std::uint64_t before = AtomsRenamed();
  QeNormalForm normal = NormalizeForQe(aligned, /*num_free_vars=*/1);
  EXPECT_EQ(AtomsRenamed() - before, 0u);
  EXPECT_EQ(normal.prefix.size(), 2u);
  EXPECT_EQ(normal.tuples.size(), 2u);
}

TEST(AtomsRenamedCounterTest, CountsAtomsWhoseBoundVariablesMove) {
  // With two names interned in between, x and y are lowered to 3 and 4
  // and must move to 1 and 2; the result is the aligned query's.
  Formula moved = LoweredRegistryQuery(/*padding=*/2);
  const std::uint64_t before = AtomsRenamed();
  QeNormalForm normal = NormalizeForQe(moved, /*num_free_vars=*/1);
  EXPECT_GT(AtomsRenamed() - before, 0u);
  QeNormalForm aligned =
      NormalizeForQe(LoweredRegistryQuery(/*padding=*/0), 1);
  EXPECT_EQ(normal.matrix, aligned.matrix);
  EXPECT_EQ(normal.tuples, aligned.tuples);
}

TEST(LoweringShadowingTest, InnerQuantifierShadowsOuterName) {
  // exists x (x <= 1 and exists x (x >= 5)): the two x's are different
  // variables; the sentence is satisfiable.
  auto parsed =
      ParseFormula("exists x (x <= 1 and exists x (x >= 5))");
  ASSERT_TRUE(parsed.ok());
  VarEnv env;
  auto lowered = LowerFormula(**parsed, &env);
  ASSERT_TRUE(lowered.ok());
  // Two distinct bound variables must appear.
  EXPECT_EQ(AllVars(*lowered).size(), 2u);
  EXPECT_TRUE(lowered->FreeVars().empty());
}

TEST(LoweringShadowingTest, BoundNameRestoredAfterQuantifier) {
  // x free on the left; the quantifier on the right binds a DIFFERENT x;
  // afterwards the outer x refers to the free one again.
  auto parsed = ParseFormula("x <= 1 and exists x (x >= 5) and x >= 0");
  ASSERT_TRUE(parsed.ok());
  VarEnv env;
  auto lowered = LowerFormula(**parsed, &env);
  ASSERT_TRUE(lowered.ok());
  // Free variables: just the outer x (index 0).
  EXPECT_EQ(lowered->FreeVars(), (std::set<int>{0}));
  // Semantics: satisfiable with x in [0, 1].
  auto relation = EliminateQuantifiers(*lowered, 1);
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->Contains({R(1, 2)}));
  EXPECT_FALSE(relation->Contains({R(2)}));
  EXPECT_FALSE(relation->Contains({R(-1)}));
}

TEST(LoweringShadowingTest, RelationArgumentsExpandConstants) {
  // R(x, 3) lowers to exists fresh (fresh = 3 and R(x, fresh)).
  auto parsed = ParseFormula("R(x, 3)");
  ASSERT_TRUE(parsed.ok());
  VarEnv env;
  auto lowered = LowerFormula(**parsed, &env);
  ASSERT_TRUE(lowered.ok());
  EXPECT_EQ(lowered->kind(), Formula::Kind::kExists);
  EXPECT_TRUE(lowered->has_relation_symbols());
  EXPECT_EQ(lowered->FreeVars(), (std::set<int>{0}));
}

}  // namespace
}  // namespace ccdb
