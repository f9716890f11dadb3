// Ablation — the QE engine's design choices (DESIGN.md): the linear
// Fourier-Motzkin fast path, the equation-substitution pass, and the Thom
// derivative augmentation. Each is toggled independently on a workload
// that exercises it; the table shows what each buys.

#include "bench_util.h"
#include "constraint/formula.h"
#include "qe/qe.h"

using namespace ccdb;

namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

// Runs one configuration cell under the harness deadline (--deadline-ms):
// an exhausted cell reports nullopt and lands as `null` in the JSON row.
std::optional<double> RunQe(const Formula& query, int free_vars,
                            QeOptions options, QeStats* stats, bool* ok) {
  return ccdb_bench::GovernedCell(
      [&](const ResourceGovernor* gov) -> Status {
        options.governor = gov;
        options.pool = ccdb_bench::Pool();
        auto result = EliminateQuantifiers(query, free_vars, options, stats);
        *ok = result.ok();
        if (!result.ok() &&
            result.status().code() == StatusCode::kResourceExhausted) {
          return result.status();
        }
        return Status::Ok();  // solver-level failures are reported via *ok
      });
}

}  // namespace

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header(
      "Ablation: QE engine design choices",
      "linear fast path, equation substitution, and Thom augmentation each "
      "carry a workload class");

  // Workload A: a linear query with many tuples — exercised by the
  // Fourier-Motzkin fast path; without it, the CAD pipeline does the same
  // job much more expensively.
  {
    ConstraintRelation data = ccdb_bench::RandomLinearRelation(6, 6, 12345);
    Formula query = Formula::Exists(1, Formula::Relation("R", {0, 1}));
    auto lookup = [&data](const std::string&) -> StatusOr<RelationBody> {
      return RelationBody(data);
    };
    Formula instantiated = *query.InstantiateRelations(lookup);
    ccdb_bench::Row("workload A: linear projection, 6 tuples");
    ccdb_bench::Row("%-28s %12s %10s %12s", "configuration", "time [ms]",
                    "path", "cells");
    for (bool linear : {true, false}) {
      QeOptions options;
      options.allow_linear_fast_path = linear;
      QeStats stats;
      bool ok = false;
      std::optional<double> t = RunQe(instantiated, 1, options, &stats, &ok);
      ccdb_bench::RecordCell(linear ? "A/linear_on" : "A/linear_off", t);
      ccdb_bench::Row("%-28s %12s %10s %12zu",
                      linear ? "linear fast path ON" : "linear fast path OFF",
                      ccdb_bench::TableCell(t).c_str(),
                      stats.used_linear_path ? "FM" : "CAD",
                      stats.cad_cells);
    }
  }

  // Workload B: CALC_F-style defining equations — exists t1 t2
  // (t1 = h1(x) and t2 = h2(t1) and t2 <= c): the substitution pass peels
  // both quantifiers; without it, a 3-variable CAD over degree-8
  // polynomials runs.
  {
    // h1, h2: degree-4 dense polynomials with awkward dyadic coefficients.
    Polynomial h1;
    Polynomial h2;
    for (int i = 0; i <= 4; ++i) {
      Rational c1(BigInt(3 * i * i + 1), BigInt(1 << (i + 1)));
      Rational c2(BigInt(5 * i + 2), BigInt(1 << (5 - i)));
      h1 += Polynomial::Term(c1, Monomial::Var(0, i));
      h2 += Polynomial::Term(c2, Monomial::Var(1, i));
    }
    Formula query = Formula::Exists(
        1, Formula::Exists(
               2, Formula::And(
                      Formula::And(
                          Formula::MakeAtom(Atom(Y() - h1, RelOp::kEq)),
                          Formula::MakeAtom(Atom(Z() - h2, RelOp::kEq))),
                      Formula::MakeAtom(
                          Atom(Z() - Polynomial(100), RelOp::kLe)))));
    ccdb_bench::Row("");
    ccdb_bench::Row("workload B: chained defining equations (CALC_F shape)");
    ccdb_bench::Row("%-28s %12s %12s", "configuration", "time [ms]", "cells");
    for (bool substitution : {true, false}) {
      QeOptions options;
      options.allow_equation_substitution = substitution;
      QeStats stats;
      bool ok = false;
      std::optional<double> t = RunQe(query, 1, options, &stats, &ok);
      ccdb_bench::RecordCell(substitution ? "B/subst_on" : "B/subst_off", t);
      ccdb_bench::Row("%-28s %12s %12zu",
                      substitution ? "equation substitution ON"
                                   : "equation substitution OFF",
                      ccdb_bench::TableCell(t).c_str(), stats.cad_cells);
    }
  }

  // Workload C: a query whose output needs Thom augmentation — the answer
  // {x : x^2 = 2} has two cells (±sqrt 2) with the same sign vector on
  // {x^2 - 2} but here we ask for just one of them, so plain sign vectors
  // cannot express the answer and the derivative x is added.
  {
    // Q(x) = exists y (y^2 = 2 and x = y + y^2 and y > 0): the answer is
    // the single algebraic point x = 2 + sqrt2; its mirror 2 - sqrt2 is a
    // false cell on the same projection factor, so plain sign vectors
    // collide and the derivative (Thom) augmentation must discriminate.
    Formula query = Formula::Exists(
        1, Formula::And(
               Formula::MakeAtom(
                   Atom(Y().Pow(2) - Polynomial(2), RelOp::kEq)),
               Formula::And(
                   Formula::MakeAtom(
                       Atom(X() - Y() - Y().Pow(2), RelOp::kEq)),
                   Formula::MakeAtom(Atom(Y(), RelOp::kGt)))));
    ccdb_bench::Row("");
    ccdb_bench::Row("workload C: asymmetric root selection (x = 2 + sqrt2 "
                    "only)");
    ccdb_bench::Row("%-28s %12s %10s %8s", "configuration", "time [ms]",
                    "thom used", "solved");
    for (bool thom : {true, false}) {
      QeOptions options;
      options.allow_thom_augmentation = thom;
      QeStats stats;
      bool ok = false;
      std::optional<double> t = RunQe(query, 1, options, &stats, &ok);
      ccdb_bench::RecordCell(thom ? "C/thom_on" : "C/thom_off", t);
      // Only the retry on the derivative-closed CAD separates 2 + sqrt2
      // from its conjugate, so the query is solved exactly when Thom
      // augmentation is on. An exhausted cell (deadline) proves nothing.
      if (t.has_value()) {
        CCDB_CHECK_MSG(ok == thom && stats.used_thom_augmentation == thom,
                       "workload C is solved iff Thom augmentation is on");
      }
      ccdb_bench::Row("%-28s %12s %10s %8s",
                      thom ? "Thom augmentation ON" : "Thom augmentation OFF",
                      ccdb_bench::TableCell(t).c_str(),
                      stats.used_thom_augmentation ? "yes" : "no",
                      ok ? "yes" : "NO");
    }
  }

  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: each switch carries its workload — FM beats CAD on "
      "linear data, substitution avoids a 3-var CAD entirely, and the "
      "asymmetric-root query is UNSOLVABLE without Thom augmentation");
  ccdb_bench::WriteRunRecord("ablation_qe");
  return 0;
}
