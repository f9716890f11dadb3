// Ablation — the QE engine's design choices (DESIGN.md): the linear
// Fourier-Motzkin fast path, the equation-substitution pass, and the Thom
// derivative augmentation. The engine has no switch for any of them: each
// ON cell runs EliminateQuantifiers, and each OFF cell calls the public
// engine steps (qe/qe.h, qe/cad.h) that the choice skips or replaces, on a
// workload that exercises it; the table shows what each buys.

#include <algorithm>
#include <functional>

#include "bench_util.h"
#include "constraint/formula.h"
#include "qe/cad.h"
#include "qe/qe.h"

using namespace ccdb;

namespace {

Polynomial X() { return Polynomial::Var(0); }
Polynomial Y() { return Polynomial::Var(1); }
Polynomial Z() { return Polynomial::Var(2); }

// Runs one cell under the harness deadline (--deadline-ms): an exhausted
// cell reports nullopt and lands as `null` in the JSON row. `eliminate`
// reports solver-level failures through *ok.
std::optional<double> RunCell(
    const std::function<Status(const QeOptions&)>& eliminate, bool* ok) {
  return ccdb_bench::GovernedCell(
      [&](const ResourceGovernor* gov) -> Status {
        QeOptions options;
        options.governor = gov;
        options.pool = ccdb_bench::Pool();
        Status status = eliminate(options);
        *ok = status.ok();
        if (status.code() == StatusCode::kResourceExhausted) return status;
        return Status::Ok();
      });
}

// The planned elimination: the ON cell of every workload.
std::optional<double> RunPlanned(const Formula& query, QeStats* stats,
                                 bool* ok) {
  return RunCell(
      [&](const QeOptions& options) {
        return EliminateQuantifiers(query, 1, options, stats).status();
      },
      ok);
}

// CAD over the query's whole normal form, with or without peeling its
// defining equations first: the OFF cells of workloads A and B.
std::optional<double> RunCadOnly(const Formula& query, bool peel,
                                 QeStats* stats, bool* ok) {
  return RunCell(
      [&](const QeOptions& options) -> Status {
        CCDB_ASSIGN_OR_RETURN(QeNormalForm normal,
                              NormalizeForQe(query, 1, options.governor));
        if (peel) {
          CCDB_RETURN_IF_ERROR(PeelDefiningEquations(&normal.tuples,
                                                     &normal.prefix, options,
                                                     stats)
                                   .status());
        }
        return EliminateByCad(normal.tuples, normal.prefix, 1, options, stats)
            .status();
      },
      ok);
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
      QeStats stats;
      bool ok = false;
      std::optional<double> t =
          linear ? RunPlanned(instantiated, &stats, &ok)
                 : RunCadOnly(instantiated, /*peel=*/true, &stats, &ok);
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
      QeStats stats;
      bool ok = false;
      std::optional<double> t =
          substitution ? RunPlanned(query, &stats, &ok)
                       : RunCadOnly(query, /*peel=*/false, &stats, &ok);
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
      QeStats stats;
      bool ok = false;
      // Whether the construction asked for the derivative-closed retry.
      bool retried = false;
      std::optional<double> t;
      if (thom) {
        t = RunPlanned(query, &stats, &ok);
        retried = stats.used_thom_augmentation;
      } else {
        // The solution formula over the query's CAD with the same cell
        // labels as the CAD path, built by a spec whose before_attempt
        // observer refuses the retry (attempt 1).
        t = RunCell(
            [&](const QeOptions& options) -> Status {
              CCDB_ASSIGN_OR_RETURN(QeNormalForm normal,
                                    NormalizeForQe(query, 1, options.governor));
              SolutionFormulaSpec spec;
              for (const GeneralizedTuple& tuple : normal.tuples) {
                for (const Atom& atom : tuple.atoms) {
                  if (std::find(spec.polys.begin(), spec.polys.end(),
                                atom.poly) == spec.polys.end()) {
                    spec.polys.push_back(atom.poly);
                  }
                }
              }
              spec.num_vars = 2;
              spec.num_free = 1;
              spec.cad.governor = options.governor;
              spec.cad.pool = options.pool;
              spec.label_pool = options.pool;
              // exists y: a free cell is true iff one of its y-cells
              // satisfies the matrix.
              spec.label = [&](const CadCell& cell) -> StatusOr<CellLabel> {
                for (const CadCell& child : cell.children) {
                  if (child.sample.Satisfies(normal.tuples)) {
                    return CellLabel(std::vector<Atom>());
                  }
                }
                return CellLabel();
              };
              spec.before_attempt = [&](int attempt) -> Status {
                if (attempt == 0) return Status::Ok();
                retried = true;
                return Status::Internal("Thom-augmented retry refused");
              };
              return BuildSolutionFormula(spec).status();
            },
            &ok);
      }
      ccdb_bench::RecordCell(thom ? "C/thom_on" : "C/thom_off", t);
      // Only the retry on the derivative-closed CAD separates 2 + sqrt2
      // from its conjugate, so the query is solved exactly when the retry
      // runs, and both cells ask for it. An exhausted cell (deadline)
      // proves nothing.
      if (t.has_value()) {
        CCDB_CHECK_MSG(ok == thom && retried,
                       "workload C is solved iff the Thom retry runs");
      }
      ccdb_bench::Row("%-28s %12s %10s %8s",
                      thom ? "Thom augmentation ON" : "Thom augmentation OFF",
                      ccdb_bench::TableCell(t).c_str(),
                      thom && retried ? "yes" : "no", ok ? "yes" : "NO");
    }
  }

  ccdb_bench::Row("");
  ccdb_bench::Row(
      "expected shape: each choice carries its workload — FM beats CAD on "
      "linear data, substitution avoids a 3-var CAD entirely, and the "
      "asymmetric-root query is UNSOLVABLE without Thom augmentation");
  ccdb_bench::WriteRunRecord("ablation_qe");
  return 0;
}
