#ifndef CCDB_DATALOG_DATALOG_H_
#define CCDB_DATALOG_DATALOG_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "constraint/formula.h"
#include "qe/qe.h"

namespace ccdb {

/// One literal in a Datalog rule body: either a (possibly negated) relation
/// atom over variable indices, or a polynomial constraint atom.
struct DatalogLiteral {
  bool is_relation = false;
  bool negated = false;  // relation literals only (inflationary negation)
  std::string relation;
  std::vector<int> args;
  Atom constraint;

  static DatalogLiteral Rel(std::string name, std::vector<int> args,
                            bool negated = false);
  static DatalogLiteral Constraint(Atom atom);
};

/// A rule head(head_vars) :- body. Head variables are rule-local indices;
/// body variables not in the head are existentially quantified.
struct DatalogRule {
  std::string head;
  std::vector<int> head_vars;
  std::vector<DatalogLiteral> body;
};

/// A Datalog¬ program over constraint relations (the language
/// Datalog¬_F,QE of Section 4): rules with inflationary negation, evaluated
/// by calling the QE algorithm at each iteration.
struct DatalogProgram {
  /// Declared arities of the intensional relations.
  std::map<std::string, int> idb_arities;
  std::vector<DatalogRule> rules;
};

struct DatalogOptions {
  /// Hard iteration cap (the paper's PTIME bound is enforced by the finite
  /// precision context; this is the engineering backstop).
  int max_iterations = 64;
  /// When positive, the finite-precision context Z_k: evaluation is
  /// undefined as soon as any materialized integer exceeds k bits
  /// (Theorem 4.7's setting; guarantees termination in PTIME). Z_k runs
  /// evaluate naively (full rule bodies each round — the executable spec):
  /// the bit-length verdict must observe every intermediate the naive
  /// rounds materialize. Every other run is semi-naive, and both paths
  /// produce byte-identical fixpoints.
  std::uint32_t precision_k = 0;
  /// QE options for each rule evaluation. `qe.governor`, when set, is also
  /// charged once per fixpoint round and per derived tuple (stage
  /// "datalog.iteration") and once per containment test of a derived
  /// tuple against a stored one (stage "datalog.containment"), so a budget
  /// bounds the whole fixpoint — not just the individual QE calls.
  /// `qe.pool` additionally drives the per-rule fan-out of each
  /// inflationary round: rule bodies evaluate in parallel
  /// against the frozen current interpretation and merge in rule order,
  /// so the fixpoint is identical at every thread count.
  QeOptions qe;
};

struct DatalogStats {
  int iterations = 0;
  bool reached_fixpoint = false;
  std::uint64_t max_bits = 0;
  /// QE driver calls: one per evaluated rule body, plus one per
  /// containment test of a nonlinear tuple pair. Linear containment runs
  /// no QE driver call.
  std::uint64_t qe_calls = 0;
  /// Total tuples presented as per-relation deltas across semi-naive
  /// rounds (0 on the naive path).
  std::uint64_t delta_tuples = 0;
  /// Rule evaluations skipped outright because every relation the body
  /// mentions had an empty delta (semi-naive only).
  std::uint64_t rules_skipped = 0;
  /// Candidate-against-tuple containment tests of the merge (the pairs
  /// after the syntactic duplicate check).
  std::uint64_t containment_tests = 0;
  /// Containment tests the bounds could not decide alone: linear pairs
  /// that needed a Fourier-Motzkin emptiness test of t ∧ ¬a, and
  /// nonlinear pairs decided by the QE driver.
  std::uint64_t containment_qe_fallbacks = 0;

  /// One-line human-readable rendering.
  std::string ToString() const;
  /// JSON object with one field per statistic.
  std::string ToJson() const;
};

/// Evaluates the program under the INFLATIONARY semantics: each iteration
/// adds the tuples derived by every rule against the current
/// interpretation (negation evaluated against the current interpretation),
/// until a (semantic) fixpoint. Returns the final interpretation of all
/// IDB relations. The EDB relations are read-only inputs.
StatusOr<std::map<std::string, ConstraintRelation>> EvaluateDatalog(
    const DatalogProgram& program,
    const std::map<std::string, ConstraintRelation>& edb,
    const DatalogOptions& options = {}, DatalogStats* stats = nullptr);

/// Materialized fixpoint state: the IDB interpretation of a completed
/// fixpoint plus the per-relation EDB sizes it was computed against. The
/// sizes anchor a later resume: tuples at indices >= edb_sizes[R] are R's
/// delta.
struct DatalogFixpointState {
  std::map<std::string, ConstraintRelation> idb;
  std::map<std::string, std::size_t> edb_sizes;
};

/// Resumes a completed fixpoint after append-only EDB growth instead of
/// recomputing from scratch: seeds the per-relation deltas with each EDB
/// relation's suffix beyond state->edb_sizes and runs semi-naive rounds
/// until a new fixpoint, starting from state->idb. The caller must
/// guarantee the old tuples are an unchanged prefix of the new relations
/// (ConstraintDatabase tracks this via per-relation base versions).
/// Refuses programs with negated literals (the inflationary fixpoint is
/// not monotone in the EDB under negation) and Z_k runs. On success the
/// state is advanced in place; on error it is untouched.
StatusOr<std::map<std::string, ConstraintRelation>> ResumeDatalog(
    const DatalogProgram& program,
    const std::map<std::string, ConstraintRelation>& edb,
    DatalogFixpointState* state, const DatalogOptions& options = {},
    DatalogStats* stats = nullptr);

}  // namespace ccdb

#endif  // CCDB_DATALOG_DATALOG_H_
