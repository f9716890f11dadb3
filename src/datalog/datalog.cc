#include "datalog/datalog.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "qe/fourier_motzkin.h"

namespace ccdb {

DatalogLiteral DatalogLiteral::Rel(std::string name, std::vector<int> args,
                                   bool negated) {
  DatalogLiteral lit;
  lit.is_relation = true;
  lit.negated = negated;
  lit.relation = std::move(name);
  lit.args = std::move(args);
  return lit;
}

DatalogLiteral DatalogLiteral::Constraint(Atom atom) {
  DatalogLiteral lit;
  lit.is_relation = false;
  lit.constraint = std::move(atom);
  return lit;
}

namespace {

// Variable renaming shared by every body formula a rule can take: head
// variable i -> column i, every other body variable existentially
// quantified above the columns.
struct RuleVarMap {
  std::map<int, int> mapping;
  std::vector<int> dense_mapping;
  std::vector<int> quantified;
};

StatusOr<RuleVarMap> MapRuleVars(const DatalogRule& rule) {
  std::vector<int> vars;
  auto note = [&vars](int v) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
    }
  };
  for (int v : rule.head_vars) note(v);
  for (const DatalogLiteral& lit : rule.body) {
    if (lit.is_relation) {
      for (int v : lit.args) note(v);
    } else {
      for (int v = 0; v <= lit.constraint.poly.max_var(); ++v) {
        if (lit.constraint.poly.Mentions(v)) note(v);
      }
    }
  }
  RuleVarMap vm;
  int arity = static_cast<int>(rule.head_vars.size());
  for (int i = 0; i < arity; ++i) {
    auto [it, inserted] = vm.mapping.emplace(rule.head_vars[i], i);
    if (!inserted) {
      return Status::InvalidArgument("repeated head variable in rule for " +
                                     rule.head);
    }
  }
  int next = arity;
  for (int v : vars) {
    if (vm.mapping.count(v) == 0) {
      vm.mapping[v] = next;
      vm.quantified.push_back(next);
      ++next;
    }
  }
  int max_old = vars.empty() ? -1 : *std::max_element(vars.begin(), vars.end());
  vm.dense_mapping.assign(max_old + 1, -1);
  for (const auto& [from, to] : vm.mapping) vm.dense_mapping[from] = to;
  return vm;
}

// The rule body as one conjunction, with each relation occurrence named by
// `name_of(body position)` — the hook the semi-naive rewrite uses to point
// individual occurrences at the @old / @delta slices of their relation.
Formula RuleConjunction(
    const DatalogRule& rule, const RuleVarMap& vm,
    const std::function<std::string(std::size_t)>& name_of) {
  std::vector<Formula> conjuncts;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    const DatalogLiteral& lit = rule.body[i];
    if (lit.is_relation) {
      std::vector<int> args;
      for (int v : lit.args) args.push_back(vm.mapping.at(v));
      Formula atom = Formula::Relation(name_of(i), std::move(args));
      conjuncts.push_back(lit.negated ? Formula::Not(std::move(atom))
                                      : std::move(atom));
    } else {
      Polynomial renamed = lit.constraint.poly.RenameVars(vm.dense_mapping);
      conjuncts.push_back(
          Formula::MakeAtom(Atom(std::move(renamed), lit.constraint.op)));
    }
  }
  return Formula::And(conjuncts);
}

Formula QuantifyRuleBody(Formula body, const RuleVarMap& vm) {
  for (auto it = vm.quantified.rbegin(); it != vm.quantified.rend(); ++it) {
    body = Formula::Exists(*it, std::move(body));
  }
  return body;
}

// Builds the first-order formula of one rule body, with head variables
// renamed to 0..arity-1 and the remaining variables existentially
// quantified.
StatusOr<Formula> RuleToFormula(const DatalogRule& rule) {
  CCDB_ASSIGN_OR_RETURN(RuleVarMap vm, MapRuleVars(rule));
  return QuantifyRuleBody(
      RuleConjunction(rule, vm,
                      [&rule](std::size_t i) { return rule.body[i].relation; }),
      vm);
}

// Semi-naive delta rewrite of one rule body. For each positive occurrence
// c of a relation with a nonempty delta, emit one copy of the body where
// occurrence c reads the delta slice, every earlier changed positive
// occurrence reads the old slice, and everything later (plus unchanged
// and negated occurrences) reads the full relation. Classifying each
// tuple combination of the full body by its FIRST delta pick shows the
// union covers exactly the combinations that touch at least one delta
// tuple, each exactly once; the all-old combinations it drops were
// evaluated verbatim in an earlier round, so the merged fixpoint — after
// the canonical candidate sort below — is byte-identical with the naive
// path. Callers must not pass rules whose NEGATED occurrences changed:
// those all-old combinations are no longer verbatim re-runs (¬R shrank),
// so such rules fall back to the full body instead.
StatusOr<Formula> RuleToDeltaFormula(
    const DatalogRule& rule,
    const std::function<bool(const std::string&)>& changed) {
  CCDB_ASSIGN_OR_RETURN(RuleVarMap vm, MapRuleVars(rule));
  std::vector<Formula> choices;
  for (std::size_t c = 0; c < rule.body.size(); ++c) {
    const DatalogLiteral& pivot = rule.body[c];
    if (!pivot.is_relation || pivot.negated || !changed(pivot.relation)) {
      continue;
    }
    choices.push_back(RuleConjunction(
        rule, vm, [&rule, &changed, c](std::size_t i) {
          const DatalogLiteral& lit = rule.body[i];
          if (!lit.is_relation || lit.negated) return lit.relation;
          if (i == c) return lit.relation + "@delta";
          if (i < c && changed(lit.relation)) return lit.relation + "@old";
          return lit.relation;
        }));
  }
  return QuantifyRuleBody(Formula::Or(std::move(choices)), vm);
}

// Exact containment of one generalized tuple in another:
// not exists x (t(x) and not u(x)) — negating a single conjunction keeps
// the DNF linear in |u|.
StatusOr<bool> TupleInTuple(const GeneralizedTuple& t,
                            const GeneralizedTuple& u, int arity,
                            const QeOptions& qe, std::uint64_t* qe_calls) {
  std::vector<Formula> t_atoms;
  for (const Atom& atom : t.atoms) t_atoms.push_back(Formula::MakeAtom(atom));
  std::vector<Formula> u_atoms;
  for (const Atom& atom : u.atoms) u_atoms.push_back(Formula::MakeAtom(atom));
  Formula witness =
      Formula::And(Formula::And(t_atoms), Formula::Not(Formula::And(u_atoms)));
  for (int v = arity; v-- > 0;) {
    witness = Formula::Exists(v, std::move(witness));
  }
  ++*qe_calls;
  CCDB_ASSIGN_OR_RETURN(bool has_witness, DecideSentence(witness, qe));
  return !has_witness;
}

bool SameTuple(const GeneralizedTuple& a, const GeneralizedTuple& b) {
  if (a.atoms.size() != b.atoms.size()) return false;
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    if (!(a.atoms[i] == b.atoms[i])) return false;
  }
  return true;
}

// Containment test for the inflationary fixpoint: is `candidate` a subset
// of `relation`? Checked syntactically and then tuple-against-tuple (sound
// and cheap). Both checks are DROP-STABLE: relations only grow, so a tuple
// that covers the candidate now still covers it in every later round.
// Stability is what lets the semi-naive path skip re-deriving a dropped
// candidate — a cover that could expire (e.g. a union of several tuples
// whose test is only attempted on small relations) would make the naive
// path re-admit the candidate later while semi-naive never revisits it.
// A missed containment merely costs an extra (redundant) tuple, never
// soundness.
StatusOr<bool> TupleContained(const GeneralizedTuple& candidate,
                              const ConstraintRelation& relation,
                              const QeOptions& qe, std::uint64_t* qe_calls) {
  for (const GeneralizedTuple& existing : relation.tuples()) {
    if (SameTuple(candidate, existing)) return true;
  }
  for (const GeneralizedTuple& existing : relation.tuples()) {
    CCDB_ASSIGN_OR_RETURN(bool inside,
                          TupleInTuple(candidate, existing, relation.arity(),
                                       qe, qe_calls));
    if (inside) return true;
  }
  return false;
}

Status ValidateProgram(const DatalogProgram& program,
                       const std::map<std::string, ConstraintRelation>& edb) {
  for (const auto& [name, arity] : program.idb_arities) {
    (void)arity;
    if (edb.count(name) != 0) {
      return Status::InvalidArgument("relation " + name +
                                     " is both EDB and IDB");
    }
  }
  for (const DatalogRule& rule : program.rules) {
    if (program.idb_arities.count(rule.head) == 0) {
      return Status::InvalidArgument("rule head " + rule.head +
                                     " is not a declared IDB relation");
    }
  }
  return Status::Ok();
}

enum class RuleMode { kFull, kDelta, kSkip };

// Shared fixpoint driver. `idb` enters holding the starting interpretation
// (empty relations for a cold run, the previous fixpoint for a resume) and
// grows in place until a fixpoint. `delta_start[R]` marks the first tuple
// of R's current delta: empty for a cold start (round 0 then evaluates
// full bodies), the appended EDB suffixes for a resume (`resumed` makes
// round 0 a delta round). After each round the IDB deltas roll forward to
// the tuples that round added.
Status RunFixpoint(const DatalogProgram& program,
                   const std::map<std::string, ConstraintRelation>& edb,
                   std::map<std::string, ConstraintRelation>* idb,
                   std::map<std::string, std::size_t> delta_start,
                   bool resumed, bool seminaive, const DatalogOptions& options,
                   DatalogStats* s) {
  const ResourceGovernor* gov = options.qe.governor;

  // Per-round attribution (Observability v2, DESIGN.md §12): when the
  // caller armed a ProfileSink, each fixpoint round appends ONE node —
  // "datalog.round[i]" with one child per rule in rule order — instead of
  // letting every rule elimination add its own root from a pool worker in
  // arrival order. Rule-level eliminations therefore run with the sink
  // cleared (`rule_qe`); observation only.
  ProfileSink* profile = options.qe.profile;
  QeOptions rule_qe = options.qe;
  rule_qe.profile = nullptr;

  // Per-run rule-body memo: once the relations a rule depends on stop
  // changing, its instantiated body hash-conses to the same interned
  // formula, and the QE result of the previous round can be replayed
  // verbatim. Keyed on the interned formula id; the stored Formula pins
  // the id alive. Pure memo (same contract as the QE cache), so it is
  // skipped under an armed governor to keep budget charging exact.
  struct BodyMemo {
    Formula formula;
    ConstraintRelation rel;
    QeStats qe_stats;
  };
  std::mutex body_cache_mu;
  std::unordered_map<std::uint64_t, BodyMemo> body_cache;
  const bool use_body_cache =
      gov == nullptr && MemoCachesEnabled();

  auto find_relation = [&edb, idb](
                           const std::string& name) -> const ConstraintRelation* {
    auto it = idb->find(name);
    if (it != idb->end()) return &it->second;
    auto jt = edb.find(name);
    if (jt != edb.end()) return &jt->second;
    return nullptr;
  };
  auto delta_size = [&](const std::string& name) -> std::size_t {
    auto it = delta_start.find(name);
    if (it == delta_start.end()) return 0;
    const ConstraintRelation* rel = find_relation(name);
    if (rel == nullptr) return 0;
    std::size_t size = rel->tuples().size();
    return size - std::min(it->second, size);
  };

  // Relation lookup for body instantiation. Plain names resolve to the
  // full relation; the semi-naive rewrite additionally reads the "@old"
  // (prefix before this round's delta) and "@delta" (suffix) slices.
  // Slicing by index is exact because relations are append-only across
  // rounds: candidates are only ever pushed at the back and
  // SimplifyTuples keeps first occurrences in place.
  auto lookup = [&](const std::string& name) -> StatusOr<ConstraintRelation> {
    const std::size_t at = name.find('@');
    const std::string base = at == std::string::npos ? name : name.substr(0, at);
    const ConstraintRelation* full = find_relation(base);
    if (full == nullptr) return Status::NotFound("unknown relation " + base);
    if (at == std::string::npos) return *full;
    const std::vector<GeneralizedTuple>& tuples = full->tuples();
    std::size_t cut = tuples.size();
    auto it = delta_start.find(base);
    if (it != delta_start.end()) cut = std::min(it->second, tuples.size());
    const std::string slice = name.substr(at + 1);
    if (slice == "old") {
      return ConstraintRelation(
          full->arity(), std::vector<GeneralizedTuple>(tuples.begin(),
                                                       tuples.begin() + cut));
    }
    if (slice == "delta") {
      return ConstraintRelation(
          full->arity(),
          std::vector<GeneralizedTuple>(tuples.begin() + cut, tuples.end()));
    }
    return Status::NotFound("unknown relation slice " + name);
  };

  for (int round = 0; round < options.max_iterations; ++round) {
    CCDB_TRACE_SPAN("datalog.iteration");
    CCDB_FAILPOINT("datalog.iteration");
    CCDB_CHECK_BUDGET(gov, "datalog.iteration");
    ++s->iterations;
    CCDB_METRIC_COUNT("datalog.iterations", 1);
    bool grew = false;

    // Round 0 of a cold run evaluates every rule in full (there is no
    // previous round to difference against); every later round — and every
    // round of a resume — differences against the previous round's deltas.
    const bool delta_round = seminaive && (resumed || round > 0);
    std::uint64_t round_delta_tuples = 0;
    std::vector<RuleMode> modes(program.rules.size(), RuleMode::kFull);
    if (delta_round) {
      for (const auto& [name, start] : delta_start) {
        (void)start;
        round_delta_tuples += delta_size(name);
      }
      s->delta_tuples += round_delta_tuples;
      for (std::size_t i = 0; i < program.rules.size(); ++i) {
        bool any_changed = false;
        bool negated_changed = false;
        for (const DatalogLiteral& lit : program.rules[i].body) {
          if (!lit.is_relation || delta_size(lit.relation) == 0) continue;
          any_changed = true;
          if (lit.negated) negated_changed = true;
        }
        // A body none of whose relations changed re-derives exactly what it
        // derived the round it last ran; every candidate would be dropped
        // by the (drop-stable) containment pass, so skip the QE outright.
        // A changed relation under negation breaks the delta rewrite's
        // "all-old combinations already ran" premise — full body instead.
        modes[i] = !any_changed      ? RuleMode::kSkip
                   : negated_changed ? RuleMode::kFull
                                     : RuleMode::kDelta;
      }
    }

    // Evaluate all rules against the CURRENT interpretation (simultaneous
    // inflationary step), then merge. Rule bodies are independent QE
    // problems over a frozen interpretation, so they evaluate across the
    // pool into index-addressed slots; the merge below walks the slots in
    // rule order, which keeps derived-tuple order, stats accumulation, and
    // the Z_k precision verdict identical at every thread count.
    struct RuleSlot {
      ConstraintRelation rel;
      QeStats qe_stats;
      std::int64_t us = 0;
      bool skipped = false;
    };
    const auto round_start = std::chrono::steady_clock::now();
    auto changed = [&](const std::string& name) { return delta_size(name) > 0; };
    CCDB_ASSIGN_OR_RETURN(
        std::vector<RuleSlot> rule_slots,
        ThreadPool::Resolve(options.qe.pool)->ParallelMap<RuleSlot>(
            program.rules.size(),
            [&](std::size_t i) -> StatusOr<RuleSlot> {
              const DatalogRule& rule = program.rules[i];
              RuleSlot slot;
              if (modes[i] == RuleMode::kSkip) {
                slot.skipped = true;
                slot.rel = ConstraintRelation(
                    static_cast<int>(rule.head_vars.size()));
                return slot;
              }
              Formula body = Formula::False();
              if (modes[i] == RuleMode::kDelta) {
                CCDB_ASSIGN_OR_RETURN(body, RuleToDeltaFormula(rule, changed));
              } else {
                CCDB_ASSIGN_OR_RETURN(body, RuleToFormula(rule));
              }
              CCDB_ASSIGN_OR_RETURN(Formula instantiated,
                                    body.InstantiateRelations(lookup));
              if (use_body_cache) {
                std::lock_guard<std::mutex> lock(body_cache_mu);
                auto it = body_cache.find(instantiated.id());
                if (it != body_cache.end()) {
                  CCDB_METRIC_COUNT("datalog_body_cache_hits", 1);
                  slot.rel = it->second.rel;
                  slot.qe_stats = it->second.qe_stats;
                  return slot;
                }
              }
              const auto rule_start = std::chrono::steady_clock::now();
              CCDB_ASSIGN_OR_RETURN(
                  slot.rel,
                  EliminateQuantifiers(instantiated,
                                       static_cast<int>(rule.head_vars.size()),
                                       rule_qe, &slot.qe_stats));
              slot.us = ElapsedUs(rule_start);
              if (use_body_cache) {
                CCDB_METRIC_COUNT("datalog_body_cache_misses", 1);
                std::lock_guard<std::mutex> lock(body_cache_mu);
                body_cache.emplace(
                    instantiated.id(),
                    BodyMemo{instantiated, slot.rel, slot.qe_stats});
              }
              return slot;
            }));
    if (profile != nullptr) {
      ProfileNode round_node;
      round_node.label = "datalog.round[" + std::to_string(round) + "]";
      round_node.inclusive_us = ElapsedUs(round_start);
      round_node.AddCounter("rules", program.rules.size());
      if (delta_round) {
        round_node.AddCounter("delta_tuples", round_delta_tuples);
      }
      for (std::size_t i = 0; i < program.rules.size(); ++i) {
        // Children in rule order — deterministic shape at every thread
        // count regardless of which deltas fired; a rule whose delta join
        // was empty still gets its child, with zeroed counters.
        ProfileNode child;
        child.label = "rule[" + std::to_string(i) + "] " +
                      program.rules[i].head;
        child.inclusive_us = rule_slots[i].us;
        AddQeCounters(&child, rule_slots[i].qe_stats);
        child.AddCounter("tuples_out", rule_slots[i].rel.tuples().size());
        round_node.children.push_back(std::move(child));
      }
      profile->Add(std::move(round_node));
    }

    // Deltas for the NEXT round: everything this round's merge appends
    // beyond the sizes recorded here.
    std::map<std::string, std::size_t> next_delta_start;
    for (const auto& [name, rel] : *idb) {
      next_delta_start[name] = rel.tuples().size();
    }

    std::map<std::string, std::vector<GeneralizedTuple>> derived;
    for (std::size_t i = 0; i < program.rules.size(); ++i) {
      const DatalogRule& rule = program.rules[i];
      RuleSlot& slot = rule_slots[i];
      if (slot.skipped) {
        ++s->rules_skipped;
        continue;
      }
      ++s->qe_calls;
      s->max_bits = std::max(s->max_bits, slot.qe_stats.max_intermediate_bits);
      if (options.precision_k != 0 && s->max_bits > options.precision_k) {
        return Status::Undefined(
            "Datalog^F_QE: iteration needs integers of bit length " +
            std::to_string(s->max_bits) + " > k = " +
            std::to_string(options.precision_k));
      }
      auto& bucket = derived[rule.head];
      for (GeneralizedTuple& tuple : *slot.rel.mutable_tuples()) {
        bucket.push_back(std::move(tuple));
      }
    }
    for (auto& [name, tuples] : derived) {
      // Canonical index-order merge: the per-round candidate batch is
      // sorted structurally and deduplicated before the containment pass.
      // The semi-naive batch is the naive batch minus candidates that are
      // already present (their all-old derivations ran in an earlier
      // round), so after the sort both paths walk the surviving candidates
      // in the same order and append the same tuples — the anchor of the
      // semi-naive vs naive (Z_k) byte-identity contract, at every thread
      // count.
      std::sort(tuples.begin(), tuples.end());
      tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
      ConstraintRelation& current = idb->at(name);
      for (GeneralizedTuple& tuple : tuples) {
        CCDB_CHECK_BUDGET(gov, "datalog.iteration");
        CCDB_ASSIGN_OR_RETURN(
            bool contained,
            TupleContained(tuple, current, rule_qe, &s->qe_calls));
        if (contained) continue;
        if (gov != nullptr) {
          std::size_t bytes = 0;
          for (const Atom& atom : tuple.atoms) {
            bytes += atom.poly.EstimateBytes();
          }
          gov->ChargeBytes(bytes);
        }
        current.AddTuple(std::move(tuple));
        grew = true;
      }
      *current.mutable_tuples() =
          SimplifyTuples(std::move(*current.mutable_tuples()));
    }
    delta_start = std::move(next_delta_start);
    if (!grew) {
      s->reached_fixpoint = true;
      CCDB_METRIC_COUNT("datalog.fixpoints", 1);
      CCDB_METRIC_COUNT("datalog.qe_calls", s->qe_calls);
      return Status::Ok();
    }
  }
  CCDB_LOG(WARN) << "Datalog evaluation hit the iteration cap ("
                 << options.max_iterations << ") without reaching a fixpoint";
  return Status::OutOfRange(
      "Datalog evaluation did not reach a fixpoint within " +
      std::to_string(options.max_iterations) + " iterations");
}

}  // namespace

std::string DatalogStats::ToString() const {
  std::ostringstream out;
  out << "iterations=" << iterations
      << " fixpoint=" << (reached_fixpoint ? "yes" : "no")
      << " qe_calls=" << qe_calls << " max_bits=" << max_bits
      << " delta_tuples=" << delta_tuples
      << " rules_skipped=" << rules_skipped;
  return out.str();
}

std::string DatalogStats::ToJson() const {
  return JsonObjectBuilder()
      .Add("iterations", static_cast<std::int64_t>(iterations))
      .Add("reached_fixpoint", reached_fixpoint)
      .Add("qe_calls", qe_calls)
      .Add("max_bits", max_bits)
      .Add("delta_tuples", delta_tuples)
      .Add("rules_skipped", rules_skipped)
      .Build();
}

StatusOr<std::map<std::string, ConstraintRelation>> EvaluateDatalog(
    const DatalogProgram& program,
    const std::map<std::string, ConstraintRelation>& edb,
    const DatalogOptions& options, DatalogStats* stats) {
  CCDB_TRACE_SPAN("datalog.evaluate");
  CCDB_METRIC_COUNT("datalog.runs", 1);
  DatalogStats local;
  DatalogStats* s = stats != nullptr ? stats : &local;
  *s = DatalogStats();

  CCDB_RETURN_IF_ERROR(ValidateProgram(program, edb));
  std::map<std::string, ConstraintRelation> idb;
  for (const auto& [name, arity] : program.idb_arities) {
    idb.emplace(name, ConstraintRelation(arity));
  }
  // Z_k forces the naive path: the finite-precision verdict must observe
  // every intermediate the naive rounds would materialize, and skipped
  // delta joins would shrink max_bits.
  const bool seminaive = options.precision_k == 0;
  CCDB_RETURN_IF_ERROR(RunFixpoint(program, edb, &idb, {}, /*resumed=*/false,
                                   seminaive, options, s));
  return idb;
}

StatusOr<std::map<std::string, ConstraintRelation>> ResumeDatalog(
    const DatalogProgram& program,
    const std::map<std::string, ConstraintRelation>& edb,
    DatalogFixpointState* state, const DatalogOptions& options,
    DatalogStats* stats) {
  CCDB_TRACE_SPAN("datalog.resume");
  CCDB_METRIC_COUNT("datalog.resumes", 1);
  DatalogStats local;
  DatalogStats* s = stats != nullptr ? stats : &local;
  *s = DatalogStats();

  CCDB_RETURN_IF_ERROR(ValidateProgram(program, edb));
  if (options.precision_k != 0) {
    return Status::InvalidArgument(
        "incremental re-fixpoint is undefined under Z_k: the bit-length "
        "verdict depends on the naive rounds");
  }
  for (const DatalogRule& rule : program.rules) {
    for (const DatalogLiteral& lit : rule.body) {
      if (lit.is_relation && lit.negated) {
        return Status::InvalidArgument(
            "incremental re-fixpoint refused: rule for " + rule.head +
            " uses negation, and the inflationary fixpoint is not monotone "
            "in the EDB under negation");
      }
    }
  }
  for (const auto& [name, arity] : program.idb_arities) {
    auto it = state->idb.find(name);
    if (it == state->idb.end() || it->second.arity() != arity) {
      return Status::InvalidArgument(
          "fixpoint state does not cover IDB relation " + name);
    }
  }
  std::map<std::string, std::size_t> seed;
  for (const auto& [name, rel] : edb) {
    auto it = state->edb_sizes.find(name);
    const std::size_t old_size = it == state->edb_sizes.end() ? 0 : it->second;
    if (old_size > rel.tuples().size()) {
      return Status::InvalidArgument(
          "EDB relation " + name +
          " shrank since the fixpoint state was materialized");
    }
    if (old_size < rel.tuples().size()) seed[name] = old_size;
  }

  std::map<std::string, ConstraintRelation> idb = state->idb;
  CCDB_RETURN_IF_ERROR(RunFixpoint(program, edb, &idb, std::move(seed),
                                   /*resumed=*/true, /*seminaive=*/true,
                                   options, s));
  state->idb = idb;
  state->edb_sizes.clear();
  for (const auto& [name, rel] : edb) {
    state->edb_sizes[name] = rel.tuples().size();
  }
  return idb;
}

}  // namespace ccdb
