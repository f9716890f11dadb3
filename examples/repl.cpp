// Interactive constraint-database shell.
//
//   $ ./example_repl
//   ccdb> S(x, y) := 4*x^2 - y - 20*x + 25 <= 0
//   ok: stored S/2
//   ccdb> exists y (S(x, y) and y <= 0)
//   x: (2*x - 5 = 0)
//   ccdb> SURFACE[x, y](S(x, y) and y <= 9)(z)
//   z = 18 (exact)
//   ccdb> .solve exists y (S(x, y) and y <= 0)
//   (5/2)
//
// Commands:
//   Name(cols) := formula     define a relation
//   <CALC_F formula>          evaluate a query (closed-form output)
//   .solve <formula>          numerical evaluation (finite answer sets)
//   .fp <k> <formula>         finite-precision evaluation under Z_k
//   .explain <formula>        per-stage profile of the Figure-1 pipeline
//   .profile [formula]        EXPLAIN ANALYZE: execute and print the
//                             query's span tree (defaults to the last
//                             query text)
//   .plan <formula>           print the query plan without executing
//   .log [on [path]|off]      structured JSONL query log
//   .config                   resolved EngineConfig (every CCDB_* knob)
//   .stats                    process-wide metrics snapshot (JSON)
//   .trace <on|off|path>      span tracing / Chrome trace export
//   .checkpoint               fold the WAL into a checkpoint (durable mode)
//   .insert Name(cols) := formula   append tuples to an existing relation
//   .deps <formula>           relations the query reads, with versions
//   .list | .show <name> | .drop <name>
//   .save <path> | .load <path>
//   .help | .quit
//
// Started as `example_repl <dir>`, the shell opens a crash-safe durable
// database rooted at <dir> (ConstraintDatabase::OpenDurable): definitions
// and drops are write-ahead logged and survive a crash; recovery happens
// at startup and is summarized before the first prompt. The WAL fsync
// policy comes from CCDB_WAL_FSYNC (always|batch|off).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "base/config.h"
#include "base/metrics.h"
#include "base/query_log.h"
#include "base/trace.h"
#include "constraint/formula.h"
#include "engine/database.h"
#include "poly/polynomial.h"
#include "qe/qe_cache.h"

namespace {

// Set by the SIGINT handler; each governed query charges against it, so
// Ctrl-C cancels the running evaluation instead of killing the shell.
std::atomic<bool> g_interrupted{false};

extern "C" void HandleSigint(int) { g_interrupted.store(true); }

// Deadline of every query, the whole call; 0 = unlimited (.deadline).
double g_deadline_seconds = 0.0;

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  Name(cols) := formula   define a relation\n"
      "  <formula>               evaluate a CALC_F query\n"
      "  .solve <formula>        epsilon-approximate a finite answer set\n"
      "  .fp <k> <formula>       finite-precision query under Z_k\n"
      "  .explain <formula>      per-stage profile (Figure-1 pipeline)\n"
      "  .profile [formula]      EXPLAIN ANALYZE: the query's span tree\n"
      "                          (plan nodes, CAD phases) with times\n"
      "                          (no formula = profile the last query)\n"
      "  .plan <formula>         print the query plan without executing\n"
      "  .log on [path]          start the JSONL query log (default\n"
      "                          ccdb_query_log.jsonl; or CCDB_QUERY_LOG)\n"
      "  .log off | .log         stop logging / show the log status\n"
      "  .deadline <ms>          per-query deadline (0 = off); a query\n"
      "                          that runs out stops with RESOURCE_EXHAUSTED\n"
      "  .config                 the resolved engine configuration (every\n"
      "                          CCDB_* knob) and its fingerprint\n"
      "  .stats                  metrics snapshot as JSON\n"
      "  .trace on|off           toggle span tracing\n"
      "  .trace <path>           write collected spans as Chrome trace JSON\n"
      "  .checkpoint             fold the WAL into an atomic checkpoint\n"
      "                          (durable mode: start as example_repl <dir>)\n"
      "  .list                   list relations\n"
      "  .show <name>            print a relation's constraints\n"
      "  .drop <name>            remove a relation\n"
      "  .insert Name(cols) := formula\n"
      "                          append tuples to an existing relation\n"
      "                          (only queries reading Name are invalidated)\n"
      "  .deps <formula>         the query's read-set: each relation it\n"
      "                          reads, with its current version stamp\n"
      "  .save <path> / .load <path>\n"
      "  .help / .quit\n");
}

void RunQuery(const ccdb::ConstraintDatabase& db, const std::string& text) {
  ccdb::QueryPolicy policy;
  policy.limits = ccdb::ResourceLimits::Deadline(g_deadline_seconds);
  policy.cancel = &g_interrupted;
  auto result = db.QueryWithPolicy(text, policy);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result->has_scalar) {
    if (result->scalar.exact) {
      std::printf("%s = %s (exact)\n", result->column_names[0].c_str(),
                  result->scalar.exact_value.ToString().c_str());
    } else {
      std::printf("%s ~= %.9f (+-%.1e)\n", result->column_names[0].c_str(),
                  result->scalar.Value(), result->scalar.error_estimate);
    }
    return;
  }
  if (result->column_names.empty()) {
    std::printf("%s\n", result->relation.is_empty_syntactically() ? "false"
                                                                  : "true");
    return;
  }
  std::string header;
  for (std::size_t i = 0; i < result->column_names.size(); ++i) {
    if (i > 0) header += ", ";
    header += result->column_names[i];
  }
  std::printf("%s: %s\n", header.c_str(),
              result->relation.ToString(result->column_names).c_str());
}

void RunSolve(const ccdb::ConstraintDatabase& db, const std::string& text) {
  ccdb::Rational epsilon(ccdb::BigInt(1), ccdb::BigInt(1000000));
  auto solutions = db.Solve(text, epsilon);
  if (!solutions.ok()) {
    std::printf("error: %s\n", solutions.status().ToString().c_str());
    return;
  }
  if (solutions->empty()) {
    std::printf("no solutions\n");
    return;
  }
  for (const auto& point : *solutions) {
    std::string rendered = "(";
    for (std::size_t i = 0; i < point.size(); ++i) {
      if (i > 0) rendered += ", ";
      rendered += point[i].ToString();
    }
    std::printf("%s)\n", rendered.c_str());
  }
}

void RunExplain(const ccdb::ConstraintDatabase& db, const std::string& text) {
  auto explained = db.Explain(text);
  if (!explained.ok()) {
    std::printf("error: %s\n", explained.status().ToString().c_str());
    return;
  }
  std::printf("%s", explained->ToString().c_str());
}

// Last evaluated query text — `.profile` with no argument re-runs it under
// the profiler.
std::string g_last_query;

void RunProfile(const ccdb::ConstraintDatabase& db, const std::string& text) {
  if (text.empty()) {
    std::printf("no query to profile yet (run one, or .profile <formula>)\n");
    return;
  }
  auto analyzed = db.ExplainAnalyze(text);
  if (!analyzed.ok()) {
    std::printf("error: %s\n", analyzed.status().ToString().c_str());
    return;
  }
  std::printf("%s", analyzed->ToString().c_str());
}

void RunLog(const std::string& rest) {
  ccdb::QueryLog& log = ccdb::QueryLog::Global();
  if (rest.empty()) {
    if (log.enabled()) {
      std::printf("query log: on (%s, %llu record(s) written)\n",
                  log.path().c_str(),
                  static_cast<unsigned long long>(log.records_written()));
    } else {
      std::printf("query log: off\n");
    }
    return;
  }
  if (rest == "off") {
    log.Disable();
    std::printf("query log off\n");
    return;
  }
  std::string path = "ccdb_query_log.jsonl";
  if (rest.rfind("on", 0) == 0) {
    std::string arg = rest.substr(2);
    std::size_t begin = arg.find_first_not_of(" \t");
    if (begin != std::string::npos) path = arg.substr(begin);
  } else {
    std::printf("usage: .log [on [path] | off]\n");
    return;
  }
  ccdb::Status status = log.Enable(path);
  if (status.ok()) {
    std::printf("query log on: %s\n", path.c_str());
  } else {
    std::printf("error: %s\n", status.ToString().c_str());
  }
}

void RunPlan(const ccdb::ConstraintDatabase& db, const std::string& text) {
  auto plan = db.Plan(text);
  if (!plan.ok()) {
    std::printf("error: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("%s", plan->c_str());
}

void RunTrace(const std::string& rest) {
  ccdb::Tracer& tracer = ccdb::Tracer::Global();
  if (rest == "on") {
    tracer.SetEnabled(true);
    std::printf("tracing on\n");
  } else if (rest == "off") {
    tracer.SetEnabled(false);
    std::printf("tracing off\n");
  } else {
    ccdb::Status status = tracer.WriteChromeTrace(rest);
    if (status.ok()) {
      std::printf("wrote %zu span(s) to %s\n", tracer.size(), rest.c_str());
    } else {
      std::printf("error: %s\n", status.ToString().c_str());
    }
  }
}

void RunFp(const ccdb::ConstraintDatabase& db, const std::string& rest) {
  std::istringstream in(rest);
  unsigned k = 0;
  in >> k;
  std::string formula;
  std::getline(in, formula);
  if (k == 0 || formula.empty()) {
    std::printf("usage: .fp <k> <formula>\n");
    return;
  }
  ccdb::FpQeStats stats;
  auto result = db.QueryFp(formula, k, &stats);
  if (!result.ok()) {
    std::printf("%s (pipeline needed %llu bits)\n",
                result.status().ToString().c_str(),
                static_cast<unsigned long long>(stats.max_bits));
    return;
  }
  std::printf("defined under Z_%u (pipeline bits: %llu)\n", k,
              static_cast<unsigned long long>(stats.max_bits));
  std::printf("%s\n", result->relation.ToString(result->column_names).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Ctrl-C cancels the running query (cooperatively, via the governor)
  // rather than terminating the shell. SA_RESTART keeps the blocking
  // getline at the prompt from failing with EINTR.
  struct sigaction action = {};
  action.sa_handler = HandleSigint;
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);

  ccdb::ConstraintDatabase db;
  if (argc > 1) {
    auto opened = ccdb::ConstraintDatabase::OpenDurable(argv[1]);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open durable database %s: %s\n", argv[1],
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
    const ccdb::RecoveryInfo* recovery = db.recovery_info();
    std::printf("durable database: %s\n", argv[1]);
    if (!recovery->checkpoint_file.empty() || recovery->replayed_records > 0 ||
        recovery->torn_tail) {
      std::printf("recovered: checkpoint %s, %zu WAL record(s) replayed",
                  recovery->checkpoint_file.empty()
                      ? "(none)"
                      : recovery->checkpoint_file.c_str(),
                  recovery->replayed_records);
      if (recovery->torn_tail) {
        std::printf(", torn tail dropped (%llu byte(s))",
                    static_cast<unsigned long long>(recovery->torn_bytes));
      }
      std::printf("\n");
    }
  }
  std::printf("ccdb — constraint database shell (.help for commands)\n");
  std::string line;
  while (true) {
    std::printf("ccdb> ");
    std::fflush(stdout);
    g_interrupted.store(false);
    if (!std::getline(std::cin, line)) {
      std::printf("\n");  // clean EOF (Ctrl-D): end the line, exit 0
      break;
    }
    // Trim.
    std::size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    std::size_t end = line.find_last_not_of(" \t");
    line = line.substr(begin, end - begin + 1);
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      PrintHelp();
      continue;
    }
    if (line == ".list") {
      for (const std::string& name : db.RelationNames()) {
        auto rel = db.Relation(name);
        std::printf("  %s/%d\n", name.c_str(),
                    rel.ok() ? rel->arity() : -1);
      }
      continue;
    }
    if (line.rfind(".show ", 0) == 0) {
      std::string name = line.substr(6);
      auto rel = db.Relation(name);
      if (!rel.ok()) {
        std::printf("error: %s\n", rel.status().ToString().c_str());
      } else {
        std::printf("%s\n", rel->ToString().c_str());
      }
      continue;
    }
    if (line.rfind(".drop ", 0) == 0) {
      ccdb::Status status = db.Drop(line.substr(6));
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (line.rfind(".insert ", 0) == 0) {
      ccdb::Status status = db.Insert(line.substr(8));
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (line.rfind(".deps ", 0) == 0) {
      auto read_set = db.ReadSet(line.substr(6));
      if (!read_set.ok()) {
        std::printf("error: %s\n", read_set.status().ToString().c_str());
      } else if (read_set->empty()) {
        std::printf("reads no relations\n");
      } else {
        for (const auto& [name, version] : *read_set) {
          std::printf("  %s  v%llu%s\n", name.c_str(),
                      static_cast<unsigned long long>(version),
                      version == 0 ? "  (not defined)" : "");
        }
      }
      continue;
    }
    if (line.rfind(".save ", 0) == 0) {
      ccdb::Status status = db.Save(line.substr(6));
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (line.rfind(".load ", 0) == 0) {
      ccdb::Status status = db.Load(line.substr(6));
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (line.rfind(".deadline", 0) == 0) {
      std::istringstream in(line.substr(9));
      double ms = -1.0;
      in >> ms;
      if (ms < 0.0) {
        if (g_deadline_seconds > 0.0) {
          std::printf("deadline: %.0f ms\n", g_deadline_seconds * 1e3);
        } else {
          std::printf("deadline: off\n");
        }
      } else {
        g_deadline_seconds = ms / 1e3;
        if (ms > 0.0) {
          std::printf("deadline set to %.0f ms\n", ms);
        } else {
          std::printf("deadline off\n");
        }
      }
      continue;
    }
    if (line.rfind(".solve ", 0) == 0) {
      RunSolve(db, line.substr(7));
      continue;
    }
    if (line.rfind(".fp ", 0) == 0) {
      RunFp(db, line.substr(4));
      continue;
    }
    if (line.rfind(".explain ", 0) == 0) {
      RunExplain(db, line.substr(9));
      continue;
    }
    if (line.rfind(".plan ", 0) == 0) {
      RunPlan(db, line.substr(6));
      continue;
    }
    if (line == ".profile" || line.rfind(".profile ", 0) == 0) {
      std::string text =
          line.size() > 8 ? line.substr(9) : g_last_query;
      RunProfile(db, text);
      if (!text.empty()) g_last_query = text;
      continue;
    }
    if (line == ".log" || line.rfind(".log ", 0) == 0) {
      RunLog(line.size() > 4 ? line.substr(5) : "");
      continue;
    }
    if (line == ".config") {
      std::printf("%s", ccdb::EngineConfig::Process().ToString().c_str());
      continue;
    }
    if (line == ".stats") {
      std::printf("%s\n",
                  ccdb::MetricsRegistry::Global().SnapshotJson().c_str());
      ccdb::FormulaArenaStats arena = ccdb::GetFormulaArenaStats();
      ccdb::PolyInternStats poly = ccdb::GetPolyInternStats();
      std::printf(
          "interned IR: formula arena %zu live / %zu ever interned, "
          "%zu interned polynomials, qe cache %zu entries\n",
          arena.live_nodes, arena.total_interned, poly.entries,
          ccdb::QeResultCache().size());
      continue;
    }
    if (line.rfind(".trace ", 0) == 0) {
      RunTrace(line.substr(7));
      continue;
    }
    if (line == ".checkpoint") {
      ccdb::Status status = db.Checkpoint();
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (line[0] == '.') {
      std::printf("unknown command (try .help)\n");
      continue;
    }
    // Relation definition or query?
    if (line.find(":=") != std::string::npos) {
      ccdb::Status status = db.Define(line);
      if (status.ok()) {
        std::printf("ok\n");
      } else {
        std::printf("error: %s\n", status.ToString().c_str());
      }
      continue;
    }
    g_last_query = line;
    RunQuery(db, line);
  }
  return 0;
}
