#ifndef CCDB_BENCH_BENCH_UTIL_H_
#define CCDB_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harness: wall-clock timing, table
// printing in the EXPERIMENTS.md format, and synthetic workload
// generators over the class K_{d,m} of the paper (constraint databases
// with at most m distinct polynomials of degree at most d).

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/resource.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "constraint/atom.h"
#include "constraint/formula.h"
#include "poly/polynomial.h"
#include "poly/upoly.h"

namespace ccdb_bench {

/// Per-cell deadline of the run in seconds; 0 = ungoverned (set by the
/// `--deadline-ms=` flag or the CCDB_BENCH_DEADLINE_MS env var).
inline double& BenchDeadlineSeconds() {
  static double deadline = 0.0;
  return deadline;
}

/// Worker count of the run (set by `--threads=N` or CCDB_THREADS; defaults
/// to 1 = the serial engine). Also the value of the JSON report's
/// "threads" column, so sweep runs at several widths can be merged into
/// one speedup plot.
inline int& BenchThreads() {
  static int threads = ccdb::ThreadPool::DefaultThreads();
  return threads;
}

/// The pool every bench cell should hand to QeOptions/DatalogOptions —
/// the process-wide shared pool, sized by InitBenchTracing.
inline ccdb::ThreadPool* Pool() { return ccdb::ThreadPool::Shared(); }

/// Whether `--profile` was passed: span tracing is enabled for the whole
/// run and the aggregated span profile (base/profile.h) is printed to
/// stderr at exit, flamegraph-style — one line per call path with count
/// and inclusive/exclusive totals.
inline bool& BenchProfileEnabled() {
  static bool enabled = false;
  return enabled;
}

/// Destination of the run record written by WriteRunRecord (set by
/// `--bench-out=<path>` or CCDB_BENCH_OUT); "" = `BENCH_<name>.json` in
/// the current directory.
inline std::string& BenchOutPath() {
  static std::string path;
  return path;
}

/// Processes the standard harness flags. Call first thing in main().
/// There are no engine toggles: the memo caches and semi-naive Datalog are
/// always on, and a bench that wants a cold run clears the caches itself.
///
///   --trace-out=<file>    (or CCDB_TRACE_OUT) span tracing for the run,
///                         written as a Chrome trace_event JSON at exit
///   --deadline-ms=<N>     (or CCDB_BENCH_DEADLINE_MS) per-cell resource
///                         deadline: cells run under a ResourceGovernor
///                         (GovernedCell) and report `null` instead of a
///                         timing when the budget is exhausted
///   --threads=<N>         (or CCDB_THREADS) size the process-wide worker
///                         pool; N = total runners, 1 = serial. Results
///                         are identical at every N (see DESIGN.md), only
///                         the timings change.
///   --profile             enable span tracing and print the aggregated
///                         span profile (path -> count, inclusive µs,
///                         exclusive µs) to stderr at exit
///   --bench-out=<path>    (or CCDB_BENCH_OUT) where WriteRunRecord puts
///                         the BENCH_<name>.json run record
inline void InitBenchTracing(int argc, char** argv) {
  static std::string trace_path;
  if (const char* env = std::getenv("CCDB_TRACE_OUT")) trace_path = env;
  if (const char* env = std::getenv("CCDB_BENCH_DEADLINE_MS")) {
    BenchDeadlineSeconds() = std::atof(env) / 1e3;
  }
  if (const char* env = std::getenv("CCDB_BENCH_OUT")) BenchOutPath() = env;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--trace-out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      trace_path = argv[i] + (sizeof(kFlag) - 1);
    }
    constexpr const char kDeadlineFlag[] = "--deadline-ms=";
    if (std::strncmp(argv[i], kDeadlineFlag, sizeof(kDeadlineFlag) - 1) ==
        0) {
      BenchDeadlineSeconds() =
          std::atof(argv[i] + (sizeof(kDeadlineFlag) - 1)) / 1e3;
    }
    constexpr const char kThreadsFlag[] = "--threads=";
    if (std::strncmp(argv[i], kThreadsFlag, sizeof(kThreadsFlag) - 1) == 0) {
      BenchThreads() = std::atoi(argv[i] + (sizeof(kThreadsFlag) - 1));
    }
    if (std::strcmp(argv[i], "--profile") == 0) BenchProfileEnabled() = true;
    constexpr const char kBenchOutFlag[] = "--bench-out=";
    if (std::strncmp(argv[i], kBenchOutFlag, sizeof(kBenchOutFlag) - 1) ==
        0) {
      BenchOutPath() = argv[i] + (sizeof(kBenchOutFlag) - 1);
    }
  }
  if (BenchThreads() < 1) BenchThreads() = 1;
  ccdb::ThreadPool::ConfigureShared(BenchThreads());
  if (BenchProfileEnabled()) {
    ccdb::Tracer::Global().SetEnabled(true);
    std::atexit(+[] {
      ccdb::SpanProfile profile = ccdb::BuildSpanProfile();
      std::fprintf(stderr, "%s", profile.ToString().c_str());
    });
  }
  if (trace_path.empty()) return;
  ccdb::Tracer::Global().SetEnabled(true);
  std::atexit(+[] {
    ccdb::Status status = ccdb::Tracer::Global().WriteChromeTrace(trace_path);
    if (status.ok()) {
      std::fprintf(stderr, "trace: wrote %zu span(s) to %s\n",
                   ccdb::Tracer::Global().size(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    }
  });
}

/// Runs one bench cell under the harness deadline (when set) and returns
/// its wall time — or nullopt when the budget was exhausted. The body
/// receives the cell's governor (null when ungoverned) and reports
/// failure by returning a non-OK status; non-exhaustion errors abort the
/// bench (they are bugs, not budget verdicts).
inline std::optional<double> GovernedCell(
    const std::function<ccdb::Status(const ccdb::ResourceGovernor*)>& body) {
  double deadline = BenchDeadlineSeconds();
  std::optional<ccdb::ResourceGovernor> governor;
  if (deadline > 0.0) {
    governor.emplace(ccdb::ResourceLimits::Deadline(deadline));
  }
  auto start = std::chrono::steady_clock::now();
  ccdb::Status status = body(governor ? &*governor : nullptr);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (status.ok()) return seconds;
  CCDB_CHECK_MSG(status.code() == ccdb::StatusCode::kResourceExhausted,
                 status.ToString().c_str());
  return std::nullopt;
}

/// Renders a timing cell for the JSON report: milliseconds, or `null` for
/// a cell that exhausted its budget (so downstream plots can gap it
/// instead of charting a lie).
inline std::string JsonCell(const std::optional<double>& seconds) {
  if (!seconds.has_value()) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", *seconds * 1e3);
  return buffer;
}

/// Renders a printf table cell: "12.345" ms or "exhausted".
inline std::string TableCell(const std::optional<double>& seconds) {
  if (!seconds.has_value()) return "exhausted";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", *seconds * 1e3);
  return buffer;
}

/// Collects `{"cell": <name>, "threads": <N>,
/// "ms": <value-or-null>, "qe_cache_hit_rate":
/// <rate-or-null>, "formula_nodes": <N>, "poly_nodes": <N>}` rows; the
/// report is printed as one JSON array line at exit (after the
/// human-readable table), machine-readable for the experiment plots. The
/// "threads" column lets a sweep (`--threads=1`, `--threads=8`, ...)
/// concatenate its reports into one speedup table. The hit rate is per
/// cell (delta of the qe_cache hit/miss counters since the previous RecordCell, null when the cell
/// never consulted the cache); the node counts are the live hash-consed
/// formula arena and interned polynomial pool sizes at record time.
inline std::vector<std::string>& JsonReportRows() {
  // Leaked on purpose: must stay alive for the atexit printer.
  static auto* rows = new std::vector<std::string>();
  return *rows;
}

/// Registers the atexit hook that prints the `json: [...]` report line
/// (idempotent; shared by RecordCell and RecordLatencyCell).
inline void EnsureJsonReportPrinter() {
  static bool hooked = [] {
    std::atexit(+[] {
      std::printf("json: [");
      const std::vector<std::string>& rows = JsonReportRows();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%s%s", i > 0 ? ", " : "", rows[i].c_str());
      }
      std::printf("]\n");
    });
    return true;
  }();
  (void)hooked;
}

inline void RecordCell(const std::string& name,
                       const std::optional<double>& seconds) {
  EnsureJsonReportPrinter();
  static ccdb::Counter* hits =
      ccdb::MetricsRegistry::Global().GetCounter("qe_cache_hits");
  static ccdb::Counter* misses =
      ccdb::MetricsRegistry::Global().GetCounter("qe_cache_misses");
  static std::uint64_t prev_hits = hits->value();
  static std::uint64_t prev_misses = misses->value();
  std::uint64_t cell_hits = hits->value() - prev_hits;
  std::uint64_t cell_misses = misses->value() - prev_misses;
  prev_hits = hits->value();
  prev_misses = misses->value();
  std::string hit_rate = "null";
  if (cell_hits + cell_misses > 0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4f",
                  static_cast<double>(cell_hits) /
                      static_cast<double>(cell_hits + cell_misses));
    hit_rate = buffer;
  }
  ccdb::FormulaArenaStats arena = ccdb::GetFormulaArenaStats();
  ccdb::PolyInternStats poly = ccdb::GetPolyInternStats();
  JsonReportRows().push_back(
      "{\"cell\": \"" + name +
      "\", \"threads\": " + std::to_string(BenchThreads()) +
      ", \"ms\": " + JsonCell(seconds) +
      ", \"qe_cache_hit_rate\": " + hit_rate +
      ", \"formula_nodes\": " + std::to_string(arena.live_nodes) +
      ", \"poly_nodes\": " + std::to_string(poly.entries) + "}");
}

/// Records a repeated-measurement cell: every sample is fed to the
/// registry histogram `bench.<cell>.us`, so MetricsRegistry::SnapshotJson
/// and this report share one estimator, and the row carries the mean plus
/// interpolated p50/p90/p99 (Histogram::Percentile over the power-of-two
/// microsecond buckets) as `p50_ms`/`p90_ms`/`p99_ms` columns.
inline void RecordLatencyCell(const std::string& name,
                              const std::vector<double>& samples_seconds) {
  EnsureJsonReportPrinter();
  ccdb::Histogram* hist =
      ccdb::MetricsRegistry::Global().GetHistogram("bench." + name + ".us");
  double total = 0.0;
  for (double s : samples_seconds) {
    hist->Record(static_cast<std::uint64_t>(s * 1e6));
    total += s;
  }
  double mean_ms =
      samples_seconds.empty()
          ? 0.0
          : total / static_cast<double>(samples_seconds.size()) * 1e3;
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cell\": \"%s\", \"threads\": %d, "
                "\"ms\": %.6f, \"samples\": %zu, "
                "\"p50_ms\": %.6f, \"p90_ms\": %.6f, \"p99_ms\": %.6f}",
                name.c_str(), BenchThreads(), mean_ms, samples_seconds.size(),
                hist->Percentile(0.50) / 1e3, hist->Percentile(0.90) / 1e3,
                hist->Percentile(0.99) / 1e3);
  JsonReportRows().push_back(buffer);
}

/// Writes the canonical run record `BENCH_<name>.json` (schema_version 1;
/// DESIGN.md §12): the harness configuration plus every recorded row, in
/// record order. Call at the end of a bench's main() so the trajectory of
/// a bench across commits is a diffable committed artifact. The path is
/// overridden by `--bench-out=` / CCDB_BENCH_OUT;
/// scripts/check_bench_schema.py validates the schema.
inline void WriteRunRecord(const std::string& name) {
  std::string path =
      BenchOutPath().empty() ? "BENCH_" + name + ".json" : BenchOutPath();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"bench\": \"%s\",\n"
               "  \"threads\": %d,\n"
               "  \"rows\": [\n",
               name.c_str(), BenchThreads());
  const std::vector<std::string>& rows = JsonReportRows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "    %s%s\n", rows[i].c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "bench: wrote run record %s (%zu row(s))\n",
               path.c_str(), rows.size());
}

inline double TimeSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

inline void Header(const std::string& experiment, const std::string& claim) {
  std::printf("=======================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("=======================================================\n");
}

inline void Row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

/// Random band relation over (x, y): a union of `tuples` generalized
/// tuples "a*x + b*y + c <= 0 and bounds", linear, with coefficient bit
/// length ~ `bits`.
inline ccdb::ConstraintRelation RandomLinearRelation(int tuples, int bits,
                                                     std::uint64_t seed,
                                                     bool bounded = true) {
  std::mt19937_64 rng(seed);
  std::int64_t bound = (1ll << std::min(bits, 40)) - 1;
  std::uniform_int_distribution<std::int64_t> dist(-bound, bound);
  ccdb::ConstraintRelation rel(2);
  for (int t = 0; t < tuples; ++t) {
    ccdb::GeneralizedTuple tuple;
    std::int64_t a = dist(rng), b = dist(rng), c = dist(rng);
    if (a == 0 && b == 0) a = 1;
    tuple.atoms.emplace_back(
        ccdb::Polynomial(a) * ccdb::Polynomial::Var(0) +
            ccdb::Polynomial(b) * ccdb::Polynomial::Var(1) +
            ccdb::Polynomial(c),
        ccdb::RelOp::kLe);
    // Keep every tuple bounded so aggregates stay defined. Unbounded
    // single-atom tuples keep DNF negation linear (for forall workloads).
    if (bounded)
    tuple.atoms.emplace_back(ccdb::Polynomial::Var(0).Pow(1) -
                                 ccdb::Polynomial(100),
                             ccdb::RelOp::kLe);
    if (bounded) {
      tuple.atoms.emplace_back(-ccdb::Polynomial::Var(0) -
                                   ccdb::Polynomial(100),
                               ccdb::RelOp::kLe);
      tuple.atoms.emplace_back(ccdb::Polynomial::Var(1) -
                                   ccdb::Polynomial(100),
                               ccdb::RelOp::kLe);
      tuple.atoms.emplace_back(-ccdb::Polynomial::Var(1) -
                                   ccdb::Polynomial(100),
                               ccdb::RelOp::kLe);
    }
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

/// Random univariate polynomial with `degree` and coefficients of bit
/// length ~ `bits`, guaranteed nonzero leading coefficient.
inline ccdb::UPoly RandomUPoly(int degree, int bits, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::int64_t bound = (1ll << std::min(bits, 40)) - 1;
  std::uniform_int_distribution<std::int64_t> dist(-bound, bound);
  std::vector<ccdb::Rational> coeffs;
  for (int i = 0; i <= degree; ++i) {
    coeffs.emplace_back(ccdb::BigInt(dist(rng)));
  }
  if (coeffs.back().is_zero()) coeffs.back() = ccdb::Rational(1);
  return ccdb::UPoly(std::move(coeffs));
}

}  // namespace ccdb_bench

#endif  // CCDB_BENCH_BENCH_UTIL_H_
