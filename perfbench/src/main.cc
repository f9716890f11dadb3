// The ccdb end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--dir PATH] [--trace-out PATH] [--verbose 0|1]
//             [--setup-samples N] [--setup-only 1]
//
// Builds the workload's catalog on a fresh durable database in PATH, then
// runs its op stream with one client in a closed loop for S seconds,
// checking every answer against the workload's own oracle. It copies
// the open store, as a crash would leave it, after a fixed number of ops; at
// the end it recovers fresh copies of that image, then closes the store and
// reopens it. Each reopened catalog must equal the live one it was taken
// from. With --trace 1 the loop records a span around every engine call on
// top of the engine's own spans, and the run reports per-layer self times
// and counter deltas.
//
// The set-up time is sampled several times: the build of the store the loop
// runs on, and N more builds spread over the loop's S seconds, each by a
// child process (--setup-only 1) on a side store, so that they touch
// neither the loop's process-wide caches nor its peak RSS; the loop's clock
// stops while they run. Wall time on a shared machine drifts between speed
// levels that last seconds, so samples taken in one burst would all land on
// one level; spread out, they see the same mix of levels as the loop does,
// and their interquartile mean is setup_s.
//
// Prints a human-readable report, then one JSON line with every metric.
// --verbose 1 logs every op and its latency to stderr.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/trace.h"
#include "common.h"
#include "constraint/formula.h"
#include "poly/polynomial.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kRecoveryRepeats = 25;
// The op-text and answer digests cover this prefix of the stream.
constexpr int kDigestOps = 200;
// Peak RSS is read, and the crash image of the store taken, after this many
// measured ops, so both reflect a fixed amount of work rather than how many
// ops fit into the run.
constexpr std::size_t kSnapshotOps = 400;
// Traced runs fold the span buffer into per-layer times whenever it holds
// this many spans, far below the tracer's cap; the trace file keeps the
// spans of the last window.
constexpr std::size_t kFoldSpans = 250000;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Moves the calling thread round the CPUs it may run on, one slice of wall
// time on each. On a shared machine the CPUs run at different speeds that
// drift over seconds (the same catalog build took 17 to 31 ms on different
// CPUs at once, and 70 ms on one shared with another busy process), and the
// scheduler leaves one busy thread on one CPU, so a run would see that one
// CPU's speed. Going round every CPU, a run sees their mean. The slices
// follow the clock, so a process that starts half way round sits on another
// CPU than one that does not, at the same time.
class CpuRotation {
 public:
  explicit CpuRotation(bool half_way) {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    phase_ = half_way ? static_cast<long>(cpus_.size() / 2) : 0;
  }

  // Called between operations: moves on when a new slice has begun.
  void Tick() {
    if (cpus_.size() < 2) return;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const long slice = static_cast<long>(now / kSlice);
    if (slice == slice_) return;
    slice_ = slice;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(slice + phase_) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  static constexpr std::chrono::milliseconds kSlice{50};
  std::vector<int> cpus_;
  long phase_ = 0;
  long slice_ = -1;
};

// The mean of the middle half of `v` (its quartiles' interior). Unlike the
// median it does not jump between the levels of a two-level sample.
double InterquartileMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/perfbench-store";
  std::string trace_out;
  bool verbose = false;
  int setup_samples = 0;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--verbose") {
      args->verbose = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--setup-samples") {
      args->setup_samples = std::atoi(value.c_str());
    } else if (key == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "registry_linear") return MakeRegistryLinear(seed);
  if (name == "registry_curved") return MakeRegistryCurved(seed);
  if (name == "datalog_live") return MakeDatalogLive(seed);
  return nullptr;
}

// Opens a fresh durable store in `dir` and builds the workload's catalog on
// it; returns the time both took. Closing the previous database in `db` is
// not timed.
ccdb::StatusOr<double> BuildCatalog(const Args& args, const fs::path& dir,
                                    std::optional<ccdb::ConstraintDatabase>* db,
                                    std::unique_ptr<Workload>* workload) {
  db->reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto start = Clock::now();
  auto opened = ccdb::ConstraintDatabase::OpenDurable(dir.string());
  if (!opened.ok()) return opened.status();
  db->emplace(std::move(opened).value());
  *workload = MakeWorkload(args.workload, args.seed);
  CCDB_RETURN_IF_ERROR((*workload)->Setup(**db));
  return Seconds(Clock::now() - start);
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t FileBytes(const fs::path& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// The catalog as text: every relation's name and its tuples as a set (a
// relation's tuple order is not part of its meaning), in name order.
std::string CatalogText(const ccdb::ConstraintDatabase& db) {
  std::string text;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    if (!relation.ok()) return "?";
    std::vector<std::string> tuples;
    for (const ccdb::GeneralizedTuple& t : relation->tuples()) tuples.push_back(t.ToString());
    std::sort(tuples.begin(), tuples.end());
    text += name + "/" + std::to_string(relation->arity()) + "\n";
    for (const std::string& t : tuples) text += "  " + t + "\n";
  }
  return text;
}

// ---- per-layer attribution -------------------------------------------------

// Which layer a span belongs to. Benchmark spans (around each public call)
// and the engine's own spans are both mapped; a span's self time is its
// duration minus its children's. The aggregate modules have no span of
// their own: their time is part of query.calcf, calcf.evaluate's self time.
// engine.query is the facade's own time inside db.query and db.solve: the
// whole-query cache, read-sets, and whatever no deeper span covers.
// The benchmark spans around Query, Solve and Fixpoint wrap an engine span,
// so their self time is call time outside every engine span: kUnattributed.
// Writes, checkpoints and Contains have no engine span; the benchmark span
// around them is their layer.
constexpr char kUnattributed[] = "unattributed";

std::string LayerOf(const std::string& span) {
  static const std::map<std::string, std::string> kLayers = {
      {"engine.query", kUnattributed},
      {"engine.solve", kUnattributed},
      {"datalog.refresh", kUnattributed},
      {"db.query", "engine.query"},
      {"db.solve", "engine.query"},
      {"parse.formula", "query.parse"},
      {"parse.relation_def", "query.parse"},
      {"calcf.instantiate", "query.instantiate"},
      {"calcf.evaluate", "query.calcf"},
      {"qe.plan", "plan.build"},
      {"qe.plan.execute", "qe.execute"},
      {"qe.eliminate", "qe.execute"},
      {"qe.fourier_motzkin", "qe.execute"},
      {"qe.disjunct_split", "qe.execute"},
      {"qe.cad_path", "qe.execute"},
      {"cad.build", "qe.execute"},
      {"cad.projection", "qe.execute"},
      {"cad.base", "qe.execute"},
      {"cad.lift", "qe.execute"},
      {"numeric.evaluate", "numeric.solve"},
      {"numeric.approximate_solutions", "numeric.solve"},
      {"approx.approximate", "numeric.solve"},
      {"db.fixpoint", "datalog.refresh"},
      {"datalog.evaluate", "datalog.refresh"},
      {"datalog.resume", "datalog.refresh"},
      {"datalog.iteration", "datalog.refresh"},
      {"storage.write", "storage.write"},
      {"storage.checkpoint", "storage.checkpoint"},
      {"storage.contains", "storage.contains"},
  };
  auto it = kLayers.find(span);
  return it == kLayers.end() ? "other." + span : it->second;
}

struct LayerTime {
  double self_s = 0;
  std::uint64_t spans = 0;
};

// Adds the client thread's spans to per-layer self times. Spans nest
// properly on one thread; a child is any later-starting span that starts
// before its parent ends. `events` must hold whole ops.
void FoldSpans(std::vector<ccdb::TraceEvent> events, std::uint64_t thread,
               std::map<std::string, LayerTime>* layers) {
  std::erase_if(events, [&](const ccdb::TraceEvent& e) { return e.thread_id != thread; });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.timestamp_us != b.timestamp_us ? a.timestamp_us < b.timestamp_us
                                            : a.duration_us > b.duration_us;
  });
  std::vector<std::size_t> stack;
  std::vector<std::int64_t> child_us(events.size(), 0);
  auto close = [&](std::size_t i) {
    const ccdb::TraceEvent& e = events[i];
    LayerTime& t = (*layers)[LayerOf(e.name)];
    t.self_s += static_cast<double>(std::max<std::int64_t>(0, e.duration_us - child_us[i])) * 1e-6;
    t.spans += 1;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ccdb::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const ccdb::TraceEvent& top = events[stack.back()];
      if (e.timestamp_us < top.timestamp_us + top.duration_us) break;
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += e.duration_us;
    stack.push_back(i);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

double Delta(const std::map<std::string, std::uint64_t>& before,
             const std::map<std::string, std::uint64_t>& after, const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return static_cast<double>(a->second - (b == before.end() ? 0 : b->second));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- the run -----------------------------------------------------------------

struct Sample {
  OpClass op_class;
  double latency_s;
};

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Run(const Args& args) {
  const fs::path base(args.dir);
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base);
  const fs::path store = base / "store";

  if (MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // The catalog the loop runs on; its build is the first set-up sample.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  std::optional<ccdb::ConstraintDatabase> db;
  {
    auto built = BuildCatalog(args, store, &db, &workload);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.status().ToString().c_str());
      return 2;
    }
    setup_times.push_back(*built);
  }
  // One more set-up sample: a child process of this binary builds the
  // catalog on a side store and prints how long the build took.
  const std::string command = "'" + fs::read_symlink("/proc/self/exe").string() +
                              "' --workload " + args.workload + " --seed " +
                              std::to_string(args.seed) + " --setup-only 1 --dir '" +
                              (base / "side").string() + "'";
  auto sample_setup = [&]() {
    FILE* child = popen(command.c_str(), "r");
    if (child == nullptr) return false;
    double seconds = 0;
    const bool read = std::fscanf(child, "%lf", &seconds) == 1;
    if (pclose(child) != 0 || !read) return false;
    setup_times.push_back(seconds);
    return true;
  };

  Digest op_digest, answer_digest;
  long attempted = 0, failed = 0, digested = 0;
  std::string first_failure;
  struct FamilyStats {
    long ops = 0, failed = 0;
    std::vector<double> ms;
  };
  std::map<std::string, FamilyStats> families;
  std::uint64_t answer_tuples = 0, answer_atoms = 0, reach_tuples = 0, reach_atoms = 0;
  std::uint64_t delta_tuples = 0, wal_growth = 0, writes = 0, refreshes = 0;
  std::uint64_t evaluated_reads = 0, instantiated_tuples = 0;
  double peak_rss_mb = 0;
  // A copy of the open store is what a crash would leave: with fsync policy
  // always every acknowledged write is on disk, and the WAL holds what the
  // last checkpoint does not. recovery_s times reopening fresh copies of it.
  const fs::path image = base / "crash-image";
  std::string image_catalog;
  auto take_snapshot = [&]() {
    peak_rss_mb = PeakRssMb();
    fs::copy(store, image, fs::copy_options::recursive);
    image_catalog = CatalogText(*db);
  };
  const std::uint64_t client_thread = ccdb::TraceSpan::CurrentThreadId();
  std::map<std::string, LayerTime> layers;
  const fs::path wal = store / "wal.log";
  ccdb::Counter* query_cache_hits = ccdb::MetricsRegistry::Global().GetCounter("query_cache_hits");
  // Tuple counts of the relations queries read, by (name, version).
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> relation_tuples;
  // Traced runs: the tuples a read evaluated past the whole-query cache
  // instantiated, from its read-set (looked up after the clock stops).
  auto count_instantiated = [&](const Op& op) {
    auto read_set = db->ReadSet(op.text);
    if (!read_set.ok()) return;
    ++evaluated_reads;
    for (const auto& key : *read_set) {
      auto it = relation_tuples.find(key);
      if (it == relation_tuples.end()) {
        auto relation = db->Relation(key.first);
        it = relation_tuples.emplace(key, relation.ok() ? relation->tuples().size() : 0).first;
      }
      instantiated_tuples += it->second;
    }
  };

  std::vector<Sample> samples;
  auto execute = [&]() {
    Op op = workload->Next();
    std::uint64_t wal_before = args.trace && op.op_class == OpClass::kWrite ? FileBytes(wal) : 0;
    if (args.verbose) std::fprintf(stderr, "> %s\n", op.text.substr(0, 200).c_str());
    const std::uint64_t hits_before = query_cache_hits->value();
    auto start = Clock::now();
    std::function<Verdict()> check;
    {
      ccdb::TraceSpan span(op.span, "bench");
      check = op.call(*db);
    }
    double latency = Seconds(Clock::now() - start);
    const bool is_query = std::strcmp(op.span, "engine.query") == 0;
    if (args.trace && is_query && query_cache_hits->value() == hits_before) {
      count_instantiated(op);
    }
    Verdict v = check();
    if (args.verbose) {
      std::fprintf(stderr, "%-8s %-18s %10.3f ms %s\n", OpClassName(op.op_class), op.family,
                   latency * 1e3, v.ok && v.correct ? "" : v.detail.c_str());
    }
    if (args.trace && op.op_class == OpClass::kWrite) {
      std::uint64_t after = FileBytes(wal);
      if (after > wal_before) wal_growth += after - wal_before;
      ++writes;
    }
    if (op.op_class == OpClass::kRefresh) {
      ++refreshes;
      reach_tuples += v.tuples;
      reach_atoms += v.atoms;
      delta_tuples += v.delta_tuples;
    } else {
      answer_tuples += v.tuples;
      answer_atoms += v.atoms;
    }
    ++attempted;
    FamilyStats& fam = families[op.family];
    ++fam.ops;
    fam.ms.push_back(latency * 1e3);
    bool bad = !v.ok || !v.correct;
    if (bad) {
      ++failed;
      ++fam.failed;
      if (first_failure.empty()) {
        first_failure = std::string(op.family) + ": " + op.text.substr(0, 160) + " -> " + v.detail;
      }
    }
    if (digested < kDigestOps) {
      op_digest.Add(op.text);
      answer_digest.Add(v.canonical);
      ++digested;
    }
    samples.push_back({op.op_class, latency});
    if (samples.size() == kSnapshotOps) take_snapshot();
    if (args.trace && ccdb::Tracer::Global().size() >= kFoldSpans) {
      FoldSpans(ccdb::Tracer::Global().Events(), client_thread, &layers);
      ccdb::Tracer::Global().Clear();
    }
  };

  // ---- the measured loop ----
  // --setup-samples more set-up samples, spread evenly over the loop's
  // seconds; the loop's clock stops while one runs.
  auto& registry = ccdb::MetricsRegistry::Global();
  if (args.trace) {
    ccdb::Tracer::Global().Clear();
    ccdb::Tracer::Global().SetEnabled(true);
  }
  auto counters_before = registry.SnapshotValues();
  int setups_left = args.setup_samples;
  const double setup_interval_s = args.seconds / std::max(1, args.setup_samples);
  double paused_s = 0, next_setup_s = setup_interval_s / 2;
  // A traced run starts half way round, away from its untraced twin.
  CpuRotation rotation(/*half_way=*/args.trace);
  const auto loop_start = Clock::now();
  auto active_s = [&]() { return Seconds(Clock::now() - loop_start) - paused_s; };
  for (;;) {
    rotation.Tick();
    const double now = active_s();
    if (now >= args.seconds) break;
    if (setups_left > 0 && now >= next_setup_s) {
      const auto pause = Clock::now();
      if (!sample_setup()) {
        std::fprintf(stderr, "set-up sample failed: %s\n", command.c_str());
        return 2;
      }
      paused_s += Seconds(Clock::now() - pause);
      next_setup_s += setup_interval_s;
      --setups_left;
      continue;
    }
    execute();
  }
  const double loop_s = active_s();
  const double setup_s = InterquartileMean(setup_times);
  ccdb::Tracer::Global().SetEnabled(false);
  auto counters_after = registry.SnapshotValues();
  const double ops = static_cast<double>(samples.size());

  // ---- recovery from the crash image, then a clean close and reopen ----
  if (image_catalog.empty()) take_snapshot();  // a run shorter than kSnapshotOps
  auto check_reopened = [&](const ccdb::StatusOr<ccdb::ConstraintDatabase>& reopened,
                            const std::string& expected, const char* what) {
    ++attempted;
    if (!reopened.ok() || CatalogText(*reopened) != expected) {
      ++failed;
      if (first_failure.empty()) first_failure = std::string(what) + ": catalog differs";
    }
  };
  const fs::path replica = base / "replica";
  std::vector<double> recovery_times;
  for (int r = 0; r < kRecoveryRepeats; ++r) {
    rotation.Tick();
    fs::remove_all(replica, ec);
    fs::copy(image, replica, fs::copy_options::recursive);
    auto start = Clock::now();
    auto reopened = ccdb::ConstraintDatabase::OpenDurable(replica.string());
    recovery_times.push_back(Seconds(Clock::now() - start));
    if (r == 0) check_reopened(reopened, image_catalog, "crash recovery");
  }
  const std::string live_catalog = CatalogText(*db);
  db.reset();  // a clean close: the close-time checkpoint folds the WAL in
  const double store_bytes = static_cast<double>(DirBytes(store));
  check_reopened(ccdb::ConstraintDatabase::OpenDurable(store.string()), live_catalog,
                 "clean reopen");

  // ---- report ----
  std::map<OpClass, std::vector<double>> lat;
  for (const Sample& s : samples) lat[s.op_class].push_back(s.latency_s * 1e3);

  std::printf("workload %s seed %llu: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");
  std::printf("setup %.4f s, interquartile mean of %zu catalog builds on fresh stores (ms, in "
              "order:",
              setup_s, setup_times.size());
  for (double t : setup_times) std::printf(" %.2f", t * 1e3);
  std::printf(")\n");
  std::printf("loop %.3f s, %.0f ops, %.1f ops/s, one client, closed loop\n", loop_s, ops,
              ops / loop_s);
  for (auto& [cls, values] : lat) {
    std::printf("  %-8s n=%-6zu p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
                OpClassName(cls), values.size(), Quantile(values, 0.5), Quantile(values, 0.9),
                Quantile(values, 0.99), Quantile(values, 1.0));
  }
  for (const auto& [family, f] : families) {
    std::printf("  family %-20s ops %-6ld failed %-4ld p50 %.3f ms  max %.3f ms\n",
                family.c_str(), f.ops, f.failed, Quantile(f.ms, 0.5), Quantile(f.ms, 1.0));
  }
  std::printf("digest ops=%s answers=%s over=%ld\n", op_digest.Hex().c_str(),
              answer_digest.Hex().c_str(), digested);
  if (!first_failure.empty()) std::printf("first failure: %s\n", first_failure.c_str());

  JsonMetrics m;
  m.Add("setup_s", setup_s, "s");
  m.Add("ops_per_s", ops / loop_s, "1/s");
  m.Add("read_p50_ms", Quantile(lat[OpClass::kRead], 0.5), "ms");
  m.Add("read_p99_ms", Quantile(lat[OpClass::kRead], 0.99), "ms");
  m.Add("write_p50_ms", Quantile(lat[OpClass::kWrite], 0.5), "ms");
  m.Add("write_p90_ms", Quantile(lat[OpClass::kWrite], 0.9), "ms");
  m.Add("refresh_p50_ms", Quantile(lat[OpClass::kRefresh], 0.5), "ms");
  m.Add("refresh_p90_ms", Quantile(lat[OpClass::kRefresh], 0.9), "ms");
  m.Add("recovery_s", Median(recovery_times), "s");
  m.Add("failed_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("store_bytes_per_user_byte",
        Ratio(store_bytes, static_cast<double>(workload->live_bytes())), "B/B");

  if (args.trace) {
    if (!args.trace_out.empty()) {
      ccdb::Status st = ccdb::Tracer::Global().WriteChromeTrace(args.trace_out);
      if (!st.ok()) std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    }
    FoldSpans(ccdb::Tracer::Global().Events(), client_thread, &layers);
    // Coverage counts the layers below the facade: neither the facade's own
    // time, nor call time outside every engine span, nor unmapped spans.
    double covered = 0;
    std::printf("per-layer self time (client thread), %.3f s loop:\n", loop_s);
    std::printf("  %-22s %10s %8s %8s %10s\n", "layer", "self ms", "spans", "share", "ms/op");
    for (const auto& [layer, t] : layers) {
      if (layer != kUnattributed && layer != "engine.query" && !layer.starts_with("other.")) {
        covered += t.self_s;
      }
      std::printf("  %-22s %10.2f %8llu %7.1f%% %10.4f\n", layer.c_str(), t.self_s * 1e3,
                  static_cast<unsigned long long>(t.spans), 100.0 * t.self_s / loop_s,
                  t.self_s * 1e3 / ops);
    }
    const double coverage = covered / loop_s;
    std::printf("layer self time covers %.1f%% of the traced loop; %llu spans dropped\n",
                100.0 * coverage,
                static_cast<unsigned long long>(ccdb::Tracer::Global().dropped()));
    auto layer_ms = [&](const char* layer) {
      auto it = layers.find(layer);
      return it == layers.end() ? 0.0 : it->second.self_s * 1e3 / ops;
    };
    auto d = [&](const char* name) { return Delta(counters_before, counters_after, name); };
    auto hit_ratio = [&](const std::string& prefix) {
      return Ratio(d((prefix + "_hits").c_str()),
                   d((prefix + "_hits").c_str()) + d((prefix + "_misses").c_str()));
    };
    m.Add("query.parse_ms", layer_ms("query.parse"), "ms");
    m.Add("query.instantiate_ms", layer_ms("query.instantiate"), "ms");
    m.Add("plan.build_ms", layer_ms("plan.build"), "ms");
    m.Add("qe.execute_ms", layer_ms("qe.execute"), "ms");
    m.Add("engine.query_ms", layer_ms("engine.query"), "ms");
    m.Add("query.calcf_ms", layer_ms("query.calcf"), "ms");
    m.Add("numeric.solve_ms", layer_ms("numeric.solve"), "ms");
    m.Add("datalog.refresh_ms", layer_ms("datalog.refresh"), "ms");
    m.Add("storage.write_ms", layer_ms("storage.write"), "ms");
    m.Add("storage.checkpoint_ms", layer_ms("storage.checkpoint"), "ms");
    m.Add("storage.contains_ms", layer_ms("storage.contains"), "ms");
    m.Add("trace.coverage", coverage, "ratio");
    m.Add("query.instantiated_tuples",
          Ratio(static_cast<double>(instantiated_tuples), static_cast<double>(evaluated_reads)),
          "count");
    m.Add("plan.blocks", Ratio(d("qe.plan.blocks"), d("qe.plan.executions")), "count");
    m.Add("plan.cache_hit_ratio", hit_ratio("plan_cache"), "ratio");
    m.Add("qe.fm_rounds", Ratio(d("fm.rounds"), ops), "count");
    m.Add("qe.fm_constraints", Ratio(d("fm.constraints_generated"), ops), "count");
    m.Add("qe.atoms_per_output_tuple",
          Ratio(static_cast<double>(answer_atoms), static_cast<double>(answer_tuples)), "count");
    m.Add("qe.cad_cells", Ratio(d("qe.cad.cells"), ops), "count");
    m.Add("qe.projection_factors", Ratio(d("qe.cad.projection_factors"), ops), "count");
    m.Add("qe.resultants", Ratio(d("cad.resultants"), ops), "count");
    m.Add("qe.discriminants", Ratio(d("cad.discriminants"), ops), "count");
    auto bits = counters_after.find("qe.max_intermediate_bits");
    m.Add("qe.max_intermediate_bits",
          bits == counters_after.end() ? 0.0 : static_cast<double>(bits->second), "bits");
    m.Add("qe.cache_hit_ratio", hit_ratio("qe_cache"), "ratio");
    m.Add("poly.resultant_cache_hit_ratio", hit_ratio("resultant_cache"), "ratio");
    m.Add("numeric.points", Ratio(d("numeric.points_approximated"), ops), "count");
    m.Add("agg.module_calls", Ratio(d("agg.module_calls"), ops), "count");
    const double refresh_n = static_cast<double>(refreshes);
    m.Add("datalog.iterations", Ratio(d("datalog.iterations"), refresh_n), "count");
    m.Add("datalog.delta_tuples", Ratio(static_cast<double>(delta_tuples), refresh_n), "count");
    m.Add("datalog.resume_ratio",
          Ratio(d("datalog_fixpoint_resumes"), d("datalog_fixpoint_hits") +
                                                   d("datalog_fixpoint_resumes") +
                                                   d("datalog_fixpoint_recomputes")),
          "ratio");
    m.Add("datalog.atoms_per_tuple",
          Ratio(static_cast<double>(reach_atoms), static_cast<double>(reach_tuples)), "count");
    m.Add("storage.wal_bytes_per_write",
          Ratio(static_cast<double>(wal_growth), static_cast<double>(writes)), "B");
    m.Add("engine.query_cache_hit_ratio", hit_ratio("query_cache"), "ratio");
    m.Add("engine.query_cache_evictions", Ratio(d("query_cache_evictions"), ops), "count");
    m.Add("constraint.formula_nodes",
          static_cast<double>(ccdb::GetFormulaArenaStats().live_nodes), "count");
    m.Add("poly.intern_nodes", static_cast<double>(ccdb::GetPolyInternStats().entries), "count");
  }

  fs::remove_all(base, ec);
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"loop_s\": %.9g, \"ops\": %.0f, "
      "\"digest_ops\": \"%s\", \"digest_answers\": \"%s\", \"metrics\": %s}\n",
      failed == 0 ? "true" : "false", attempted, failed, loop_s, ops,
      op_digest.Hex().c_str(), answer_digest.Hex().c_str(), m.Json().c_str());
  return failed == 0 ? 0 : 1;
}

// --setup-only 1: builds the catalog once in a fresh store in --dir, prints
// the seconds it took, and removes the store.
int SetupOnly(const Args& args) {
  if (MakeWorkload(args.workload, args.seed) == nullptr) return 2;
  std::unique_ptr<Workload> workload;
  std::optional<ccdb::ConstraintDatabase> db;
  auto built = BuildCatalog(args, args.dir, &db, &workload);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", built.status().ToString().c_str());
    return 2;
  }
  db.reset();
  std::error_code ec;
  fs::remove_all(args.dir, ec);
  std::printf("%.9g\n", *built);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S [--trace 0|1] "
                 "[--dir PATH] [--trace-out PATH] [--verbose 0|1] "
                 "[--setup-samples N] [--setup-only 1]\n");
    return 2;
  }
  return args.setup_only ? perfbench::SetupOnly(args) : perfbench::Run(args);
}
