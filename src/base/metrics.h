#ifndef CCDB_BASE_METRICS_H_
#define CCDB_BASE_METRICS_H_

/// Process-wide metrics registry for the query pipeline.
///
/// Three instrument kinds, all thread-safe and always on (a recorded value
/// is one relaxed atomic op; registration is a one-time mutex acquisition
/// cached behind a function-local static at each call site):
///
///   * Counter  — monotonically increasing event count (QE cells built,
///                resultants computed, Fourier-Motzkin rounds, ...).
///   * MaxGauge — running maximum (peak intermediate bigint bit length).
///   * Histogram — power-of-two bucketed value distribution with
///                count/sum/min/max (work done before a budget trip).
///
/// Use the macros for instrumentation sites:
///
///   CCDB_METRIC_COUNT("qe.cad.cells", cell_count);
///   CCDB_METRIC_MAX("qe.max_intermediate_bits", bits);
///   CCDB_METRIC_HISTOGRAM("governor.steps_at_trip", steps);
///
/// `MetricsRegistry::Global().SnapshotJson()` serializes everything; the
/// REPL `.stats` command and the stats structs' ToJson() build on it.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ccdb {

/// Monotonically increasing counter.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Running maximum (e.g. the peak bigint bit length Lemma 4.4 bounds).
class MaxGauge {
 public:
  explicit MaxGauge(std::string name) : name_(std::move(name)) {}
  void RecordMax(std::uint64_t v) {
    std::uint64_t current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Power-of-two bucketed histogram over nonnegative integers. Bucket i
/// counts values in [2^i, 2^(i+1)) — i.e. floor(log2(v)) — with bucket 0
/// counting zeros and ones.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  void Record(std::uint64_t v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Max recorded value; 0 when empty.
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Min recorded value; 0 when empty.
  std::uint64_t min() const;
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const {
    std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Estimated p-quantile (p in [0, 1]), linearly interpolated inside the
  /// power-of-two bucket holding the target rank and clamped to
  /// [min(), max()] (so a single-valued histogram reports that value
  /// exactly). 0 when empty. Monotone in p up to concurrent-recording
  /// skew.
  double Percentile(double p) const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Name → instrument registry. Instruments live forever once registered
/// (pointers returned stay valid for the process lifetime), so call sites
/// may cache them in function-local statics.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  MaxGauge* GetMaxGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Flat snapshot of all scalar readings, for delta computation (EXPLAIN)
  /// and tests. Histograms contribute `<name>.count` and `<name>.sum`.
  std::map<std::string, std::uint64_t> SnapshotValues() const;

  /// Full JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":...,
  ///  "sum":...,"min":...,"max":...,"mean":...},...}}.
  std::string SnapshotJson() const;

  /// Zeroes every registered instrument (instruments stay registered).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<MaxGauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Minimal JSON object builder shared by SnapshotJson() and the stats
/// structs' ToJson() methods. Keys are emitted in insertion order.
class JsonObjectBuilder {
 public:
  JsonObjectBuilder& Add(const std::string& key, std::uint64_t value);
  JsonObjectBuilder& Add(const std::string& key, std::int64_t value);
  JsonObjectBuilder& Add(const std::string& key, double value);
  JsonObjectBuilder& Add(const std::string& key, bool value);
  JsonObjectBuilder& Add(const std::string& key, const std::string& value);
  /// Adds an already-serialized JSON value (object, array, ...) verbatim.
  JsonObjectBuilder& AddRaw(const std::string& key, const std::string& json);
  std::string Build() const;

  static std::string Escape(const std::string& raw);

 private:
  void AddKey(const std::string& key);
  std::string body_;
  bool first_ = true;
};

}  // namespace ccdb

#define CCDB_METRIC_CONCAT_INNER(a, b) a##b
#define CCDB_METRIC_CONCAT(a, b) CCDB_METRIC_CONCAT_INNER(a, b)

/// Adds `n` to the counter `name` (a string literal; resolved once).
#define CCDB_METRIC_COUNT(name, n)                                 \
  do {                                                             \
    static ::ccdb::Counter* CCDB_METRIC_CONCAT(_ccdb_counter_,     \
                                               __LINE__) =         \
        ::ccdb::MetricsRegistry::Global().GetCounter(name);        \
    CCDB_METRIC_CONCAT(_ccdb_counter_, __LINE__)->Increment(n);    \
  } while (0)

/// Raises the max gauge `name` to at least `v`.
#define CCDB_METRIC_MAX(name, v)                                   \
  do {                                                             \
    static ::ccdb::MaxGauge* CCDB_METRIC_CONCAT(_ccdb_gauge_,      \
                                                __LINE__) =        \
        ::ccdb::MetricsRegistry::Global().GetMaxGauge(name);       \
    CCDB_METRIC_CONCAT(_ccdb_gauge_, __LINE__)->RecordMax(v);      \
  } while (0)

/// Records `v` into the histogram `name`.
#define CCDB_METRIC_HISTOGRAM(name, v)                             \
  do {                                                             \
    static ::ccdb::Histogram* CCDB_METRIC_CONCAT(_ccdb_hist_,      \
                                                 __LINE__) =       \
        ::ccdb::MetricsRegistry::Global().GetHistogram(name);      \
    CCDB_METRIC_CONCAT(_ccdb_hist_, __LINE__)->Record(v);          \
  } while (0)

#endif  // CCDB_BASE_METRICS_H_
