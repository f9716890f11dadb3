#ifndef CCDB_BASE_TRACE_H_
#define CCDB_BASE_TRACE_H_

/// RAII span tracing for the Figure-1 query pipeline. A span is also the
/// engine's only stopwatch: every wall time it reports (EXPLAIN's stages,
/// ProfileNode times, the query log) is some span's ElapsedUs().
///
/// Spans are recorded into a process-wide, thread-safe recorder and can be
/// exported in the Chrome `trace_event` JSON format (load the file in
/// chrome://tracing or https://ui.perfetto.dev). Tracing is disabled by
/// default; when disabled, a span costs one clock read and one relaxed
/// atomic load, and records nothing. Enable programmatically with
/// `Tracer::Global().SetEnabled()` or by setting the `CCDB_TRACE=1`
/// environment variable before the first span is created.
///
///   {
///     CCDB_TRACE_SPAN("qe.eliminate");
///     ... // work measured as one complete ("ph":"X") event
///   }

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"

namespace ccdb {

/// One completed span: a Chrome trace_event "complete" event ("ph":"X").
struct TraceEvent {
  /// Span name; must point to a string with static storage duration (the
  /// recorder stores the pointer, not a copy, to keep recording cheap).
  const char* name = nullptr;
  /// Event category (Chrome "cat" field), static storage as well.
  const char* category = nullptr;
  /// Start, microseconds since the tracer's epoch (process start).
  std::int64_t timestamp_us = 0;
  /// Duration in microseconds.
  std::int64_t duration_us = 0;
  /// Recording thread, folded to a small integer id.
  std::uint64_t thread_id = 0;
};

/// Process-wide span recorder. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Appends a completed span. Silently drops events beyond the in-memory
  /// cap (`dropped()` reports how many) so runaway traces cannot exhaust
  /// memory.
  void Record(const TraceEvent& event);

  /// Microseconds elapsed since the tracer's epoch.
  std::int64_t NowMicros() const;

  /// Serializes every recorded span as Chrome trace_event JSON:
  /// {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":...,"dur":...,
  ///   "pid":...,"tid":...},...]}.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  /// Snapshot of every recorded span (the span profiler's input,
  /// base/profile.h).
  std::vector<TraceEvent> Events() const;

  /// Number of spans currently recorded / dropped beyond the cap.
  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Discards all recorded spans (keeps the enabled flag).
  void Clear();

  /// In-memory event cap; beyond it events are counted but not stored.
  static constexpr std::size_t kMaxEvents = 1 << 20;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: times its scope, and records it as a complete event when
/// tracing was enabled at construction. `name` and `category` must have
/// static storage duration.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "ccdb")
      : active_(Tracer::Global().enabled()),
        name_(name),
        category_(category),
        start_us_(Tracer::Global().NowMicros()) {}
  ~TraceSpan() {
    if (active_) {
      Tracer& tracer = Tracer::Global();
      TraceEvent event;
      event.name = name_;
      event.category = category_;
      event.timestamp_us = start_us_;
      event.duration_us = tracer.NowMicros() - start_us_;
      event.thread_id = CurrentThreadId();
      tracer.Record(event);
    }
  }

  /// Microseconds since the span opened. Never decreases, and never
  /// exceeds the duration the span records when it closes.
  std::int64_t ElapsedUs() const {
    return Tracer::Global().NowMicros() - start_us_;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Small dense id for the calling thread (Chrome "tid" field).
  static std::uint64_t CurrentThreadId();

 private:
  bool active_;
  const char* name_;
  const char* category_;
  std::int64_t start_us_;
};

}  // namespace ccdb

#define CCDB_TRACE_CONCAT_INNER(a, b) a##b
#define CCDB_TRACE_CONCAT(a, b) CCDB_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define CCDB_TRACE_SPAN(name) \
  ::ccdb::TraceSpan CCDB_TRACE_CONCAT(_ccdb_trace_span_, __LINE__)(name)

#endif  // CCDB_BASE_TRACE_H_
