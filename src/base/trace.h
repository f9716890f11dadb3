#ifndef CCDB_BASE_TRACE_H_
#define CCDB_BASE_TRACE_H_

/// RAII span tracing for the Figure-1 query pipeline. A span is also the
/// engine's only stopwatch: every wall time it reports (EXPLAIN's stages,
/// ProfileNode times, the query log) is some span's ElapsedUs().
///
/// Spans are recorded into a process-wide, thread-safe recorder and can be
/// exported in the Chrome `trace_event` JSON format (load the file in
/// chrome://tracing or https://ui.perfetto.dev). Tracing is disabled by
/// default; when disabled, a span costs one clock read, one relaxed
/// atomic load and one thread-local read, and records nothing. Enable
/// programmatically with `Tracer::Global().SetEnabled()` or by setting the
/// `CCDB_TRACE=1` environment variable before the first span is created.
///
///   {
///     CCDB_TRACE_SPAN("qe.eliminate");
///     ... // work measured as one complete ("ph":"X") event
///   }
///
/// The same spans are the nodes of the EXPLAIN ANALYZE tree
/// (base/profile.h). A span armed with CollectProfile() is a tree root:
/// every span opened under it adds one ProfileNode under its parent,
/// holding the span's elapsed time and any label or counters set on it.
/// The parent is the innermost collecting span open on the same thread,
/// or, inside a ThreadPool::ParallelFor task, the span that submitted the
/// task; task children splice in index order, so the tree has the same
/// shape at every thread count. With no collector armed the label and
/// counter setters do nothing and nothing is allocated.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"

namespace ccdb {

struct ProfileNode;

/// The node a span opened now on this thread attaches under: the innermost
/// collecting span's, or the group of the running ParallelFor task. Null
/// when no collector is armed. Saved and restored by TraceSpan and by
/// ThreadPool::ParallelFor; nothing else writes it.
inline thread_local ProfileNode* tls_profile_parent = nullptr;

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
        start_us_(Tracer::Global().NowMicros()),
        parent_(tls_profile_parent) {
    if (parent_ != nullptr) OpenNode();
  }
  ~TraceSpan() {
    if (node_ != nullptr) CloseNode();
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

  /// Arms a profile collector on this span (EXPLAIN ANALYZE): it becomes
  /// the root of a ProfileNode tree that every span opened under it joins.
  void CollectProfile();
  /// The tree collected so far, its root's time read now. A root armed by
  /// CollectProfile stops collecting; a span that was already collecting
  /// under an outer root returns a copy and goes on.
  ProfileNode TakeProfile();

  /// Whether this span is a node of a collected tree. Only then do
  /// SetLabel and AddCounter record anything; guard a label that costs an
  /// allocation to build with it.
  bool profiling() const { return node_ != nullptr; }
  /// Replaces the node's label (default: the span name).
  void SetLabel(std::string label);
  void AddCounter(const char* name, std::uint64_t value);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Small dense id for the calling thread (Chrome "tid" field).
  static std::uint64_t CurrentThreadId();

 private:
  // Appends this span's node under parent_ and makes it the thread's
  // parent; CloseNode stamps the node's time and restores parent_.
  void OpenNode();
  void CloseNode();

  bool active_;
  const char* name_;
  const char* category_;
  std::int64_t start_us_;
  ProfileNode* parent_;
  ProfileNode* node_ = nullptr;  // owned only by a CollectProfile root
};

}  // namespace ccdb

#define CCDB_TRACE_CONCAT_INNER(a, b) a##b
#define CCDB_TRACE_CONCAT(a, b) CCDB_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define CCDB_TRACE_SPAN(name) \
  ::ccdb::TraceSpan CCDB_TRACE_CONCAT(_ccdb_trace_span_, __LINE__)(name)

#endif  // CCDB_BASE_TRACE_H_
