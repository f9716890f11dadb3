#ifndef CCDB_BASE_PROFILE_H_
#define CCDB_BASE_PROFILE_H_

/// Per-query profiling primitives (Observability v2, DESIGN.md §12).
///
/// Two views of one set of spans (base/trace.h) share this header:
///
///   * ProfileNode — a node of the EXPLAIN ANALYZE tree. Every span opened
///     under a collecting span (TraceSpan::CollectProfile) is one node:
///     its label (the span name, or what the span set: "union",
///     "block[cad] exists x1", "qe[cached]", "datalog.round[2]"), its
///     inclusive wall time (the span's ElapsedUs() at close) and the
///     counters set on it (cad_cells on cad.build, fm_rounds on
///     qe.fourier_motzkin, tuples_out on plan nodes). Children keep their
///     opening order on one thread and ParallelFor index order across
///     threads, so the tree SHAPE is deterministic at every thread count;
///     only the timings vary.
///
///   * SpanProfile — a flamegraph-style fold of the trace buffer
///     (base/trace.h): per-thread span nesting is reconstructed from the
///     recorded [start, start+duration) intervals and aggregated into
///     path → {count, inclusive, exclusive}, with text and JSON export.
///
/// Hard contract: profiling is OBSERVATION ONLY. Arming a collector (or
/// enabling the tracer) must never change a query's answer — the profiled
/// run stays byte-identical to the unprofiled one at every thread count
/// and cache temperature. Profiling code therefore only reads span times
/// and counters; it never branches the algorithm.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/trace.h"

namespace ccdb {

/// One node of the per-query attribution tree: one collected span.
struct ProfileNode {
  /// Display label: the span name unless the span set one. Deterministic —
  /// derived from the plan and the program, not the schedule.
  std::string label;
  /// Wall time of this node including its children, microseconds: the
  /// ElapsedUs() of the span, read just before it closes, so it never
  /// exceeds the span's recorded duration.
  std::int64_t inclusive_us = 0;
  /// Counters the span set, in insertion order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<ProfileNode> children;

  /// Wall time spent in this node itself: inclusive minus the children's
  /// inclusive sum, clamped at 0 (children of a parallel union overlap,
  /// so their sum may exceed the parent's wall time). By construction
  /// 0 <= exclusive_us() <= inclusive_us whenever inclusive_us >= 0.
  std::int64_t exclusive_us() const;

  void AddCounter(const std::string& name, std::uint64_t value) {
    counters.emplace_back(name, value);
  }
  /// First counter with `name`, or 0.
  std::uint64_t Counter(const std::string& name) const;

  /// Multi-line indented tree rendering:
  ///   label  12.345 ms (self 10.201 ms) [cad_cells=18 max_bits=12]
  std::string ToString(int indent = 0) const;
  /// {"label":...,"inclusive_us":...,"exclusive_us":...,
  ///  "counters":{...},"children":[...]}
  std::string ToJson() const;
};

/// One aggregated span path of a SpanProfile.
struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t inclusive_us = 0;
  /// Inclusive minus the nested children's inclusive time (clamped at 0).
  std::int64_t exclusive_us = 0;
};

/// Flamegraph-style aggregation of the trace buffer: nesting path
/// ("db.query;qe.eliminate;qe.cad_path") → aggregate.
struct SpanProfile {
  std::map<std::string, SpanAggregate> paths;
  std::uint64_t total_events = 0;

  /// Table rendering, one path per line, sorted by inclusive time
  /// descending:
  ///   count  inclusive[ms]  exclusive[ms]  path
  std::string ToString() const;
  /// {"total_events":N,"paths":{"a;b":{"count":...,...},...}}
  std::string ToJson() const;
};

/// Folds recorded spans into a path profile. Nesting is reconstructed per
/// thread from the [start, start+duration) intervals: a span is a child of
/// the innermost same-thread span containing it. Pure function of the
/// event list.
SpanProfile BuildSpanProfile(const std::vector<TraceEvent>& events);

/// Convenience: folds the global tracer's current buffer.
SpanProfile BuildSpanProfile();

}  // namespace ccdb

#endif  // CCDB_BASE_PROFILE_H_
