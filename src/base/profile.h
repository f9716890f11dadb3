#ifndef CCDB_BASE_PROFILE_H_
#define CCDB_BASE_PROFILE_H_

/// Per-query profiling primitives (Observability v2, DESIGN.md §12).
///
/// Two layers share this header:
///
///   * ProfileNode / ProfileSink — the attribution tree EXPLAIN ANALYZE
///     builds while a query executes. The executor mirrors the plan tree
///     (plan/planner.h) into ProfileNodes: one node per plan node,
///     carrying inclusive wall time (the elapsed time of the node's trace
///     span, base/trace.h) and the counters that node incurred (CAD cells, FM rounds, peak bigint bit
///     length, cache hits). Nodes are assembled in canonical plan order —
///     never completion order — so the tree SHAPE is deterministic at
///     every thread count; only the timings vary.
///
///   * SpanProfile — a flamegraph-style fold of the trace buffer
///     (base/trace.h): per-thread span nesting is reconstructed from the
///     recorded [start, start+duration) intervals and aggregated into
///     path → {count, inclusive, exclusive}, with text and JSON export.
///
/// Hard contract: profiling is OBSERVATION ONLY. Arming a ProfileSink (or
/// enabling the tracer) must never change a query's answer — the profiled
/// run stays byte-identical to the unprofiled one at every thread count
/// and cache temperature. Profiling code therefore only reads span times
/// and counters; it never branches the algorithm.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/trace.h"

namespace ccdb {

/// One node of the per-query attribution tree.
struct ProfileNode {
  /// Display label, e.g. "qe", "union", "block[cad] exists y",
  /// "qe[cached]". Deterministic — derived from the plan, not the
  /// schedule.
  std::string label;
  /// Wall time of this node including its children, microseconds: the
  /// ElapsedUs() of the span that times the node, read just before the
  /// span closes, so it never exceeds the span's recorded duration.
  std::int64_t inclusive_us = 0;
  /// Attribution counters in insertion order (cad_cells, fm_rounds,
  /// max_bits, qe_cache_hits, ...). Zero-valued counters are usually
  /// omitted by the producer.
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
  bool HasCounter(const std::string& name) const {
    for (const auto& c : counters) {
      if (c.first == name) return true;
    }
    return false;
  }

  /// Multi-line indented tree rendering:
  ///   label  12.345 ms (self 10.201 ms) [cad_cells=18 max_bits=12]
  std::string ToString(int indent = 0) const;
  /// {"label":...,"inclusive_us":...,"exclusive_us":...,
  ///  "counters":{...},"children":[...]}
  std::string ToJson() const;
};

/// Thread-safe collection point for completed top-level QE profile trees.
/// The evaluator may run several QE rounds per query (nested aggregate
/// stages before the main round); each round appends its root here.
/// Rounds initiated serially (the CALC_F DAG order) arrive in a
/// deterministic order; rounds initiated from pool workers are ordered by
/// arrival and documented as schedule-dependent.
class ProfileSink {
 public:
  void Add(ProfileNode node) {
    std::lock_guard<std::mutex> lock(mu_);
    roots_.push_back(std::move(node));
  }
  std::vector<ProfileNode> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ProfileNode> out = std::move(roots_);
    roots_.clear();
    return out;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return roots_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<ProfileNode> roots_;
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
