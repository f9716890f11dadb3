#ifndef CCDB_BASE_RESOURCE_H_
#define CCDB_BASE_RESOURCE_H_

/// Resource governance for the query pipeline.
///
/// Quantifier elimination over the reals is doubly exponential in the worst
/// case, and the paper's finite-precision semantics deliberately makes
/// queries *partial* — so a production engine must bound every potentially
/// unbounded evaluation. A ResourceGovernor carries a wall-clock deadline,
/// a step budget, a tracked-allocation byte budget, and an external
/// cancellation flag; the unbounded hot loops (QE driver, CAD
/// projection/lifting, root isolation, Fourier-Motzkin rounds, the datalog
/// fixpoint, adaptive quadrature) charge it at their loop heads via
///
///   CCDB_CHECK_BUDGET(gov, "cad.lift");
///
/// where `gov` is a nullable `const ResourceGovernor*` (nullptr = no
/// limits; the check is then a single pointer comparison). When any budget
/// is exceeded the governor *trips*: the charge returns kResourceExhausted
/// carrying where it tripped and what was consumed, every later charge
/// returns the same status (so nested loops unwind deterministically), and
/// the trip is folded into the global metrics registry.
///
/// Governors are intended to be stack-allocated per governed call (see
/// ConstraintDatabase::QueryWithPolicy) or re-armed per bench cell with
/// Reset(). Charging is thread-safe and may come from many pool workers
/// at once; Reset() is data-race-free but logically racy against
/// in-flight charges (quiesce first for meaningful budgets).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "base/status.h"

namespace ccdb {

/// Why a governed computation was stopped.
enum class ExhaustionReason {
  kNone = 0,
  kDeadline,
  kSteps,
  kBytes,
  kCancelled,
};

/// Short lowercase name ("deadline", "steps", "bytes", "cancelled").
const char* ExhaustionReasonName(ExhaustionReason reason);

/// Budgets of one governed evaluation. Zero means unlimited.
struct ResourceLimits {
  /// Wall-clock deadline, measured from construction (or the last Reset).
  double deadline_seconds = 0.0;
  /// Maximum number of charged steps (loop-head iterations).
  std::uint64_t step_budget = 0;
  /// Maximum tracked allocation in bytes (cells, tuples, constraints).
  std::uint64_t byte_budget = 0;

  static ResourceLimits Deadline(double seconds) {
    ResourceLimits limits;
    limits.deadline_seconds = seconds;
    return limits;
  }
  static ResourceLimits Steps(std::uint64_t steps) {
    ResourceLimits limits;
    limits.step_budget = steps;
    return limits;
  }
  static ResourceLimits Bytes(std::uint64_t bytes) {
    ResourceLimits limits;
    limits.byte_budget = bytes;
    return limits;
  }

  bool unlimited() const {
    return deadline_seconds <= 0.0 && step_budget == 0 && byte_budget == 0;
  }
};

/// A per-evaluation resource budget with cooperative cancellation.
///
/// Charge() is const so that the pipeline can thread `const
/// ResourceGovernor*` everywhere (the counters are mutable atomics); the
/// object itself carries the mutable budget state.
///
/// One governor may be charged from many pool workers at once (parallel
/// CAD lifting / disjunct QE / datalog rules all share the query's
/// governor): the step and byte counters are atomics, the deadline origin
/// is an atomic nanosecond stamp, and the trip verdict is guarded by a
/// mutex on the cold path — so a charge stays ~one atomic load + add.
class ResourceGovernor {
 public:
  /// `cancel`, when non-null, is an external flag (e.g. set from a signal
  /// handler or another thread); the governor trips with kCancelled as soon
  /// as a charge observes it true. The flag is borrowed, not owned.
  explicit ResourceGovernor(ResourceLimits limits,
                            std::atomic<bool>* cancel = nullptr);

  /// Charges `steps` loop-head steps at `stage` (a string literal naming
  /// the charging site, e.g. "cad.lift"). Returns OK while within budget;
  /// returns kResourceExhausted — stage, reason, and consumption in the
  /// message — once any budget is exceeded or cancellation is observed.
  /// Sticky: after the first trip every charge fails with the same verdict.
  Status Charge(const char* stage, std::uint64_t steps = 1) const;

  /// Records `bytes` of tracked allocation. Does not itself trip (cheap,
  /// callable from noexcept paths); the next Charge() enforces the byte
  /// budget.
  void ChargeBytes(std::uint64_t bytes) const {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Re-arms the governor: clears consumption and the tripped state and
  /// restarts the deadline clock. Not thread-safe against in-flight
  /// charges.
  void Reset();

  bool exhausted() const { return tripped_.load(std::memory_order_acquire); }
  /// kNone until tripped.
  ExhaustionReason reason() const;
  /// The charging site that observed the trip ("" until tripped).
  std::string tripped_stage() const;

  std::uint64_t steps_consumed() const {
    return steps_.load(std::memory_order_acquire);
  }
  std::uint64_t bytes_consumed() const {
    return bytes_.load(std::memory_order_acquire);
  }
  /// Wall time since construction / the last Reset.
  double elapsed_seconds() const;

  /// One coherent reading of everything a verdict reports. Safe to call
  /// while workers are still charging (each field is an atomic read); use
  /// this instead of separate steps/bytes/elapsed getters when the three
  /// values are reported together (e.g. a query-log record's "verdict").
  struct Consumption {
    std::uint64_t steps = 0;
    std::uint64_t bytes = 0;
    double elapsed_seconds = 0.0;
  };
  Consumption Snapshot() const;

  const ResourceLimits& limits() const { return limits_; }

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

 private:
  // Records the first trip (later callers reuse it) and builds the status.
  Status Trip(ExhaustionReason reason, const char* stage) const;
  Status ExhaustedStatus() const;

  ResourceLimits limits_;
  std::atomic<bool>* cancel_;
  // Deadline origin as a steady_clock nanosecond stamp. Atomic because
  // Reset() re-arms it while observers (metrics, verdict snapshots) may
  // still be reading; charging threads load it on every deadline check.
  mutable std::atomic<std::int64_t> start_ns_;

  mutable std::atomic<std::uint64_t> steps_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};

  mutable std::atomic<bool> tripped_{false};
  mutable std::mutex trip_mu_;  // guards the fields below (cold path)
  mutable ExhaustionReason reason_ = ExhaustionReason::kNone;
  mutable std::string tripped_stage_;
  mutable std::string verdict_message_;
};

}  // namespace ccdb

/// Charges one governor step at a loop head and propagates exhaustion to
/// the caller. `gov` is a nullable `const ResourceGovernor*`; when null the
/// check costs one pointer comparison.
#define CCDB_CHECK_BUDGET(gov, stage)                      \
  do {                                                     \
    if ((gov) != nullptr) {                                \
      ::ccdb::Status _ccdb_gov_st = (gov)->Charge(stage);  \
      if (!_ccdb_gov_st.ok()) return _ccdb_gov_st;         \
    }                                                      \
  } while (0)

#endif  // CCDB_BASE_RESOURCE_H_
