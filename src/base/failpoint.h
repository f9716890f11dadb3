#ifndef CCDB_BASE_FAILPOINT_H_
#define CCDB_BASE_FAILPOINT_H_

/// Deterministic fault injection for robustness tests.
///
/// Failpoints are named sites planted at the stage boundaries of the query
/// pipeline (e.g. "qe.drive", "cad.lift", "datalog.iteration"). A site is
/// inert until armed; an armed site injects a configured error Status on a
/// configured hit, letting tests force every error path and assert the
/// engine degrades — never crashes, never leaks a half-built relation into
/// the catalog.
///
/// Every build plants the sites. An unarmed site costs one relaxed atomic
/// load (FailpointRegistry::HasArmed) and counts no hit; the registry lock
/// is taken only while some site is armed.
///
/// Configuration syntax — programmatic or via the CCDB_FAILPOINTS
/// environment variable, read once at first registry use:
///
///   CCDB_FAILPOINTS="cad.lift=error@3,qe.drive=exhaust@1"
///
/// Each entry is `site=kind[@N]`: the site fires once, on its N-th hit
/// (1-based, default 1), with the error mapped from `kind`:
///
///   error     -> kInternal            exhaust  -> kResourceExhausted
///   undefined -> kUndefined           numfail  -> kNumericalFailure
///
/// Durability testing adds three fault kinds that do not map to a Status:
///
///   crash        -> the process exits immediately (std::_Exit with
///                   FailpointRegistry::kCrashExitCode), simulating a kill
///                   -9 at the site — no destructors, no stream flushes.
///   torn-write   -> at an IO write site (HitIo), only a prefix of the
///                   bytes reaches the file and then the process crashes —
///                   a torn tail for recovery to truncate.
///   short-write  -> at an IO write site, only a prefix of the bytes is
///                   written and the write reports failure; the process
///                   keeps running (simulates ENOSPC mid-write).
///
/// The durability boundaries in src/storage call Check too, and HitIo at
/// their write sites.
///
/// Usage at a stage boundary (returns the injected Status to the caller):
///
///   Status DoStage(...) {
///     CCDB_FAILPOINT("cad.lift");
///     ...
///   }

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"

namespace ccdb {

/// What an armed failpoint injects, and when.
struct FailpointSpec {
  enum class Kind {
    kError,             // kInternal
    kExhaust,           // kResourceExhausted
    kUndefined,         // kUndefined
    kNumericalFailure,  // kNumericalFailure
    kCrash,             // std::_Exit(kCrashExitCode) at the site
    kTornWrite,         // IO sites: prefix of the bytes written, then crash
    kShortWrite,        // IO sites: prefix written, write reports failure
  };
  Kind kind = Kind::kError;
  /// Fires on this hit (1-based) of the site, exactly once.
  std::uint64_t fire_at = 1;
};

/// What an IO write site should do with the bytes it is about to write.
/// Returned by FailpointRegistry::HitIo; the writer implements the fault
/// (write a prefix, then crash or report failure).
enum class IoFault {
  kNone,
  kTornWrite,
  kShortWrite,
};

/// Process-wide failpoint registry. Thread-safe.
class FailpointRegistry {
 public:
  /// Exit code of a fired `crash` (or the crash half of a `torn-write`)
  /// failpoint — the crash-recovery harness asserts the child died with
  /// exactly this code, distinguishing an injected crash from a real one.
  static constexpr int kCrashExitCode = 42;
  /// The global registry; on first use arms everything named by the
  /// CCDB_FAILPOINTS environment variable (malformed entries are ignored
  /// with a log line — startup must not crash on a bad env var).
  static FailpointRegistry& Global();

  /// Parses "site=kind[@N],site2=kind2[@M]" and arms each entry.
  /// kInvalidArgument on malformed input (nothing armed from a bad spec).
  Status Configure(const std::string& config);

  /// Arms one site.
  void Set(const std::string& site, FailpointSpec spec);
  /// Disarms one site (its hit count is kept).
  void Clear(const std::string& site);
  /// Disarms every site and zeroes all hit counts.
  void ClearAll();

  /// Times Hit/HitIo counted the site since the last ClearAll (the planted
  /// sites call them only while some site is armed).
  std::uint64_t HitCount(const std::string& site) const;
  /// Names of currently armed sites.
  std::vector<std::string> ArmedSites() const;
  /// True while any site is armed — one relaxed atomic load, cheap enough
  /// for hot paths. The memo caches consult this and stand down while a
  /// fault is armed, so injection always reaches the real stage instead of
  /// being masked by a cache hit.
  bool HasArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// What every planted site calls: Hit(site) while some site is armed,
  /// else Ok without taking the lock or counting a hit.
  Status Check(const char* site) {
    return HasArmed() ? Hit(site) : Status::Ok();
  }

  /// Counts a pass through `site`; returns the injected error iff the site
  /// is armed and this is its fire_at-th hit.
  /// A fired `crash` kind exits the process here; a fired torn-write /
  /// short-write kind at a non-IO site degrades to kInternal.
  Status Hit(const char* site);

  /// Counts a pass through an IO write site; returns the IO fault to
  /// perform iff the site is armed with torn-write/short-write and this is
  /// its fire_at-th hit. A fired `crash` kind exits the process here; a
  /// fired Status kind (error/exhaust/...) is reported through
  /// `*injected` (never null-checked — pass a valid pointer).
  IoFault HitIo(const char* site, Status* injected);

 private:
  FailpointRegistry();

  struct SiteState {
    bool armed = false;
    FailpointSpec spec;
    std::uint64_t hits = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  /// Count of armed sites, mirrored from `sites_` under `mu_`.
  std::atomic<int> armed_count_{0};
};

}  // namespace ccdb

/// Plants a failpoint: returns the injected Status to the caller when the
/// site is armed and due; otherwise a no-op.
#define CCDB_FAILPOINT(site) \
  CCDB_RETURN_IF_ERROR(::ccdb::FailpointRegistry::Global().Check(site))

#endif  // CCDB_BASE_FAILPOINT_H_
