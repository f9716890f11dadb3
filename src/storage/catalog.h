#ifndef CCDB_STORAGE_CATALOG_H_
#define CCDB_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "constraint/atom.h"
#include "constraint/formula.h"

namespace ccdb {

/// Version stamps of one named relation (see Catalog::version() for the
/// stamp source). `version` advances on every change to the relation,
/// including tuple inserts; `base` advances only on structural changes
/// (define, drop-and-redefine, load) — so equal `base` plus a grown tuple
/// count proves the old tuples are an unchanged prefix, the precondition
/// for resuming a materialized Datalog fixpoint incrementally.
struct RelationVersion {
  std::uint64_t version = 0;
  std::uint64_t base = 0;
};

/// A named collection of constraint relations with text persistence and
/// copy-on-write snapshot isolation.
///
/// The on-disk format is line-oriented relation definitions in the query
/// language's own syntax ("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0"), one
/// relation per line, '#' comments allowed — human-readable and re-parsed
/// through the regular parser on load.
///
/// Concurrency model (MVCC): the catalog's state lives in an immutable
/// View published through a shared_ptr. Readers take Snapshot() — or call
/// the delegating read methods, each of which reads one snapshot — and see
/// one consistent catalog version for as long as they hold the pointer,
/// while writers copy the current View, mutate the copy, stamp it with a
/// fresh version, and swap it in. A long-running query therefore never
/// observes a half-applied mutation, at any thread count. A View holds its
/// relations by shared pointer to immutable entries, so a mutation copies
/// the name map and the one entry it changes, never the other relations.
///
/// Each entry's RelationBody is the relation version with its tuples'
/// boxes, built when the tuples are added (a define builds every box, an
/// insert only the appended tuples', carrying the others over), and its
/// body formula, built once on the first instantiation and shared by every
/// reader of the version (Formula::InstantiateRelations). The boxes are
/// the catalog's one index: instantiation filters by them, and Contains
/// skips a tuple whose box misses the point.
class Catalog {
 private:
  struct Entry {
    RelationBody body;  // the relation, its boxes, and its body once read
    std::unordered_set<std::size_t> tuple_hashes;  // GeneralizedTuple::Hash
    RelationVersion version;
  };

 public:
  /// One immutable catalog version. Obtained from Snapshot(); safe to read
  /// from any number of threads with no further synchronization.
  class View {
   public:
    bool HasRelation(const std::string& name) const;
    StatusOr<ConstraintRelation> GetRelation(const std::string& name) const;
    /// The relation version's shared body: no tuple is copied. This is the
    /// lookup query instantiation reads.
    StatusOr<RelationBody> GetBody(const std::string& name) const;
    std::vector<std::string> RelationNames() const;
    /// Point membership with bounding-box pre-filtering.
    StatusOr<bool> Contains(const std::string& name,
                            const std::vector<Rational>& point) const;
    /// Serializes every relation into the line format.
    std::string Serialize() const;
    std::uint64_t version() const { return version_; }
    /// Per-relation version stamps; nullopt when the relation is absent.
    /// Absent relations version as 0 in cache keys, so a later Define —
    /// which stamps a nonzero version — invalidates.
    std::optional<RelationVersion> GetRelationVersion(
        const std::string& name) const;
    std::size_t size() const { return relations_.size(); }

   private:
    friend class Catalog;
    std::map<std::string, std::shared_ptr<const Entry>> relations_;
    std::uint64_t version_ = 0;
  };

  Catalog();
  /// Copying shares the current snapshot (cheap — both sides are
  /// copy-on-write, so they diverge only at the next mutation).
  Catalog(const Catalog& other);
  Catalog& operator=(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  /// The current catalog version, pinned. In-flight queries hold one of
  /// these so writers never mutate state under them.
  std::shared_ptr<const View> Snapshot() const;

  Status AddRelation(const std::string& name, ConstraintRelation relation);
  /// Parses and adds "Name(cols...) := formula".
  Status AddRelationFromText(const std::string& definition);
  Status DropRelation(const std::string& name);
  /// Appends `delta`'s tuples to an existing relation of the same arity.
  /// Append-only: existing tuples and their order are untouched (the
  /// prefix-stability contract incremental fixpoints rely on); appended
  /// tuples are canonicalized and syntactic duplicates of existing or
  /// earlier delta tuples are dropped (found through the entry's tuple-hash
  /// set), matching what a serialize/parse round trip would do. Bumps the
  /// relation's `version`, not its `base`.
  Status InsertTuples(const std::string& name, const ConstraintRelation& delta);
  /// Parses "Name(cols...) := formula" and appends its tuples to Name.
  Status InsertTuplesFromText(const std::string& definition);
  bool HasRelation(const std::string& name) const;
  StatusOr<ConstraintRelation> GetRelation(const std::string& name) const;
  std::vector<std::string> RelationNames() const;

  /// Point membership with bounding-box pre-filtering.
  StatusOr<bool> Contains(const std::string& name,
                          const std::vector<Rational>& point) const;

  /// Serializes every relation into the line format.
  std::string Serialize() const;
  /// Loads relations from the line format (replacing the catalog). Hostile
  /// input — truncated lines, duplicate relation names, garbage bytes,
  /// over-long lines — comes back as a clean Status naming the line,
  /// never a crash.
  static StatusOr<Catalog> Deserialize(const std::string& text);

  /// Atomic save: writes `path.tmp`, fsyncs, then renames over `path` —
  /// a crash mid-save leaves the previous file intact.
  Status SaveToFile(const std::string& path) const;
  static StatusOr<Catalog> LoadFromFile(const std::string& path);

  /// Monotone mutation stamp. Every catalog starts with, and every mutation
  /// (add/drop, including loads that replace the catalog wholesale) draws, a
  /// fresh value from a process-global counter — so no two catalog states,
  /// even across distinct Catalog instances, ever share a version. Memo
  /// caches keyed on (query, version) are therefore invalidated by any
  /// mutation and can never alias a dropped-and-redefined relation.
  std::uint64_t version() const;

  /// Draws a fresh stamp from the process-global version counter without
  /// mutating any catalog. The WAL reserves the stamp it logs with a
  /// record this way, so stamps are monotone in log order.
  static std::uint64_t ReserveVersion();
  /// Raises the process-global counter so every future stamp exceeds
  /// `version`. Recovery calls this with the largest stamp found in the
  /// checkpoint/WAL, keeping versions monotone across a crash — a memo
  /// cache can never alias a pre-crash catalog state.
  static void EnsureVersionAtLeast(std::uint64_t version);
  /// Re-stamps the current state — the catalog version AND every
  /// per-relation stamp, in name order — with fresh versions (contents
  /// unchanged). Recovery calls this last: a catalog rebuilt from a
  /// checkpoint drew its stamps before EnsureVersionAtLeast raised the
  /// counter, so without a refresh a version could still collide with a
  /// pre-crash state. Per-relation stamps therefore stay monotone across
  /// reopen and crash recovery, and never alias a pre-crash state.
  void RefreshVersion();

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const View> view_;
};

/// Renders one relation as the "Name(cols...) := ..." definition line used
/// by the catalog text format and by WAL records.
std::string SerializeRelationDef(const std::string& name,
                                 const ConstraintRelation& relation);

}  // namespace ccdb

#endif  // CCDB_STORAGE_CATALOG_H_
