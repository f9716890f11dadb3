// Shared helpers of the end-to-end benchmark: the seeded generator, the
// exact integer arithmetic the answer oracles use, digests, percentiles and
// the operation record every workload produces.
#ifndef CCDB_PERFBENCH_COMMON_H_
#define CCDB_PERFBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"

namespace perfbench {

using Int = __int128;

// splitmix64: the op stream is a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform integer in [lo, hi].
  std::int64_t Range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  std::uint64_t state_;
};

// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.Next() % i]);
}

// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// FNV-1a 64, fed field by field; fields are separated so "ab"+"c" and
// "a"+"bc" differ.
class Digest {
 public:
  void Add(const std::string& field) {
    for (unsigned char c : field) Mix(c);
    Mix(0x1f);
  }
  std::string Hex() const;

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 1469598103934665603ull;
};

// An exact rational p/q with q > 0, for the oracles. Inputs are small
// integers and probes with small denominators, so __int128 never overflows.
struct Frac {
  Int num = 0;
  Int den = 1;
  Frac() = default;
  Frac(Int n, Int d = 1);
  std::string Text() const;  // "p/q" in the engine's query syntax
  ccdb::Rational ToRational() const;
  double ToDouble() const { return static_cast<double>(num) / static_cast<double>(den); }
};
Frac operator+(const Frac& a, const Frac& b);
Frac operator-(const Frac& a, const Frac& b);
Frac operator*(const Frac& a, const Frac& b);
Frac operator/(const Frac& a, const Frac& b);  // b != 0
inline int Sign(const Frac& a) { return a.num > 0 ? 1 : (a.num < 0 ? -1 : 0); }
inline int Compare(const Frac& a, const Frac& b) { return Sign(a - b); }
inline bool operator<=(const Frac& a, const Frac& b) { return Compare(a, b) <= 0; }
inline bool operator<(const Frac& a, const Frac& b) { return Compare(a, b) < 0; }
// t <= sqrt(a) for a >= 0, decided exactly.
bool LeqSqrt(const Frac& t, const Frac& a);

// The p-quantile (p in [0,1]) of `values` by nearest rank on a sorted copy;
// 0 when empty.
double Quantile(std::vector<double> values, double p);

// The finite set a unary answer denotes, sorted, when every tuple pins its
// variable with a linear equation it satisfies; false when some tuple does
// not (the caller then reports a mismatch).
bool PinnedValues(const ccdb::ConstraintRelation& relation, std::vector<ccdb::Rational>* out);
// "a,b,c" of the pinned values; "?" when they are not pinned.
std::string PinnedText(const ccdb::ConstraintRelation& relation);
// "a,b,c" of sorted integers.
std::string IdsText(const std::vector<int>& ids);

// What the generator expects of one engine call, bound to its result.
struct Verdict {
  bool ok = true;          // the engine call succeeded
  bool correct = true;     // and its answer matched the oracle
  std::string canonical;   // canonical rendering of the answer (digested)
  std::string detail;      // first mismatch or error, for the report
  // Size of the answer relation (atoms per tuple is a per-layer metric).
  std::uint64_t tuples = 0;
  std::uint64_t atoms = 0;
  // Datalog refreshes: tuples presented as semi-naive deltas.
  std::uint64_t delta_tuples = 0;
};

enum class OpClass { kRead, kWrite, kRefresh };
const char* OpClassName(OpClass c);

// One operation of a workload's stream. `call` performs exactly one public
// engine call (the timed part) and returns the check bound to its result;
// the check runs after the clock stops.
struct Op {
  OpClass op_class = OpClass::kRead;
  const char* family = "";  // static label, e.g. "point_location"
  const char* span = "";    // the benchmark span around the call
  std::string text;         // the text handed to the engine (digested)
  std::function<std::function<Verdict()>(ccdb::ConstraintDatabase&)> call;
};

// Engine-call wrappers shared by the workloads.
Verdict ErrorVerdict(const ccdb::Status& status);
Verdict Expect(bool correct, std::string canonical, std::string detail = "");
// Records the answer's size on the verdict.
Verdict Measured(Verdict v, const ccdb::ConstraintRelation& answer);

// A probe of a unary answer: the value and whether it must be in the set.
using Probes = std::vector<std::pair<Frac, bool>>;

// A query with a unary answer over `var`, checked by membership at `probes`.
Op ProbeRead(const char* family, std::string text, std::string var, Probes probes);
// A query with a scalar answer. An exact answer must equal `exact` when it
// is given; otherwise the value must lie within rel_tol * max(1, |expected|)
// of `expected`.
Op ScalarRead(const char* family, std::string text, double expected, double rel_tol,
              std::optional<Frac> exact = std::nullopt);
// A write: `write` performs the one engine call; the check is that it
// succeeded.
Op WriteOp(const char* family, const char* span, std::string text,
           std::function<ccdb::Status(ccdb::ConstraintDatabase&)> write);

// A workload: builds its catalog on a fresh durable database, then produces
// its op stream, keeping its own model of the catalog for the oracles.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual ccdb::Status Setup(ccdb::ConstraintDatabase& db) = 0;
  virtual Op Next() = 0;
  // Bytes of the definition texts (Define and Insert) whose data the
  // catalog holds now: the denominator of store_bytes_per_user_byte.
  virtual std::uint64_t live_bytes() const = 0;
};

std::unique_ptr<Workload> MakeRegistryLinear(std::uint64_t seed);
std::unique_ptr<Workload> MakeRegistryCurved(std::uint64_t seed);
std::unique_ptr<Workload> MakeDatalogLive(std::uint64_t seed);

}  // namespace perfbench

#endif  // CCDB_PERFBENCH_COMMON_H_
