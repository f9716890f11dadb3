// datalog_live: writes beside reads on a durable database.
//
// K chain relations Edge<k>(x, y) := y - x - 1 = 0 over x in [o_k, o_k + hi]
// (a unit-step chain of diameter hi + 1), each with its transitive closure
// Reach<k> materialized by ConstraintDatabase::Fixpoint. Every lap inserts
// one unit segment into a random chain (a write), refreshes that chain's
// closure (Fixpoint takes the resume path) and reads the written chain;
// every third lap also reads an untouched relation whose answer stays in
// the whole-query cache.
// A chain that reaches the largest diameter is dropped and redefined short,
// which forces a structural recompute and keeps the per-lap cost bounded.
// A checkpoint runs every 256 laps.
//
// The oracle: Reach<k>(x, y) holds iff y - x = n is an integer >= 1 with
// o_k <= x and x + n - 1 <= o_k + hi; the chain read and the untouched read
// are intervals decided at rational probes.
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kChains = 8;
constexpr int kMinDiameter = 3;
constexpr int kMaxDiameter = 7;
constexpr int kCheckpointLaps = 256;
constexpr int kHotReadLaps = 3;
constexpr int kReachProbes = 8;
constexpr int kReadProbes = 8;
constexpr int kHotTexts = 8;

struct Chain {
  std::int64_t offset = 0;
  std::int64_t hi = 0;  // x ranges over [offset, offset + hi]
};

class DatalogLive final : public Workload {
 public:
  explicit DatalogLive(std::uint64_t seed) : rng_(seed) {
    // Every seed starts from the same diameters, 3 to kMaxDiameter - 2, in
    // its own order, so the set-up work is the same for every seed.
    std::vector<std::int64_t> diameters;
    for (int k = 0; k < kChains; ++k) {
      diameters.push_back(kMinDiameter + k % (kMaxDiameter - kMinDiameter - 1));
    }
    Shuffle(diameters, rng_);
    for (int k = 0; k < kChains; ++k) {
      chains_.push_back({rng_.Range(-20, 20), diameters[k] - 1});
      programs_.push_back(ClosureProgram(k));
    }
    depot_lo_ = rng_.Range(-10, 0);
    depot_hi_ = depot_lo_ + rng_.Range(4, 12);
  }

  ccdb::Status Setup(ccdb::ConstraintDatabase& db) override {
    for (int k = 0; k < kChains; ++k) {
      std::string text = ChainDefinition(k);
      chain_bytes_[k] = text.size();
      CCDB_RETURN_IF_ERROR(db.Define(text));
    }
    // The untouched relation: a band y in [x, x + 2] over the depot range.
    std::string depot = "Depot(x, y) := x >= " + std::to_string(depot_lo_) +
                        " and x <= " + std::to_string(depot_hi_) +
                        " and y - x >= 0 and y - x - 2 <= 0";
    depot_bytes_ = depot.size();
    CCDB_RETURN_IF_ERROR(db.Define(depot));
    // Materialize every closure once: the loop's refreshes then resume.
    for (int k = 0; k < kChains; ++k) {
      auto reach = db.Fixpoint(programs_[k]);
      if (!reach.ok()) return reach.status();
    }
    return ccdb::Status::Ok();
  }

  std::uint64_t live_bytes() const override {
    std::uint64_t total = depot_bytes_;
    for (std::uint64_t bytes : chain_bytes_) total += bytes;
    return total;
  }

  Op Next() override {
    if (queue_.empty()) Lap();
    Op op = std::move(queue_.front());
    queue_.erase(queue_.begin());
    return op;
  }

 private:
  static ccdb::DatalogProgram ClosureProgram(int k) {
    std::string edge = "Edge" + std::to_string(k), reach = "Reach" + std::to_string(k);
    ccdb::DatalogProgram program;
    program.idb_arities[reach] = 2;
    ccdb::DatalogRule base;
    base.head = reach;
    base.head_vars = {0, 1};
    base.body.push_back(ccdb::DatalogLiteral::Rel(edge, {0, 1}));
    program.rules.push_back(base);
    ccdb::DatalogRule step;
    step.head = reach;
    step.head_vars = {0, 1};
    step.body.push_back(ccdb::DatalogLiteral::Rel(reach, {0, 2}));
    step.body.push_back(ccdb::DatalogLiteral::Rel(edge, {2, 1}));
    program.rules.push_back(step);
    return program;
  }

  std::string Segment(int k, std::int64_t lo, std::int64_t hi) const {
    return "Edge" + std::to_string(k) + "(x, y) := y - x - 1 = 0 and x >= " +
           Frac(lo).Text() + " and x <= " + Frac(hi).Text();
  }
  std::string ChainDefinition(int k) const {
    const Chain& c = chains_[k];
    return Segment(k, c.offset, c.offset + c.hi);
  }

  // One lap: the write(s), the refresh, and the reads, all generated
  // against the model state the writes leave.
  void Lap() {
    ++laps_;
    int k = static_cast<int>(rng_.Range(0, kChains - 1));
    Chain& c = chains_[k];
    std::string edge = "Edge" + std::to_string(k);
    if (c.hi + 1 >= kMaxDiameter) {
      // Structural change: drop and redefine the chain short.
      c.hi = kMinDiameter - 1;
      c.offset = rng_.Range(-20, 20);
      queue_.push_back(WriteOp("drop_chain", "storage.write", "Drop " + edge,
                               [edge](ccdb::ConstraintDatabase& db) { return db.Drop(edge); }));
      std::string text = ChainDefinition(k);
      chain_bytes_[k] = text.size();
      queue_.push_back(WriteOp("define_chain", "storage.write", text,
                               [text](ccdb::ConstraintDatabase& db) { return db.Define(text); }));
    } else {
      std::string text = Segment(k, c.offset + c.hi, c.offset + c.hi + 1);
      c.hi += 1;
      chain_bytes_[k] += text.size();
      queue_.push_back(WriteOp("insert_segment", "storage.write", text,
                               [text](ccdb::ConstraintDatabase& db) { return db.Insert(text); }));
    }
    queue_.push_back(Refresh(k));
    queue_.push_back(ChainRead(k));
    // The untouched read (a cache hit, some microseconds) comes every
    // kHotReadLaps laps, so chain reads are three in four reads and the
    // read median lies inside their latencies; with one of each per lap it
    // would sit on the gap between the two.
    if (laps_ % kHotReadLaps == 0) queue_.push_back(HotRead());
    if (laps_ % kCheckpointLaps == 0) {
      queue_.push_back(WriteOp("checkpoint", "storage.checkpoint", "Checkpoint",
                               [](ccdb::ConstraintDatabase& db) { return db.Checkpoint(); }));
    }
  }

  Op Refresh(int k) {
    const Chain& c = chains_[k];
    std::string reach = "Reach" + std::to_string(k);
    // Probes (x, x + n): integer steps inside and past the chain, and
    // half steps, which are never reachable.
    std::vector<std::pair<std::vector<Frac>, bool>> probes;
    for (int p = 0; p < kReachProbes; ++p) {
      Frac x = Frac(c.offset - 1) + Frac(rng_.Range(0, 4 * (c.hi + 2)), 4);
      std::int64_t n = rng_.Range(0, c.hi + 2);
      Frac y = x + Frac(n) + (p % 4 == 3 ? Frac(1, 2) : Frac(0));
      bool inside = p % 4 != 3 && n >= 1 && Frac(c.offset) <= x &&
                    x + Frac(n - 1) <= Frac(c.offset + c.hi);
      probes.push_back({{x, y}, inside});
    }
    Op op;
    op.op_class = OpClass::kRefresh;
    op.family = "refresh_closure";
    op.span = "datalog.refresh";
    op.text = "Fixpoint " + reach;
    const ccdb::DatalogProgram* program = &programs_[k];
    op.call = [program, reach, probes](ccdb::ConstraintDatabase& db) {
      ccdb::DatalogStats stats;
      auto result = db.Fixpoint(*program, {}, &stats);
      return std::function<Verdict()>([result = std::move(result), reach, probes, stats]() {
        if (!result.ok()) return ErrorVerdict(result.status());
        auto it = result->find(reach);
        if (it == result->end()) return Expect(false, "?", "no " + reach);
        std::string bits;
        bool correct = true;
        for (const auto& [point, inside] : probes) {
          bool got = it->second.Contains({point[0].ToRational(), point[1].ToRational()});
          bits += got ? '1' : '0';
          correct = correct && got == inside;
        }
        Verdict v = Measured(Expect(correct, bits, "reach probes " + bits), it->second);
        v.delta_tuples = stats.delta_tuples;
        return v;
      });
    };
    return op;
  }

  // A read whose answer over x is [lo, hi], probed at 1/8 steps around it.
  static Op IntervalRead(const char* family, std::string text, Frac lo, Frac hi, Rng& rng) {
    Probes probes;
    for (int p = 0; p < kReadProbes; ++p) {
      Frac x = lo - Frac(2) + Frac(rng.Range(0, ((hi - lo + Frac(4)) * Frac(8)).num /
                                                    ((hi - lo + Frac(4)) * Frac(8)).den),
                                   8);
      probes.push_back({x, lo <= x && x <= hi});
    }
    return ProbeRead(family, std::move(text), "x", std::move(probes));
  }

  // exists y (Edge_k(x, y) and y >= t): x in [max(o, t - 1), o + hi].
  Op ChainRead(int k) {
    const Chain& c = chains_[k];
    Frac t = Frac(c.offset) + Frac(rng_.Range(0, 4 * (c.hi + 1)), 4);
    Frac lo = t - Frac(1);
    if (lo < Frac(c.offset)) lo = Frac(c.offset);
    return IntervalRead("chain_read",
                        "exists y (Edge" + std::to_string(k) + "(x, y) and y >= " + t.Text() + ")",
                        lo, Frac(c.offset + c.hi), rng_);
  }

  // exists y (Depot(x, y) and y >= t) from a small pool of texts: the
  // relation is never written, so the answers stay cached.
  Op HotRead() {
    std::int64_t t = depot_lo_ + static_cast<std::int64_t>(rng_.Next() % kHotTexts);
    Frac lo = Frac(t - 2);
    if (lo < Frac(depot_lo_)) lo = Frac(depot_lo_);
    return IntervalRead("untouched_read",
                        "exists y (Depot(x, y) and y >= " + std::to_string(t) + ")", lo,
                        Frac(depot_hi_), rng_);
  }

  Rng rng_;
  std::vector<Chain> chains_;
  std::vector<ccdb::DatalogProgram> programs_;
  std::int64_t depot_lo_ = 0, depot_hi_ = 0;
  // Definition bytes of each chain's live tuples, and of Depot.
  std::uint64_t chain_bytes_[kChains] = {};
  std::uint64_t depot_bytes_ = 0;
  long laps_ = 0;
  std::vector<Op> queue_;
};

}  // namespace

std::unique_ptr<Workload> MakeDatalogLive(std::uint64_t seed) {
  return std::make_unique<DatalogLive>(seed);
}

}  // namespace perfbench
