// registry_curved: a registry of degree-2 parcels.
//
// 48 disks D<i>, their boundary circles C<i>, and 24 parabola bands P<j>
// (the strip between y = p(x) and y = p(x) + h over an x-interval), all
// with small integer coefficients. Every op is a read with a distinct text:
// projections of disk/disk intersections, clipped parabola projections,
// Solve on circle/line and circle/circle, and SURFACE of bands (exact) and
// of disks (quadrature, a small share). The
// work is CAD projection, base and lifting over algebraic sample points,
// resultants, root refinement, numerical evaluation and quadrature; no
// Fourier-Motzkin and no writes.
//
// Families with an instance over 1 s in a seeded probe of the engine are
// left out (README.md): ellipse pairs and "exists x" or "exists y" over
// parabola/disk.
//
// The oracle decides each projection exactly at rational probes (interval
// endpoints of the form b +- sqrt(A) compared in integer arithmetic),
// checks Solve points against closed-form double-precision intersections
// within 1e-6, band areas exactly and disk areas against pi r^2.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kDisks = 48;
constexpr int kBands = 24;
constexpr int kProbes = 12;
constexpr int kProbeDen = 64;

// t <= sqrt(a) + sqrt(b) for a, b >= 0, decided exactly.
bool LeqSqrtSum(const Frac& t, const Frac& a, const Frac& b) {
  if (Sign(t) <= 0) return true;
  // t^2 - a - b <= 2 sqrt(ab)
  return LeqSqrt((t * t - a - b) * Frac(1, 2), a * b);
}

struct Disk {
  std::int64_t a, b, r;  // (x - a)^2 + (y - b)^2 <= r^2
  // r^2 - (u - c)^2 for the coordinate u whose center is c: the squared
  // half-width of the chord at u (negative off the disk).
  Frac HalfWidthSq(const Frac& u, std::int64_t c) const {
    Frac d = u - Frac(c);
    return Frac(r * r) - d * d;
  }
  std::string Poly() const {
    return "(x - " + Frac(a).Text() + ")^2 + (y - " + Frac(b).Text() + ")^2 - " +
           std::to_string(r * r);
  }
};

struct Band {
  std::int64_t c2, c1, c0, h, l, r;  // l <= x <= r, p(x) <= y <= p(x) + h
  Frac P(const Frac& x) const { return Frac(c2) * x * x + Frac(c1) * x + Frac(c0); }
  std::string PolyText() const {
    return std::to_string(c2) + "*x^2 + " + std::to_string(c1) + "*x + " + std::to_string(c0);
  }
  // min and max of p over [u, v].
  std::pair<Frac, Frac> Range(const Frac& u, const Frac& v) const {
    Frac lo = P(u), hi = P(v);
    if (hi < lo) std::swap(lo, hi);
    Frac vertex(-c1, 2 * c2);
    if (u <= vertex && vertex <= v) {
      Frac pv = P(vertex);
      if (pv < lo) lo = pv;
      if (hi < pv) hi = pv;
    }
    return {lo, hi};
  }
};

class RegistryCurved final : public Workload {
 public:
  explicit RegistryCurved(std::uint64_t seed) : rng_(seed) {
    // Every seed uses the same radii, leading coefficients, band heights and
    // widths, each in its own order and place, so the cost of the catalog
    // varies less from seed to seed.
    auto dealt = [&](int count, std::int64_t lo, std::int64_t hi) {
      std::vector<std::int64_t> values;
      for (int k = 0; k < count; ++k) values.push_back(lo + k % (hi - lo + 1));
      Shuffle(values, rng_);
      return values;
    };
    std::vector<std::int64_t> radii = dealt(kDisks, 2, 5);
    for (int i = 0; i < kDisks; ++i) {
      disks_.push_back({rng_.Range(-10, 10), rng_.Range(-10, 10), radii[i]});
    }
    std::vector<std::int64_t> leading = dealt(kBands, 1, 2), heights = dealt(kBands, 1, 4),
                              widths = dealt(kBands, 2, 6);
    for (int j = 0; j < kBands; ++j) {
      std::int64_t c2 = rng_.Chance(0.5) ? leading[j] : -leading[j];
      std::int64_t l = rng_.Range(-6, 2);
      bands_.push_back(
          {c2, rng_.Range(-3, 3), rng_.Range(-6, 6), heights[j], l, l + widths[j]});
    }
  }

  ccdb::Status Setup(ccdb::ConstraintDatabase& db) override {
    for (int i = 0; i < kDisks; ++i) {
      CCDB_RETURN_IF_ERROR(
          Define(db, "D" + std::to_string(i) + "(x, y) := " + disks_[i].Poly() + " <= 0"));
      CCDB_RETURN_IF_ERROR(
          Define(db, "C" + std::to_string(i) + "(x, y) := " + disks_[i].Poly() + " = 0"));
    }
    for (int j = 0; j < kBands; ++j) {
      const Band& b = bands_[j];
      CCDB_RETURN_IF_ERROR(
          Define(db, "P" + std::to_string(j) + "(x, y) := x >= " + Frac(b.l).Text() +
                         " and x <= " + Frac(b.r).Text() + " and y - (" + b.PolyText() +
                         ") >= 0 and y - (" + b.PolyText() + ") - " + std::to_string(b.h) +
                         " <= 0"));
    }
    return ccdb::Status::Ok();
  }

  std::uint64_t live_bytes() const override { return live_bytes_; }

  Op Next() override {
    if (deck_.empty()) Deal();
    const Family family = deck_.back();
    deck_.pop_back();
    switch (family) {
      case Family::kDiskDiskY:
        return DiskDisk(/*project_x=*/true);
      case Family::kDiskDiskX:
        return DiskDisk(/*project_x=*/false);
      case Family::kBandY:
        return ClippedBandY();
      case Family::kBandX:
        return ClippedBandX();
      case Family::kSolveLine:
        return SolveCircleLine();
      case Family::kSolveCircle:
        return SolveCircleCircle();
      case Family::kSurfaceBand:
        return SurfaceBand();
      case Family::kSurfaceDisk:
        return SurfaceDisk();
    }
    return SurfaceBand();
  }

 private:
  enum class Family {
    kDiskDiskY, kDiskDiskX, kBandY, kBandX, kSolveLine, kSolveCircle, kSurfaceBand, kSurfaceDisk
  };

  // The families come in shuffled decks of 200 ops with fixed counts, so
  // every stretch of the stream has the same mix. The counts place the read
  // median inside one dense, seed-stable family: band areas, y-clipped bands
  // and the fast share of the circle/line solves (about 31%, all under 3 ms)
  // sit below the x-clipped bands (36%, 4-9 ms), whose middle is then the
  // median; disk pairs and circle/circle solves make the tail. One disk
  // area per deck (0.5%, 200-340 ms each) stays above p99, so p99 lies in
  // the disk-pair tail rather than on the edge between the two.
  void Deal() {
    const std::pair<Family, int> counts[] = {
        {Family::kSurfaceBand, 24}, {Family::kBandY, 24},     {Family::kSolveLine, 32},
        {Family::kBandX, 72},       {Family::kDiskDiskY, 20}, {Family::kDiskDiskX, 20},
        {Family::kSolveCircle, 7},  {Family::kSurfaceDisk, 1}};
    for (const auto& [family, count] : counts) deck_.insert(deck_.end(), count, family);
    Shuffle(deck_, rng_);
  }

  ccdb::Status Define(ccdb::ConstraintDatabase& db, const std::string& text) {
    live_bytes_ += text.size();
    return db.Define(text);
  }

  Frac RandomIn(const Frac& lo, const Frac& hi) {
    Int span = ((hi - lo) * Frac(kProbeDen)).num / ((hi - lo) * Frac(kProbeDen)).den;
    return lo + Frac(rng_.Range(0, static_cast<std::int64_t>(span)), kProbeDen);
  }

  // A disk overlapping disk i when there is one, else any other disk.
  int Partner(int i) {
    std::vector<int> near;
    for (int j = 0; j < kDisks; ++j) {
      const Disk &p = disks_[i], &q = disks_[j];
      std::int64_t dx = p.a - q.a, dy = p.b - q.b, rs = p.r + q.r;
      if (j != i && dx * dx + dy * dy < rs * rs) near.push_back(j);
    }
    if (near.empty()) return (i + 1) % kDisks;
    return near[rng_.Next() % near.size()];
  }

  // exists y (D_i and D_j and y >= t) over x, or exists x (... x >= t)
  // over y. The clip t keeps texts distinct.
  Op DiskDisk(bool project_x) {
    int i = static_cast<int>(rng_.Range(0, kDisks - 1));
    int j = Partner(i);
    const Disk &p = disks_[i], &q = disks_[j];
    // Free coordinate u, eliminated coordinate w.
    auto center_u = [&](const Disk& d) { return project_x ? d.a : d.b; };
    auto center_w = [&](const Disk& d) { return project_x ? d.b : d.a; };
    Frac t = Frac(std::min(center_w(p), center_w(q))) + Frac(rng_.Range(-16, 16), 4);
    Frac lo = Frac(std::min(center_u(p) - p.r, center_u(q) - q.r) - 1);
    Frac hi = Frac(std::max(center_u(p) + p.r, center_u(q) + q.r) + 1);
    Probes probes;
    for (int k = 0; k < kProbes; ++k) {
      Frac u = RandomIn(lo, hi);
      Frac ap = p.HalfWidthSq(u, center_u(p)), aq = q.HalfWidthSq(u, center_u(q));
      Frac bp(center_w(p)), bq(center_w(q));
      // w ranges over [bp - sqrt(ap), bp + sqrt(ap)] and the same for q,
      // intersected with [t, inf).
      bool inside = Sign(ap) >= 0 && Sign(aq) >= 0 && LeqSqrtSum(bp - bq, ap, aq) &&
                    LeqSqrtSum(bq - bp, ap, aq) && LeqSqrt(t - bp, ap) && LeqSqrt(t - bq, aq);
      probes.push_back({u, inside});
    }
    std::string w = project_x ? "y" : "x", u = project_x ? "x" : "y";
    std::string text = "exists " + w + " (D" + std::to_string(i) + "(x, y) and D" +
                       std::to_string(j) + "(x, y) and " + w + " >= " + t.Text() + ")";
    return ProbeRead(project_x ? "disk_disk_exists_y" : "disk_disk_exists_x", text, u, probes);
  }

  // exists y (P_j and y <= K) over x.
  Op ClippedBandY() {
    int j = static_cast<int>(rng_.Range(0, kBands - 1));
    const Band& b = bands_[j];
    auto [pmin, pmax] = b.Range(Frac(b.l), Frac(b.r));
    Frac k = RandomIn(pmin, pmax);
    Probes probes;
    for (int n = 0; n < kProbes; ++n) {
      Frac x = RandomIn(Frac(b.l - 1), Frac(b.r + 1));
      probes.push_back({x, Frac(b.l) <= x && x <= Frac(b.r) && b.P(x) <= k});
    }
    return ProbeRead("clipped_band_y",
                     "exists y (P" + std::to_string(j) + "(x, y) and y <= " + k.Text() + ")",
                     "x", probes);
  }

  // exists x (P_j and u <= x <= v) over y.
  Op ClippedBandX() {
    int j = static_cast<int>(rng_.Range(0, kBands - 1));
    const Band& b = bands_[j];
    Frac u = RandomIn(Frac(b.l), Frac(b.r));
    Frac v = RandomIn(u, Frac(b.r));
    auto [pmin, pmax] = b.Range(u, v);
    Frac top = pmax + Frac(b.h);
    Probes probes;
    for (int n = 0; n < kProbes; ++n) {
      Frac y = RandomIn(pmin - Frac(1), top + Frac(1));
      probes.push_back({y, pmin <= y && y <= top});
    }
    return ProbeRead("clipped_band_x",
                     "exists x (P" + std::to_string(j) + "(x, y) and x >= " + u.Text() +
                         " and x <= " + v.Text() + ")",
                     "y", probes);
  }

  // A Solve whose exact answer is `expected` (double precision).
  static Op SolveRead(const char* family, std::string text,
                      std::vector<std::pair<double, double>> expected) {
    Op op;
    op.family = family;
    op.span = "engine.solve";
    op.text = text;
    op.call = [text, expected](ccdb::ConstraintDatabase& db) {
      auto result = db.Solve(text, ccdb::Rational(ccdb::BigInt(1), ccdb::BigInt(1 << 24)));
      return std::function<Verdict()>([result = std::move(result), expected]() {
        if (!result.ok()) return ErrorVerdict(result.status());
        std::string canonical;
        bool correct = result->size() == expected.size();
        for (const auto& point : *result) {
          if (point.size() != 2) return Expect(false, "?", "point arity");
          double x = point[0].ToDouble(), y = point[1].ToDouble();
          bool matched = false;
          for (const auto& [ex, ey] : expected) {
            matched = matched || (std::abs(x - ex) <= 1e-6 && std::abs(y - ey) <= 1e-6);
          }
          correct = correct && matched;
          canonical += "(" + point[0].ToString() + "," + point[1].ToString() + ")";
        }
        return Expect(correct, canonical, "points " + canonical);
      });
    };
    return op;
  }

  // A line through an integer point strictly inside circle i: two crossings.
  Op SolveCircleLine() {
    int i = static_cast<int>(rng_.Range(0, kDisks - 1));
    const Disk& d = disks_[i];
    std::int64_t px, py;
    do {
      px = d.a + rng_.Range(-d.r + 1, d.r - 1);
      py = d.b + rng_.Range(-d.r + 1, d.r - 1);
    } while ((px - d.a) * (px - d.a) + (py - d.b) * (py - d.b) >= d.r * d.r);
    std::int64_t A, B;
    do {
      A = rng_.Range(-3, 3);
      B = rng_.Range(-3, 3);
    } while (A == 0 && B == 0);
    std::int64_t C = -(A * px + B * py);
    // Points (px, py) + s (B, -A) on the circle: |(px-a, py-b) + s (B,-A)|^2 = r^2.
    double ux = static_cast<double>(px - d.a), uy = static_cast<double>(py - d.b);
    double qa = static_cast<double>(A * A + B * B);
    double qb = 2 * (ux * static_cast<double>(B) - uy * static_cast<double>(A));
    double qc = ux * ux + uy * uy - static_cast<double>(d.r * d.r);
    double disc = std::sqrt(qb * qb - 4 * qa * qc);
    std::vector<std::pair<double, double>> expected;
    for (double s : {(-qb - disc) / (2 * qa), (-qb + disc) / (2 * qa)}) {
      expected.push_back({static_cast<double>(px) + s * static_cast<double>(B),
                          static_cast<double>(py) - s * static_cast<double>(A)});
    }
    std::string text = "C" + std::to_string(i) + "(x, y) and " + std::to_string(A) + "*x + " +
                       std::to_string(B) + "*y + " + std::to_string(C) + " = 0";
    return SolveRead("solve_circle_line", text, expected);
  }

  // Two circles crossing in two points.
  Op SolveCircleCircle() {
    for (;;) {
      int i = static_cast<int>(rng_.Range(0, kDisks - 1));
      int j = static_cast<int>(rng_.Range(0, kDisks - 1));
      const Disk &p = disks_[i], &q = disks_[j];
      std::int64_t dx = q.a - p.a, dy = q.b - p.b, d2 = dx * dx + dy * dy;
      if (i == j || d2 >= (p.r + q.r) * (p.r + q.r) || d2 <= (p.r - q.r) * (p.r - q.r)) continue;
      double d = std::sqrt(static_cast<double>(d2));
      double along = (static_cast<double>(d2 + p.r * p.r - q.r * q.r)) / (2 * d);
      double off = std::sqrt(static_cast<double>(p.r * p.r) - along * along);
      double mx = static_cast<double>(p.a) + along * static_cast<double>(dx) / d;
      double my = static_cast<double>(p.b) + along * static_cast<double>(dy) / d;
      std::vector<std::pair<double, double>> expected = {
          {mx - off * static_cast<double>(dy) / d, my + off * static_cast<double>(dx) / d},
          {mx + off * static_cast<double>(dy) / d, my - off * static_cast<double>(dx) / d}};
      return SolveRead("solve_circle_circle",
                       "C" + std::to_string(i) + "(x, y) and C" + std::to_string(j) + "(x, y)",
                       expected);
    }
  }

  // The band over [u, v] has area exactly h (v - u).
  Op SurfaceBand() {
    int j = static_cast<int>(rng_.Range(0, kBands - 1));
    const Band& b = bands_[j];
    Frac u = RandomIn(Frac(b.l), Frac(b.r));
    Frac v = RandomIn(u, Frac(b.r));
    Frac area = Frac(b.h) * (v - u);
    return ScalarRead("surface_band",
                      "SURFACE[x, y](P" + std::to_string(j) + "(x, y) and x >= " + u.Text() +
                          " and x <= " + v.Text() + ")(a)",
                      area.ToDouble(), 1e-6, area);
  }

  // A whole disk: pi r^2. (A disk cut by a chord took up to 2.9 s per
  // instance, over the 1 s limit of this workload.)
  Op SurfaceDisk() {
    int i = static_cast<int>(rng_.Range(0, kDisks - 1));
    double r = static_cast<double>(disks_[i].r);
    return ScalarRead("surface_disk", "SURFACE[x, y](D" + std::to_string(i) + "(x, y))(a)",
                      M_PI * r * r, 1e-6);
  }

  Rng rng_;
  std::uint64_t live_bytes_ = 0;
  std::vector<Disk> disks_;
  std::vector<Band> bands_;
  std::vector<Family> deck_;  // the rest of the current deck
};

}  // namespace

std::unique_ptr<Workload> MakeRegistryCurved(std::uint64_t seed) {
  return std::make_unique<RegistryCurved>(seed);
}

}  // namespace perfbench
