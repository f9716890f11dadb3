// registry_linear: a land registry of polygonal parcels.
//
// Parcel(id, x, y) holds the cells of an irregular integer grid; about half
// of the cells are cut along a diagonal into two triangular parcels. Road
// and Zone relations sit beside it. Reads (90%) are drawn Zipf-style from a
// pool four times the whole-query cache; writes (10%) append new parcels in
// a strip east of the grid, so every write invalidates the cached Parcel
// readers while Zone readers stay hot. Once the strip holds kStripColumns
// columns, Parcel is dropped and redefined with the grid alone (two more
// writes), so the union a read instantiates stays within a fixed window
// however many ops a run gets through. Every cold read instantiates the
// whole Parcel union and runs it through planning and Fourier-Motzkin; no
// read needs CAD. Parcel self-joins are left out (tens of seconds each).
//
// The oracle is exact integer geometry: closed convex-polygon containment,
// separating-axis intersection with boxes and segments, Sutherland-Hodgman
// clipping and shoelace areas.
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kGridCols = 18;
constexpr int kGridRows = 18;
constexpr double kSplitShare = 0.6;
constexpr int kRoads = 8;
constexpr std::size_t kReadPool = 1024;  // 4x the whole-query cache (256)
constexpr double kZipfS = 1.0;
constexpr double kWriteShare = 0.10;
// Strip columns (about 29 parcels each) appended before Parcel is reset.
constexpr int kStripColumns = 2;
constexpr int kProbeDen = 8;  // probe points sit on a 1/8 lattice

struct Pt {
  Frac x, y;
};

// A closed convex polygon, integer vertices counter-clockwise.
struct Polygon {
  std::vector<std::pair<std::int64_t, std::int64_t>> v;

  // Inside (closed) iff left of or on every edge.
  bool Contains(const Pt& p) const {
    for (std::size_t i = 0; i < v.size(); ++i) {
      auto [ax, ay] = v[i];
      auto [bx, by] = v[(i + 1) % v.size()];
      Frac cross = Frac(bx - ax) * (p.y - Frac(ay)) - Frac(by - ay) * (p.x - Frac(ax));
      if (Sign(cross) < 0) return false;
    }
    return true;
  }

  // Separating-axis test against the closed box [x0,x1] x [y0,y1] (which
  // may be degenerate: a road segment).
  bool Intersects(const Frac& x0, const Frac& x1, const Frac& y0, const Frac& y1) const {
    std::vector<std::pair<Int, Int>> axes = {{1, 0}, {0, 1}};
    for (std::size_t i = 0; i < v.size(); ++i) {
      auto [ax, ay] = v[i];
      auto [bx, by] = v[(i + 1) % v.size()];
      axes.push_back({-(by - ay), bx - ax});
    }
    const Pt corners[4] = {{x0, y0}, {x0, y1}, {x1, y0}, {x1, y1}};
    for (auto [nx, ny] : axes) {
      auto project = [&](const Frac& x, const Frac& y) { return Frac(nx) * x + Frac(ny) * y; };
      Frac pmin = project(Frac(v[0].first), Frac(v[0].second)), pmax = pmin;
      for (auto [px, py] : v) {
        Frac d = project(Frac(px), Frac(py));
        if (d < pmin) pmin = d;
        if (pmax < d) pmax = d;
      }
      Frac bmin = project(corners[0].x, corners[0].y), bmax = bmin;
      for (const Pt& c : corners) {
        Frac d = project(c.x, c.y);
        if (d < bmin) bmin = d;
        if (bmax < d) bmax = d;
      }
      if (pmax < bmin || bmax < pmin) return false;
    }
    return true;
  }

  // Exact area of the polygon clipped to the box (Sutherland-Hodgman).
  Frac ClippedArea(const Frac& x0, const Frac& x1, const Frac& y0, const Frac& y1) const {
    std::vector<Pt> poly;
    for (auto [px, py] : v) poly.push_back({Frac(px), Frac(py)});
    // Keep the side where sign * (coord - bound) >= 0.
    auto clip = [&](bool on_x, const Frac& bound, int sign) {
      std::vector<Pt> out;
      auto dist = [&](const Pt& p) {
        Frac d = (on_x ? p.x : p.y) - bound;
        return sign > 0 ? d : Frac(0) - d;
      };
      for (std::size_t i = 0; i < poly.size(); ++i) {
        const Pt& a = poly[i];
        const Pt& b = poly[(i + 1) % poly.size()];
        Frac da = dist(a), db = dist(b);
        if (Sign(da) >= 0) out.push_back(a);
        if ((Sign(da) < 0 && Sign(db) > 0) || (Sign(da) > 0 && Sign(db) < 0)) {
          Frac t = da / (da - db);
          out.push_back({a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)});
        }
      }
      poly = std::move(out);
    };
    clip(true, x0, 1);
    clip(true, x1, -1);
    clip(false, y0, 1);
    clip(false, y1, -1);
    Frac twice(0);
    for (std::size_t i = 0; i < poly.size(); ++i) {
      const Pt& a = poly[i];
      const Pt& b = poly[(i + 1) % poly.size()];
      twice = twice + (a.x * b.y - b.x * a.y);
    }
    return twice * Frac(1, 2);
  }

  Frac Area() const {
    Int twice = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      auto [ax, ay] = v[i];
      auto [bx, by] = v[(i + 1) % v.size()];
      twice += static_cast<Int>(ax) * by - static_cast<Int>(bx) * ay;
    }
    return Frac(twice, 2);
  }

  // The conjunction of edge half-planes in the engine's syntax.
  std::string Constraints() const {
    std::string text;
    for (std::size_t i = 0; i < v.size(); ++i) {
      auto [ax, ay] = v[i];
      auto [bx, by] = v[(i + 1) % v.size()];
      // (bx-ax)(y-ay) - (by-ay)(x-ax) >= 0
      std::int64_t a = -(by - ay), b = bx - ax, c = (by - ay) * ax - (bx - ax) * ay;
      if (!text.empty()) text += " and ";
      text += std::to_string(a) + "*x + " + std::to_string(b) + "*y + " + std::to_string(c) +
              " >= 0";
    }
    return text;
  }
};

struct Box {
  Frac x0, x1, y0, y1;
  std::string Constraints() const {
    return "x >= " + x0.Text() + " and x <= " + x1.Text() + " and y >= " + y0.Text() +
           " and y <= " + y1.Text();
  }
};

enum class Family { kPoint, kWindow, kRoad, kZone, kShape, kSurface, kSurfaceWindow, kContains };

struct ReadSpec {
  Family family;
  Pt point;    // kPoint, kZone, kContains
  Box box;     // kWindow, kSurfaceWindow
  int id = 0;  // kRoad: road id; kShape, kSurface, kSurfaceWindow, kContains: parcel id
};

class RegistryLinear final : public Workload {
 public:
  explicit RegistryLinear(std::uint64_t seed) : rng_(seed), zipf_(kReadPool, kZipfS) {
    // Every seed shuffles the same cell sizes and cuts exactly kSplitShare
    // of the cells, so every grid has the same extent and parcel count.
    for (auto [lines, n] : {std::pair{&xs_, kGridCols}, std::pair{&ys_, kGridRows}}) {
      std::vector<std::int64_t> steps;
      for (int i = 0; i < n; ++i) steps.push_back(2 + i % 5);
      Shuffle(steps, rng_);
      lines->push_back(0);
      for (std::int64_t step : steps) lines->push_back(lines->back() + step);
    }
    std::vector<char> split(kGridCols * kGridRows, 0);
    std::fill(split.begin(), split.begin() + static_cast<int>(kSplitShare * split.size()), 1);
    Shuffle(split, rng_);
    for (int i = 0; i < kGridCols; ++i) {
      for (int j = 0; j < kGridRows; ++j) {
        AddCell(xs_[i], xs_[i + 1], ys_[j], ys_[j + 1], split[i * kGridRows + j] != 0);
      }
    }
    // Roads run along grid lines across the whole grid.
    for (int r = 0; r < kRoads; ++r) {
      if (r % 2 == 0) {
        std::int64_t y = ys_[rng_.Range(1, kGridRows - 1)];
        roads_.push_back({Frac(0), Frac(xs_.back()), Frac(y), Frac(y)});
      } else {
        std::int64_t x = xs_[rng_.Range(1, kGridCols - 1)];
        roads_.push_back({Frac(x), Frac(x), Frac(0), Frac(ys_.back())});
      }
    }
    // Four zones: the quadrants around a random interior grid point.
    std::int64_t zx = xs_[rng_.Range(4, kGridCols - 4)], zy = ys_[rng_.Range(4, kGridRows - 4)];
    std::int64_t far_x = xs_.back() + 40, far_y = ys_.back();
    zones_ = {{Frac(0), Frac(zx), Frac(0), Frac(zy)},
              {Frac(zx), Frac(far_x), Frac(0), Frac(zy)},
              {Frac(0), Frac(zx), Frac(zy), Frac(far_y)},
              {Frac(zx), Frac(far_x), Frac(zy), Frac(far_y)}};
    initial_parcels_ = parcels_.size();
    strip_x_ = xs_.back();
    for (std::size_t k = 0; k < initial_parcels_; ++k) {
      parcel_definition_ += k == 0 ? "Parcel(id, x, y) := " : " or ";
      parcel_definition_ += "(" + ParcelBody(static_cast<int>(k)) + ")";
    }
    for (std::size_t i = 0; i < kReadPool; ++i) pool_.push_back(MakeSpec(i));
  }

  ccdb::Status Setup(ccdb::ConstraintDatabase& db) override {
    parcel_bytes_ = parcel_definition_.size();
    CCDB_RETURN_IF_ERROR(db.Define(parcel_definition_));
    std::string roads;
    for (std::size_t r = 0; r < roads_.size(); ++r) {
      if (!roads.empty()) roads += " or ";
      roads += "(r = " + std::to_string(r) + " and " + roads_[r].Constraints() + ")";
    }
    roads = "Road(r, x, y) := " + roads;
    CCDB_RETURN_IF_ERROR(db.Define(roads));
    std::string zones;
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      if (!zones.empty()) zones += " or ";
      zones += "(z = " + std::to_string(z) + " and " + zones_[z].Constraints() + ")";
    }
    zones = "Zone(z, x, y) := " + zones;
    other_bytes_ = roads.size() + zones.size();
    return db.Define(zones);
  }

  Op Next() override {
    if (queued_.has_value()) {
      Op op = std::move(*queued_);
      queued_.reset();
      return op;
    }
    if (rng_.Chance(kWriteShare)) return InsertOp();
    return ReadOp(pool_[zipf_.Sample(rng_)]);
  }

  std::uint64_t live_bytes() const override { return parcel_bytes_ + other_bytes_; }

 private:
  void AddCell(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1, bool cut) {
    if (!cut) {
      parcels_.push_back({{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}}});
    } else if (rng_.Chance(0.5)) {  // cut along the rising diagonal
      parcels_.push_back({{{x0, y0}, {x1, y0}, {x1, y1}}});
      parcels_.push_back({{{x0, y0}, {x1, y1}, {x0, y1}}});
    } else {  // cut along the falling diagonal
      parcels_.push_back({{{x0, y0}, {x1, y0}, {x0, y1}}});
      parcels_.push_back({{{x1, y0}, {x1, y1}, {x0, y1}}});
    }
  }

  std::string ParcelBody(int k) const {
    return "id = " + std::to_string(k) + " and " + parcels_[k].Constraints();
  }

  // The grid plus the strip the writes fill.
  Frac Coord(std::int64_t lo, std::int64_t hi) {
    return Frac(rng_.Range(lo * kProbeDen, hi * kProbeDen), kProbeDen);
  }
  Pt RandomPoint() { return {Coord(0, xs_.back() + 12), Coord(0, ys_.back())}; }

  // Families sit at fixed pool ranks, so the mix the Zipf draw sees is the
  // same for every seed; only the geometry varies.
  ReadSpec MakeSpec(std::size_t rank) {
    static constexpr Family kPattern[] = {
        Family::kPoint,  Family::kContains, Family::kWindow,  Family::kZone,
        Family::kShape,  Family::kPoint,    Family::kSurface, Family::kPoint,
        Family::kWindow, Family::kContains, Family::kPoint,   Family::kRoad,
        Family::kZone,   Family::kSurface,  Family::kPoint,   Family::kShape,
        Family::kWindow, Family::kContains, Family::kPoint,   Family::kSurfaceWindow};
    ReadSpec s;
    s.family = kPattern[rank % std::size(kPattern)];
    int ids = static_cast<int>(initial_parcels_);
    switch (s.family) {
      case Family::kPoint:
      case Family::kZone:
        s.point = RandomPoint();
        break;
      case Family::kWindow: {
        Pt c = RandomPoint();
        s.box = {c.x, c.x + Frac(rng_.Range(1, 3)), c.y, c.y + Frac(rng_.Range(1, 3))};
        break;
      }
      case Family::kRoad:
        s.id = static_cast<int>(rng_.Range(0, kRoads - 1));
        break;
      case Family::kShape:
      case Family::kSurface:
        s.id = static_cast<int>(rng_.Range(0, ids - 1));
        break;
      case Family::kSurfaceWindow: {
        // The part of one parcel inside a window near its first vertex.
        s.id = static_cast<int>(rng_.Range(0, ids - 1));
        auto [vx, vy] = parcels_[s.id].v[0];
        Pt c{Frac(vx) - Frac(rng_.Range(0, 8), 4), Frac(vy) - Frac(rng_.Range(0, 8), 4)};
        s.box = {c.x, c.x + Frac(rng_.Range(1, 3)), c.y, c.y + Frac(rng_.Range(1, 3))};
        break;
      }
      case Family::kContains:
        s.id = static_cast<int>(rng_.Range(0, ids - 1));
        s.point = RandomPoint();
        break;
    }
    return s;
  }

  // Ids of the parcels satisfying `pred`, ascending.
  template <typename Pred>
  std::vector<int> Ids(Pred pred) const {
    std::vector<int> ids;
    for (std::size_t k = 0; k < parcels_.size(); ++k) {
      if (pred(parcels_[k])) ids.push_back(static_cast<int>(k));
    }
    return ids;
  }

  static Op IdSetRead(const char* family, std::string text, std::vector<int> expected) {
    Op op;
    op.family = family;
    op.span = "engine.query";
    op.text = text;
    op.call = [text, expected = IdsText(expected)](ccdb::ConstraintDatabase& db) {
      auto result = db.Query(text);
      return std::function<Verdict()>([result = std::move(result), expected]() {
        if (!result.ok()) return ErrorVerdict(result.status());
        std::string got = PinnedText(result->relation);
        return Measured(Expect(got == expected, got, "ids " + got + " != " + expected),
                        result->relation);
      });
    };
    return op;
  }

  static Op AreaRead(const char* family, std::string text, const Frac& area) {
    return ScalarRead(family, std::move(text), area.ToDouble(), 1e-6, area);
  }

  Op ReadOp(const ReadSpec& s) const {
    switch (s.family) {
      case Family::kPoint: {
        std::string text = "Parcel(id, " + s.point.x.Text() + ", " + s.point.y.Text() + ")";
        return IdSetRead("point_location", text,
                         Ids([&](const Polygon& p) { return p.Contains(s.point); }));
      }
      case Family::kWindow: {
        std::string text = "exists x y (Parcel(id, x, y) and " + s.box.Constraints() + ")";
        return IdSetRead("window", text, Ids([&](const Polygon& p) {
                           return p.Intersects(s.box.x0, s.box.x1, s.box.y0, s.box.y1);
                         }));
      }
      case Family::kRoad: {
        const Box& r = roads_[s.id];
        std::string text =
            "exists x y (Parcel(id, x, y) and Road(" + std::to_string(s.id) + ", x, y))";
        return IdSetRead("road_adjacency", text, Ids([&](const Polygon& p) {
                           return p.Intersects(r.x0, r.x1, r.y0, r.y1);
                         }));
      }
      case Family::kZone: {
        std::vector<int> zones;
        for (std::size_t z = 0; z < zones_.size(); ++z) {
          const Box& b = zones_[z];
          if (b.x0 <= s.point.x && s.point.x <= b.x1 && b.y0 <= s.point.y && s.point.y <= b.y1) {
            zones.push_back(static_cast<int>(z));
          }
        }
        return IdSetRead("zone_of_point",
                         "Zone(z, " + s.point.x.Text() + ", " + s.point.y.Text() + ")", zones);
      }
      case Family::kShape:
        return ShapeRead(s.id);
      case Family::kSurface:
        return AreaRead("surface_parcel",
                        "SURFACE[x, y](Parcel(" + std::to_string(s.id) + ", x, y))(a)",
                        parcels_[s.id].Area());
      case Family::kSurfaceWindow: {
        const Polygon& p = parcels_[s.id];
        return AreaRead("surface_window",
                        "SURFACE[x, y](Parcel(" + std::to_string(s.id) + ", x, y) and " +
                            s.box.Constraints() + ")(a)",
                        p.ClippedArea(s.box.x0, s.box.x1, s.box.y0, s.box.y1));
      }
      case Family::kContains:
        return ContainsRead(s.id, s.point);
    }
    return Op{};
  }

  // The parcel's shape as a relation over (x, y), probed at its vertices,
  // just inside and just outside each edge midpoint, and at a point of the
  // pool (usually far away).
  Op ShapeRead(int id) const {
    const Polygon& poly = parcels_[id];
    std::vector<std::pair<Pt, bool>> probes;
    for (std::size_t i = 0; i < poly.v.size(); ++i) {
      auto [ax, ay] = poly.v[i];
      auto [bx, by] = poly.v[(i + 1) % poly.v.size()];
      probes.push_back({{Frac(ax), Frac(ay)}, true});
      Frac mx(ax + bx, 2), my(ay + by, 2);
      Frac nx(-(by - ay), 64), ny(bx - ax, 64);  // inward normal, scaled
      for (int side : {1, -1}) {
        Pt p{mx + Frac(side) * nx, my + Frac(side) * ny};
        probes.push_back({p, poly.Contains(p)});
      }
    }
    Pt far{Frac(xs_.back() + 50), Frac(-3)};
    probes.push_back({far, poly.Contains(far)});
    std::string text = "Parcel(" + std::to_string(id) + ", x, y)";
    Op op;
    op.family = "parcel_shape";
    op.span = "engine.query";
    op.text = text;
    op.call = [text, probes](ccdb::ConstraintDatabase& db) {
      auto result = db.Query(text);
      return std::function<Verdict()>([result = std::move(result), probes]() {
        if (!result.ok()) return ErrorVerdict(result.status());
        std::string bits;
        bool correct = true;
        for (const auto& [p, inside] : probes) {
          bool got = result->relation.Contains({p.x.ToRational(), p.y.ToRational()});
          bits += got ? '1' : '0';
          correct = correct && got == inside;
        }
        return Measured(Expect(correct, result->relation.ToString({"x", "y"}),
                               "shape probes " + bits),
                        result->relation);
      });
    };
    return op;
  }

  Op ContainsRead(int id, const Pt& p) const {
    bool expected = parcels_[id].Contains(p);
    Op op;
    op.family = "contains";
    op.span = "storage.contains";
    op.text = "Contains Parcel(" + std::to_string(id) + ", " + p.x.Text() + ", " + p.y.Text() + ")";
    std::vector<ccdb::Rational> point = {ccdb::Rational(id), p.x.ToRational(), p.y.ToRational()};
    op.call = [point, expected](ccdb::ConstraintDatabase& db) {
      auto result = db.Contains("Parcel", point);
      return std::function<Verdict()>([result = std::move(result), expected]() {
        if (!result.ok()) return ErrorVerdict(result.status());
        return Expect(*result == expected, *result ? "1" : "0", "membership differs");
      });
    };
    return op;
  }

  // Appends the next parcel of the eastern strip (cells of the columns past
  // the grid, bottom to top). Once the strip is full, resets Parcel instead:
  // returns its Drop and queues its Define with the grid alone.
  Op InsertOp() {
    if (pending_.empty() && strip_columns_ == kStripColumns) {
      parcels_.resize(initial_parcels_);
      strip_x_ = xs_.back();
      strip_columns_ = 0;
      parcel_bytes_ = parcel_definition_.size();
      queued_ = WriteOp("define_parcels", "storage.write", parcel_definition_,
                        [text = parcel_definition_](ccdb::ConstraintDatabase& db) {
                          return db.Define(text);
                        });
      return WriteOp("drop_parcels", "storage.write", "Drop Parcel",
                     [](ccdb::ConstraintDatabase& db) { return db.Drop("Parcel"); });
    }
    if (pending_.empty()) {
      std::int64_t x0 = strip_x_, x1 = strip_x_ + rng_.Range(2, 6);
      strip_x_ = x1;
      ++strip_columns_;
      std::size_t before = parcels_.size();
      for (int j = 0; j < kGridRows; ++j) {
        AddCell(x0, x1, ys_[j], ys_[j + 1], rng_.Chance(kSplitShare));
      }
      // Pending until inserted: the oracle sees a parcel once its write ran.
      pending_.assign(parcels_.begin() + before, parcels_.end());
      parcels_.resize(before);
    }
    int id = static_cast<int>(parcels_.size());
    parcels_.push_back(pending_.front());
    pending_.erase(pending_.begin());
    std::string text = "Parcel(id, x, y) := " + ParcelBody(id);
    parcel_bytes_ += text.size();
    return WriteOp("insert_parcel", "storage.write", text,
                   [text](ccdb::ConstraintDatabase& db) { return db.Insert(text); });
  }

  Rng rng_;
  Zipf zipf_;
  std::vector<std::int64_t> xs_, ys_;
  std::vector<Polygon> parcels_;
  std::size_t initial_parcels_ = 0;
  std::string parcel_definition_;  // Parcel with the grid alone
  std::vector<Box> roads_, zones_;
  std::vector<ReadSpec> pool_;
  // Definition bytes of Parcel's live tuples, and of Road and Zone.
  std::uint64_t parcel_bytes_ = 0, other_bytes_ = 0;
  std::int64_t strip_x_ = 0;
  int strip_columns_ = 0;
  std::vector<Polygon> pending_;
  std::optional<Op> queued_;  // the Define that follows a reset's Drop
};

}  // namespace

std::unique_ptr<Workload> MakeRegistryLinear(std::uint64_t seed) {
  return std::make_unique<RegistryLinear>(seed);
}

}  // namespace perfbench
