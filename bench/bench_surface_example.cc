// Experiment E2 — Example 5.1/5.4 of the paper: the SURFACE aggregate.
//
//   SURFACE[x,y](S(x,y) and y <= 9)(z) = 27 - (F(4) - F(1)) = 18
//   with F(x) = 4/3 x^3 - 10 x^2 + 25 x.
//
// The harness evaluates the paper's query exactly, checks the
// antiderivative identity the paper spells out, and sweeps the clipping
// height to show the aggregate responds exactly to the region. Two
// regions whose boundaries are not polynomial graphs y = g(x) then take
// the numeric path (Gauss–Legendre quadrature over the CAD's x-sectors);
// each is checked against its closed form, and so are two VOLUME solids.
// Writes BENCH_surface_example.json.

#include "bench_util.h"
#include "engine/database.h"
#include "numeric/quadrature.h"

using namespace ccdb;

int main(int argc, char** argv) {
  ccdb_bench::InitBenchTracing(argc, argv);
  ccdb_bench::Header("E2: SURFACE aggregate (Example 5.1/5.4)",
                     "SURFACE(S and y <= 9) = 18, via the primitive "
                     "F(x) = 4/3 x^3 - 10x^2 + 25x");

  // The paper's own computation: 27 - (F(4) - F(1)) = 18 where F is the
  // antiderivative of -(-4x^2 + 20x - 25)... reproduce it symbolically.
  UPoly integrand({Rational(-25), Rational(20), Rational(-4)});
  UPoly primitive = AntiDerivative(integrand);
  Rational f4 = primitive.Evaluate(Rational(4));
  Rational f1 = primitive.Evaluate(Rational(1));
  ccdb_bench::Row("F(4) - F(1) = %s (paper: -9)",
                  (f4 - f1).ToString().c_str());
  ccdb_bench::Row("27 - (F(4) - F(1)) = %s (paper: 18)",
                  (Rational(27) + (f4 - f1)).ToString().c_str());

  ConstraintDatabase db(ccdb_bench::DbOptions());
  CCDB_CHECK(db.Define("S(x, y) := 4*x^2 - y - 20*x + 25 <= 0").ok());

  double elapsed = 0.0;
  StatusOr<CalcFResult> area = Status::Internal("unset");
  elapsed = ccdb_bench::TimeSeconds([&] {
    area = db.Query("SURFACE[x, y](S(x, y) and y <= 9)(z)");
  });
  CCDB_CHECK(area.ok());
  ccdb_bench::RecordCell("paper_example", elapsed);
  ccdb_bench::Row("");
  ccdb_bench::Row("engine SURFACE = %s (%s) in %.3f ms",
                  area->scalar.exact_value.ToString().c_str(),
                  area->scalar.exact ? "exact" : "approx", elapsed * 1e3);

  // Sweep the clipping height: area(h) = integral over the clipped
  // parabola = (4/3) * ((h/4)^{3/2}) * 4 ... closed form: width at height
  // h is sqrt(h), region area = 2/3 * w * h with w = half-width... check
  // against independently computed exact values at perfect-square heights.
  ccdb_bench::Row("");
  ccdb_bench::Row("%-10s %16s %16s %8s", "clip h", "engine area",
                  "expected (2/3)wh", "exact?");
  for (int h : {1, 4, 9, 16, 25}) {
    std::string query = "SURFACE[x, y](S(x, y) and y <= " +
                        std::to_string(h) + ")(z)";
    StatusOr<CalcFResult> result = Status::Internal("unset");
    double seconds = ccdb_bench::TimeSeconds([&] { result = db.Query(query); });
    CCDB_CHECK(result.ok());
    ccdb_bench::RecordCell("clip_h" + std::to_string(h), seconds);
    // The parabola y = (2x-5)^2 clipped at height h spans half-width
    // sqrt(h)/2; area = (2/3) * (2 * sqrt(h)/2) * h = (2/3) sqrt(h) h.
    double expected = 2.0 / 3.0 * std::sqrt(static_cast<double>(h)) * h;
    ccdb_bench::Row("%-10d %16s %16.4f %8s", h,
                    result->scalar.exact
                        ? result->scalar.exact_value.ToString().c_str()
                        : "-",
                    expected, result->scalar.exact ? "yes" : "no");
  }

  // Numeric path: circle boundaries, checked against closed forms. The
  // chord y = x + 1 lies d = 1/sqrt(2) from the centre of the radius-2
  // disk and cuts off a segment of area r^2 acos(d/r) - d sqrt(r^2 - d^2).
  double r = 2.0, d = 1.0 / std::sqrt(2.0);
  double segment = r * r * std::acos(d / r) - d * std::sqrt(r * r - d * d);
  struct NumericCell {
    const char* name;
    const char* region;
    double oracle;
  };
  const NumericCell numeric_cells[] = {
      {"disk_r3", "x^2 + y^2 <= 9", 9.0 * M_PI},
      {"chord_cut_disk", "x^2 + y^2 <= 4 and y <= x + 1",
       M_PI * r * r - segment},
  };
  ccdb_bench::Row("");
  ccdb_bench::Row("%-16s %16s %12s %16s %10s", "region", "engine area",
                  "+-estimate", "closed form", "ms");
  for (const NumericCell& cell : numeric_cells) {
    std::string name = cell.name;
    CCDB_CHECK(db.Define("N_" + name + "(x, y) := " + cell.region).ok());
    StatusOr<CalcFResult> result = Status::Internal("unset");
    double seconds = ccdb_bench::TimeSeconds([&] {
      result = db.Query("SURFACE[x, y](N_" + name + "(x, y))(a)");
    });
    CCDB_CHECK(result.ok());
    const AggregateValue& value = result->scalar;
    CCDB_CHECK(result->has_scalar && !value.exact);
    CCDB_CHECK(std::abs(value.Value() - cell.oracle) <= value.error_estimate);
    ccdb_bench::Row("%-16s %16.10f %12.1e %16.10f %10.3f", cell.name,
                    value.Value(), value.error_estimate, cell.oracle,
                    seconds * 1e3);
    ccdb_bench::RecordCell(name, seconds);
  }

  // VOLUME on the same numeric path one level deeper: y-ends at each x
  // node, z-extents at each (x, y) node, all read off one 3-D CAD.
  const NumericCell volume_cells[] = {
      {"ball_volume", "x^2 + y^2 + z^2 <= 1", 4.0 * M_PI / 3.0},
      {"paraboloid_volume", "x^2 + y^2 <= z and z <= 1", M_PI / 2.0},
  };
  ccdb_bench::Row("");
  ccdb_bench::Row("%-18s %14s %12s %16s %10s", "solid", "engine volume",
                  "+-estimate", "closed form", "ms");
  for (const NumericCell& cell : volume_cells) {
    std::string name = cell.name;
    CCDB_CHECK(db.Define("V_" + name + "(x, y, z) := " + cell.region).ok());
    StatusOr<CalcFResult> result = Status::Internal("unset");
    double seconds = ccdb_bench::TimeSeconds([&] {
      result = db.Query("VOLUME[x, y, z](V_" + name + "(x, y, z))(v)");
    });
    CCDB_CHECK(result.ok());
    const AggregateValue& value = result->scalar;
    CCDB_CHECK(result->has_scalar && !value.exact);
    CCDB_CHECK(std::abs(value.Value() - cell.oracle) <= value.error_estimate);
    ccdb_bench::Row("%-18s %14.10f %12.1e %16.10f %10.3f", cell.name,
                    value.Value(), value.error_estimate, cell.oracle,
                    seconds * 1e3);
    ccdb_bench::RecordCell(name, seconds);
  }

  bool match = area->scalar.exact && area->scalar.exact_value == Rational(18);
  ccdb_bench::Row("");
  ccdb_bench::Row("headline result matches paper: %s", match ? "yes" : "NO");
  ccdb_bench::WriteRunRecord("surface_example");
  return match ? 0 : 1;
}
