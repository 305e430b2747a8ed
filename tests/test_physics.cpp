#include "weather/physics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace adaptviz {
namespace {

constexpr LatLon kBay{14.0, 88.5};       // warm open ocean
constexpr LatLon kInland{23.0, 80.0};    // central India

TEST(IntensityOde, DeepensOverWarmOcean) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const double d0 = phys.deficit_hpa();
  for (int i = 0; i < 12 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());  // 12 h, no motion
  }
  EXPECT_GT(phys.deficit_hpa(), d0 + 4.0);
  EXPECT_LT(phys.central_pressure_hpa(), kEnvPressureHpa - d0 - 4.0);
}

TEST(IntensityOde, SaturatesBelowDeficitMax) {
  PhysicsConfig cfg;
  CyclonePhysics phys(cfg, 9.0, kBay);
  for (int i = 0; i < 200 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());
  }
  EXPECT_LE(phys.deficit_hpa(), cfg.deficit_max_hpa + 1e-9);
  EXPECT_GT(phys.deficit_hpa(), 0.8 * cfg.deficit_max_hpa);
}

TEST(IntensityOde, AilaTimeline) {
  // Paper-aligned milestones: < 995 hPa (nest spawn) ~8-16 h in; the full
  // Table III ladder (986 hPa) complete by ~22-32 h.
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  double t_995 = -1.0;
  double t_986 = -1.0;
  for (int minute = 0; minute < 60 * 60; ++minute) {
    phys.advance(60.0, 0.0, 0.0, phys.center());
    const double p = phys.central_pressure_hpa();
    const double h = minute / 60.0;
    if (t_995 < 0 && p < 995.0) t_995 = h;
    if (t_986 < 0 && p < 986.0) t_986 = h;
  }
  EXPECT_GT(t_995, 4.0);
  EXPECT_LT(t_995, 18.0);
  EXPECT_GT(t_986, t_995);
  EXPECT_LT(t_986, 34.0);
}

TEST(IntensityOde, DecaysOverLand) {
  CyclonePhysics phys(PhysicsConfig{}, 30.0, kInland);
  const double d0 = phys.deficit_hpa();
  for (int i = 0; i < 6 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());  // 6 h over land
  }
  EXPECT_LT(phys.deficit_hpa(), 0.7 * d0);
}

TEST(Motion, CenterAdvectsWithSteering) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  // 5 m/s due north for 10 h = 180 km ~ 1.62 degrees.
  for (int i = 0; i < 10 * 60; ++i) {
    phys.advance(60.0, 0.0, 5.0, phys.center());
  }
  EXPECT_NEAR(phys.center().lat, kBay.lat + 1.62, 0.1);
  EXPECT_NEAR(phys.center().lon, kBay.lon, 0.05);
}

TEST(Motion, PullsTowardDiagnosedEye) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const LatLon eye{14.5, 89.0};  // dynamics says the storm is NE of us
  for (int i = 0; i < 6 * 60; ++i) phys.advance(60.0, 0.0, 0.0, eye);
  EXPECT_GT(phys.center().lat, kBay.lat + 0.2);
  EXPECT_GT(phys.center().lon, kBay.lon + 0.2);
}

TEST(Motion, IgnoresFarAwayEye) {
  // A diagnosed minimum 1000+ km away is noise, not the storm.
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const LatLon far{30.0, 70.0};
  for (int i = 0; i < 60; ++i) phys.advance(60.0, 0.0, 0.0, far);
  EXPECT_NEAR(phys.center().lat, kBay.lat, 0.01);
}

TEST(TargetVortex, ResolvableCore) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  const HollandVortex fine = phys.target_vortex(10.0);
  const HollandVortex coarse = phys.target_vortex(150.0);
  EXPECT_GE(coarse.r_max_km, 2.2 * 150.0);
  EXPECT_LT(fine.r_max_km, coarse.r_max_km);
  EXPECT_DOUBLE_EQ(fine.deficit_hpa, 20.0);
}

TEST(TargetVortex, CoreShrinksWithIntensity) {
  PhysicsConfig cfg;
  CyclonePhysics weak(cfg, 5.0, kBay);
  CyclonePhysics strong(cfg, 40.0, kBay);
  EXPECT_GT(weak.target_vortex(5.0).r_max_km,
            strong.target_vortex(5.0).r_max_km);
  EXPECT_GE(strong.target_vortex(5.0).r_max_km, cfg.r_floor_km);
}

TEST(Forcing, FieldsShapedAroundCenter) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  DomainState s(g);  // at rest; the forcing should push it toward the target
  const Field2D land = land_mask(g);
  Field2D q, fu, fv, relax;
  phys.build_forcing(s, land, q, fu, fv, relax);

  // Mass sink strongest at the centre (h target most negative there).
  const std::size_t ci = static_cast<std::size_t>(g.x_of_lon(kBay.lon));
  const std::size_t cj = static_cast<std::size_t>(g.y_of_lat(kBay.lat));
  EXPECT_LT(q(ci, cj), 0.0);
  EXPECT_GT(std::fabs(q(ci, cj)), std::fabs(q(2, 2)));
  // Mass forcing decays far from the storm (corner ~1300 km out).
  EXPECT_LT(std::fabs(q(0, 0)), 0.2 * std::fabs(q(ci, cj)));
  // Wind forcing is cyclonic: east of centre, v-tendency positive.
  EXPECT_GT(fv(ci + 2, cj), 0.0);
  EXPECT_LT(fv(ci - 2, cj), 0.0);
  // Relaxation: strong over land, weak near the storm core.
  const std::size_t land_i = static_cast<std::size_t>(g.x_of_lon(80.5));
  const std::size_t land_j = static_cast<std::size_t>(g.y_of_lat(17.0));
  EXPECT_GT(relax(land_i, land_j), relax(ci, cj));
  EXPECT_LT(relax(ci, cj), 1.0 / (6.0 * 3600.0));
}

TEST(Forcing, ShapeMismatchRejected) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 10.0, 10.0, 100.0);
  DomainState s(g);
  Field2D land(2, 2);
  Field2D q, fu, fv, relax;
  EXPECT_THROW(phys.build_forcing(s, land, q, fu, fv, relax),
               std::invalid_argument);
}

// Regression: a caller whose mass_tendency already had the grid's shape but
// whose other outputs did not used to get writes past their ends. Each
// output is now shaped on its own (run under ASan to see the old bug).
TEST(Forcing, ShapesEveryOutputOnItsOwn) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  DomainState s(g);
  const Field2D land = land_mask(g);
  Field2D q(g.nx(), g.ny()), fu, fv(3, 3), relax(g.nx() + 1, g.ny());
  phys.build_forcing(s, land, q, fu, fv, relax);
  for (const Field2D* f : {&q, &fu, &fv, &relax}) {
    EXPECT_EQ(f->nx(), g.nx());
    EXPECT_EQ(f->ny(), g.ny());
  }
  Field2D q2, fu2, fv2, relax2;
  phys.build_forcing(s, land, q2, fu2, fv2, relax2);
  EXPECT_EQ(q, q2);
  EXPECT_EQ(fu, fu2);
  EXPECT_EQ(fv, fv2);
  EXPECT_EQ(relax, relax2);

  // The split entry points shape their outputs the same way.
  ForcingGeometry geometry;
  geometry.w = Field2D(g.nx(), g.ny());
  Field2D relax3(1, 1);
  phys.build_forcing_geometry(g, land, geometry, relax3);
  EXPECT_EQ(relax3, relax);
  Field2D q3(g.nx(), g.ny()), fu3(2, 2), fv3;
  phys.apply_forcing(geometry, s, q3, fu3, fv3);
  EXPECT_EQ(q3, q);
  EXPECT_EQ(fu3, fu);
  EXPECT_EQ(fv3, fv);
}

TEST(Forcing, ApplyRejectsGeometryOfAnotherGrid) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  GridSpec other(80.0, 5.0, 10.0, 10.0, 100.0);
  ForcingGeometry geometry;
  Field2D relax;
  phys.build_forcing_geometry(other, land_mask(other), geometry, relax);
  DomainState s(g);
  Field2D q, fu, fv;
  EXPECT_THROW(phys.apply_forcing(geometry, s, q, fu, fv),
               std::invalid_argument);
}

bool bitwise_equal(const Field2D& a, const Field2D& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

/// A flow state that differs per `seed`, with h > 0 and h < 0 regions so
/// a product by w = 0 would yield -0.0 somewhere.
DomainState flow_state(const GridSpec& g, int seed) {
  DomainState s(g);
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const double x = static_cast<double>(i) + seed;
      const double y = static_cast<double>(j) - 2.0 * seed;
      s.h(i, j) = 40.0 * std::sin(0.11 * x + 0.07 * y) - 5.0 * seed;
      s.u(i, j) = 6.0 * std::cos(0.05 * x * y / (1.0 + seed));
      s.v(i, j) = -3.0 + 0.01 * x * seed - 0.02 * y;
    }
  }
  return s;
}

/// Nest-shaped physics: a small eye (r_max 30 km) on a ~6-degree, 12-km
/// grid puts the w = 1e-4 cut-off (~386 km) between the grid's edge
/// midpoints and its corners, with the storm centre exactly on a grid point.
struct NestCase {
  NestCase() : phys(small_eye(), 30.0, kBay), g(85.0, 11.0, 6.0, 6.0, 12.0) {
    ci = g.nx() / 2;
    cj = g.ny() / 2;
    phys.restore(30.0, g.at(ci, cj));
  }
  static PhysicsConfig small_eye() {
    PhysicsConfig cfg;
    cfg.r_max0_km = 30.0;
    cfg.r_shrink_km_per_hpa = 0.0;
    cfg.r_floor_km = 20.0;
    return cfg;
  }
  CyclonePhysics phys;
  GridSpec g;
  std::size_t ci = 0;
  std::size_t cj = 0;
};

TEST(Forcing, GeometryOnceApplyThriceEqualsBuildForcingThrice) {
  NestCase nc;
  const GridSpec& g = nc.g;
  const Field2D land = land_mask(g);

  ForcingGeometry geometry;
  Field2D relax;
  nc.phys.build_forcing_geometry(g, land, geometry, relax);

  // The case covers what it claims: r = 0 at the centre, and points on
  // both sides of the cut-off.
  ASSERT_EQ(distance_km(g.at(nc.ci, nc.cj), nc.phys.center()), 0.0);
  EXPECT_EQ(geometry.w(nc.ci, nc.cj), 1.0);
  EXPECT_EQ(geometry.u_target(nc.ci, nc.cj), 0.0);
  std::size_t core = 0;
  std::size_t outside = 0;
  for (double w : geometry.w.data()) (w != 0.0 ? core : outside)++;
  EXPECT_GT(core, 0u);
  EXPECT_GT(outside, 0u);

  Field2D q, fu, fv;
  Field2D q_ref, fu_ref, fv_ref, relax_ref;
  for (int seed = 0; seed < 3; ++seed) {
    const DomainState s = flow_state(g, seed);
    nc.phys.apply_forcing(geometry, s, q, fu, fv);
    nc.phys.build_forcing(s, land, q_ref, fu_ref, fv_ref, relax_ref);
    EXPECT_TRUE(bitwise_equal(q, q_ref)) << "seed " << seed;
    EXPECT_TRUE(bitwise_equal(fu, fu_ref)) << "seed " << seed;
    EXPECT_TRUE(bitwise_equal(fv, fv_ref)) << "seed " << seed;
    EXPECT_TRUE(bitwise_equal(relax, relax_ref)) << "seed " << seed;
  }

  // A last application may take the geometry's own targets as its outputs,
  // as the parent domain does in WeatherModel::step.
  nc.phys.apply_forcing(geometry, flow_state(g, 2), geometry.h_target,
                        geometry.u_target, geometry.v_target);
  EXPECT_TRUE(bitwise_equal(geometry.h_target, q_ref));
  EXPECT_TRUE(bitwise_equal(geometry.u_target, fu_ref));
  EXPECT_TRUE(bitwise_equal(geometry.v_target, fv_ref));
}

// Live oracle: the split forcing equals, bit for bit, the per-point formula
// it was hoisted from (distance, weight, targets and relaxation evaluated
// from GridSpec::at at every point), including +0.0 outside the core.
TEST(Forcing, SplitMatchesPerPointFormula) {
  NestCase nc;
  const GridSpec& g = nc.g;
  const CyclonePhysics& phys = nc.phys;
  const PhysicsConfig& cfg = phys.config();
  const Field2D land = land_mask(g);
  const DomainState s = flow_state(g, 1);
  Field2D q, fu, fv, relax;
  phys.build_forcing(s, land, q, fu, fv, relax);

  const LatLon c = phys.center();
  const HollandVortex target = phys.target_vortex(g.resolution_km());
  const double inv_tau = 1.0 / (cfg.mass_relax_tau_hours * 3600.0);
  const double inv_tau_fric = 1.0 / (cfg.land_friction_tau_hours * 3600.0);
  const double inv_tau_nudge = 1.0 / (cfg.nudge_tau_hours * 3600.0);
  const double storm_radius = 5.0 * target.r_max_km;
  const double sigma2 = 2.0 * 9.0 * target.r_max_km * target.r_max_km;
  const double fcor = coriolis(c.lat);
  const double deg2rad = 3.14159265358979 / 180.0;
  Field2D q_ref(g.nx(), g.ny()), fu_ref(g.nx(), g.ny()),
      fv_ref(g.nx(), g.ny()), relax_ref(g.nx(), g.ny());
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const LatLon p = g.at(i, j);
      const double r = distance_km(p, c);
      const double w = std::exp(-(r * r) / sigma2);
      if (w > 1e-4) {
        q_ref(i, j) = w * (target.height_anomaly_m(r) - s.h(i, j)) * inv_tau;
        double ut = 0.0;
        double vt = 0.0;
        if (r > 1.0) {
          const double vt_mag = target.balanced_tangential_wind(r, fcor);
          const double coslat = std::cos(0.5 * (p.lat + c.lat) * deg2rad);
          const double dx = (p.lon - c.lon) * kKmPerDegree * coslat;
          const double dy = (p.lat - c.lat) * kKmPerDegree;
          ut = vt_mag * (-dy / r);
          vt = vt_mag * (dx / r);
        }
        fu_ref(i, j) = w * (ut - s.u(i, j)) * inv_tau;
        fv_ref(i, j) = w * (vt - s.v(i, j)) * inv_tau;
      }
      const double w_storm =
          std::exp(-(r * r) / (2.0 * storm_radius * storm_radius));
      relax_ref(i, j) =
          land(i, j) * inv_tau_fric + (1.0 - w_storm) * inv_tau_nudge;
    }
  }
  EXPECT_TRUE(bitwise_equal(q, q_ref));
  EXPECT_TRUE(bitwise_equal(fu, fu_ref));
  EXPECT_TRUE(bitwise_equal(fv, fv_ref));
  EXPECT_TRUE(bitwise_equal(relax, relax_ref));
}

TEST(Physics, ConstructorValidates) {
  EXPECT_THROW(CyclonePhysics(PhysicsConfig{}, 0.0, kBay),
               std::invalid_argument);
  EXPECT_THROW(CyclonePhysics(PhysicsConfig{}, 1000.0, kBay),
               std::invalid_argument);
}

TEST(Physics, RestoreSetsState) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  phys.restore(25.0, LatLon{18.0, 88.0});
  EXPECT_DOUBLE_EQ(phys.deficit_hpa(), 25.0);
  EXPECT_DOUBLE_EQ(phys.center().lat, 18.0);
}

}  // namespace
}  // namespace adaptviz
