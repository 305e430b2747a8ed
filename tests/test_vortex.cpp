#include "weather/vortex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace adaptviz {
namespace {

HollandVortex aila_like() {
  return HollandVortex{.center = LatLon{14.0, 88.5},
                       .deficit_hpa = 20.0,
                       .r_max_km = 80.0,
                       .b = 1.5};
}

TEST(Distance, PlanarKm) {
  EXPECT_NEAR(distance_km(LatLon{0, 0}, LatLon{0, 1}), kKmPerDegree, 1e-9);
  EXPECT_NEAR(distance_km(LatLon{10, 88}, LatLon{11, 88}), kKmPerDegree,
              1e-9);
  // Longitude shrinks with cos(lat).
  const double at60 = distance_km(LatLon{60, 0}, LatLon{60, 1});
  EXPECT_NEAR(at60, kKmPerDegree * 0.5, 0.5);
  EXPECT_DOUBLE_EQ(distance_km(LatLon{5, 5}, LatLon{5, 5}), 0.0);
}

TEST(Holland, PressureProfileShape) {
  const HollandVortex v = aila_like();
  // Full deficit at the centre, ~0 far away, monotone in between.
  EXPECT_NEAR(v.pressure_anomaly_hpa(0.1), -20.0, 0.01);
  EXPECT_GT(v.pressure_anomaly_hpa(2000.0), -0.2);
  double prev = v.pressure_anomaly_hpa(1.0);
  for (double r = 20.0; r <= 1000.0; r += 20.0) {
    const double cur = v.pressure_anomaly_hpa(r);
    EXPECT_GE(cur, prev - 1e-12) << "not monotone at r=" << r;
    prev = cur;
  }
}

TEST(Holland, HeightMatchesPressureMapping) {
  const HollandVortex v = aila_like();
  EXPECT_NEAR(v.height_anomaly_m(50.0),
              v.pressure_anomaly_hpa(50.0) / kHpaPerMetre, 1e-12);
}

TEST(Holland, BalancedWindPeaksNearRmax) {
  const HollandVortex v = aila_like();
  const double f = coriolis(14.0);
  double peak = 0.0;
  double peak_r = 0.0;
  for (double r = 5.0; r <= 600.0; r += 5.0) {
    const double w = v.balanced_tangential_wind(r, f);
    EXPECT_GE(w, 0.0);
    if (w > peak) {
      peak = w;
      peak_r = r;
    }
  }
  // A 20 hPa storm blows tropical-storm to cyclone-force winds at its core.
  EXPECT_GT(peak, 15.0);
  EXPECT_LT(peak, 70.0);
  EXPECT_NEAR(peak_r, v.r_max_km, 25.0);
  // Far field decays.
  EXPECT_LT(v.balanced_tangential_wind(600.0, f), 0.5 * peak);
}

TEST(Holland, DepositCreatesCyclonicLow) {
  GridSpec g(80.0, 5.0, 18.0, 18.0, 40.0);
  DomainState s(g);
  const HollandVortex v = aila_like();
  v.deposit(s);

  // Minimum pressure at the centre.
  double hmin = 1e300;
  std::size_t bi = 0, bj = 0;
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i)
      if (s.h(i, j) < hmin) {
        hmin = s.h(i, j);
        bi = i;
        bj = j;
      }
  const LatLon eye = g.at(bi, bj);
  EXPECT_LT(distance_km(eye, v.center), 1.5 * g.resolution_km());
  EXPECT_NEAR(hmin, -20.0 / kHpaPerMetre, 6.0);

  // Cyclonic (counterclockwise) circulation: east of the eye the wind blows
  // north (v > 0), west of it south (v < 0).
  const std::size_t east = bi + 3;
  const std::size_t west = bi - 3;
  EXPECT_GT(s.v(east, bj), 1.0);
  EXPECT_LT(s.v(west, bj), -1.0);
  // North of the eye the wind blows west (u < 0).
  EXPECT_LT(s.u(bi, bj + 3), -1.0);
}

TEST(Holland, DepositIsLocal) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 200.0);
  DomainState s(g);
  aila_like().deposit(s);
  // Far corner untouched.
  EXPECT_DOUBLE_EQ(s.h(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.u(g.nx() - 1, g.ny() - 1), 0.0);
}

// profile() against the two reference formulas, bit for bit, over radii
// in both the r <= 1e-3 and r <= 1 km floors and across the storm, where
// the height's (Rm/r) ratio and the wind's metre-scaled ratio sometimes
// round to the same double (shared pow/exp) and sometimes do not.
TEST(Holland, ProfileMatchesReferenceFormulasBitwise) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> radii = {0.0, 1e-4, 1e-3, 2e-3, 0.25, 0.999, 1.0};
  for (int k = 1; k <= 4000; ++k) radii.push_back(0.3137 * k);
  int shared = 0;
  int separate = 0;
  for (const HollandVortex& v :
       {aila_like(), HollandVortex{.center = LatLon{14.0, 88.5},
                                   .deficit_hpa = 37.5,
                                   .r_max_km = 52.8,
                                   .b = 1.4}}) {
    for (const double f : {coriolis(14.0), coriolis(-20.0), 0.0}) {
      for (const double r : radii) {
        const HollandVortex::Profile p = v.profile(r, f);
        ASSERT_EQ(bits(p.height_m), bits(v.height_anomaly_m(r))) << "r " << r;
        ASSERT_EQ(bits(p.wind_ms), bits(v.balanced_tangential_wind(r, f)))
            << "r " << r;
        const double ratio_h = v.r_max_km / std::max(r, 1e-3);
        const double ratio_w =
            (v.r_max_km * 1000.0) / (std::max(r, 1.0) * 1000.0);
        ++(ratio_h == ratio_w ? shared : separate);
      }
    }
  }
  // Both paths through profile() ran.
  EXPECT_GT(shared, 1000);
  EXPECT_GT(separate, 1000);
}

TEST(Coriolis, SignAndMagnitude) {
  EXPECT_NEAR(coriolis(90.0), 1.458e-4, 1e-6);
  EXPECT_NEAR(coriolis(14.0), 3.53e-5, 1e-6);
  EXPECT_NEAR(coriolis(0.0), 0.0, 1e-12);
  EXPECT_LT(coriolis(-14.0), 0.0);
}

}  // namespace
}  // namespace adaptviz
