// Holland (1980) analytic tropical-cyclone profile.
//
// Used twice: to insert the initial "bogus" depression into the synthetic
// analysis (standard practice when the global analysis under-resolves a
// storm), and as the target shape of the intensification forcing that deepens
// the simulated storm toward the intensity ODE's central pressure.
#pragma once

#include "weather/grid.hpp"
#include "weather/state.hpp"

namespace adaptviz {

struct HollandVortex {
  LatLon center;
  /// Central pressure deficit (hPa, positive = deeper storm).
  double deficit_hpa = 10.0;
  /// Radius of maximum wind (km).
  double r_max_km = 80.0;
  /// Holland shape parameter (1 < B < 2.5 for real storms).
  double b = 1.5;

  /// Pressure anomaly (hPa, negative inside the storm) at radius r (km):
  /// -deficit * exp(-(r_max/r)^B).
  [[nodiscard]] double pressure_anomaly_hpa(double r_km) const;

  /// Height anomaly (m) via the kHpaPerMetre diagnostic mapping.
  [[nodiscard]] double height_anomaly_m(double r_km) const;

  /// Gradient-wind-balanced tangential wind (m/s, cyclonic positive) at
  /// radius r for Coriolis parameter f: v^2/r + f*v = g * d(h)/dr.
  [[nodiscard]] double balanced_tangential_wind(double r_km, double f) const;

  struct Profile {
    double height_m;  // height_anomaly_m(r_km)
    double wind_ms;   // balanced_tangential_wind(r_km, f)
  };
  /// Both profiles at one radius, bitwise equal to the two reference
  /// functions above. Where the two formulas' (Rm/r) ratios round to the
  /// same double, the wind reuses the height's pow and exp.
  [[nodiscard]] Profile profile(double r_km, double f) const;

  /// Adds the vortex (height depression + balanced cyclonic winds) onto a
  /// domain state in place.
  void deposit(DomainState& state) const;
};

/// Great-circle-free planar distance (km) between two points on the model's
/// equirectangular projection.
double distance_km(LatLon a, LatLon b);

}  // namespace adaptviz
