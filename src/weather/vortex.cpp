#include "weather/vortex.hpp"

#include <algorithm>
#include <cmath>

namespace adaptviz {

double distance_km(LatLon a, LatLon b) {
  const double dy = (a.lat - b.lat) * kKmPerDegree;
  const double mean_lat = 0.5 * (a.lat + b.lat) * 3.14159265358979 / 180.0;
  const double dx = (a.lon - b.lon) * kKmPerDegree * std::cos(mean_lat);
  return std::hypot(dx, dy);
}

double HollandVortex::pressure_anomaly_hpa(double r_km) const {
  // Holland: p(r) = pc + deficit * exp(-(Rm/r)^B), so the anomaly relative
  // to the environment is -deficit * (1 - exp(-(Rm/r)^B)): full deficit at
  // the centre, zero far away.
  const double r = std::max(r_km, 1e-3);
  return -deficit_hpa * (1.0 - std::exp(-std::pow(r_max_km / r, b)));
}

double HollandVortex::height_anomaly_m(double r_km) const {
  return pressure_anomaly_hpa(r_km) / kHpaPerMetre;
}

double HollandVortex::balanced_tangential_wind(double r_km, double f) const {
  // d(h)/dr of the Holland height profile, analytically:
  //   h(r) = -D * exp(-(Rm/r)^B)  with D = deficit/kHpaPerMetre
  //   dh/dr = -D * exp(-(Rm/r)^B) * B * Rm^B / r^(B+1)
  const double r_m = std::max(r_km, 1.0) * 1000.0;
  const double rm_m = r_max_km * 1000.0;
  const double d_m = deficit_hpa / kHpaPerMetre;
  const double x = std::pow(rm_m / r_m, b);
  const double dhdr = d_m * std::exp(-x) * b * x / r_m;  // positive outward
  const double g = 9.81;
  const double fr2 = 0.5 * std::fabs(f) * r_m;
  const double v = -fr2 + std::sqrt(fr2 * fr2 + g * r_m * dhdr);
  return v;
}

HollandVortex::Profile HollandVortex::profile(double r_km, double f) const {
  // height_anomaly_m: -deficit * (1 - exp(-(Rm/r)^B)) / kHpaPerMetre.
  const double ratio_h = r_max_km / std::max(r_km, 1e-3);
  const double x_h = std::pow(ratio_h, b);
  const double e_h = std::exp(-x_h);
  const double height = -deficit_hpa * (1.0 - e_h) / kHpaPerMetre;

  // balanced_tangential_wind, expression for expression. Its ratio is in
  // metres and floors r at 1 km, but wherever it rounds to ratio_h the
  // pow and exp arguments are the same doubles, hence so are the results.
  const double r_m = std::max(r_km, 1.0) * 1000.0;
  const double ratio_w = (r_max_km * 1000.0) / r_m;
  const double d_m = deficit_hpa / kHpaPerMetre;
  const bool same = ratio_w == ratio_h;
  const double x = same ? x_h : std::pow(ratio_w, b);
  const double e = same ? e_h : std::exp(-x);
  const double dhdr = d_m * e * b * x / r_m;
  const double g = 9.81;
  const double fr2 = 0.5 * std::fabs(f) * r_m;
  return Profile{height, -fr2 + std::sqrt(fr2 * fr2 + g * r_m * dhdr)};
}

void HollandVortex::deposit(DomainState& state) const {
  const GridSpec& grid = state.grid;
  for (std::size_t j = 0; j < grid.ny(); ++j) {
    for (std::size_t i = 0; i < grid.nx(); ++i) {
      const LatLon p = grid.at(i, j);
      const double r = distance_km(p, center);
      if (r > 12.0 * r_max_km) continue;  // negligible beyond
      const Profile prof = profile(r, coriolis(center.lat));
      state.h(i, j) += prof.height_m;
      const double vt = prof.wind_ms;
      if (r > 1.0) {
        // Unit tangential vector (counterclockwise = cyclonic, NH).
        const double mean_lat = 0.5 * (p.lat + center.lat) * 3.14159265 / 180.0;
        const double dx = (p.lon - center.lon) * kKmPerDegree *
                          std::cos(mean_lat);
        const double dy = (p.lat - center.lat) * kKmPerDegree;
        state.u(i, j) += vt * (-dy / r);
        state.v(i, j) += vt * (dx / r);
      }
    }
  }
}

}  // namespace adaptviz
