#include "weather/physics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace adaptviz {

CyclonePhysics::CyclonePhysics(PhysicsConfig config, double initial_deficit_hpa,
                               LatLon initial_center)
    : config_(config), deficit_(initial_deficit_hpa), center_(initial_center) {
  if (initial_deficit_hpa <= 0 ||
      initial_deficit_hpa >= config.deficit_max_hpa) {
    throw std::invalid_argument("CyclonePhysics: bad initial deficit");
  }
}

void CyclonePhysics::advance(double dt_seconds, double steering_u,
                             double steering_v, LatLon diagnosed_eye) {
  const double dt_h = dt_seconds / 3600.0;

  // --- Motion: advect the centre with the steering current, nudged toward
  // --- the field-diagnosed eye (tau ~ 6 h) so dynamics-driven displacement
  // --- (e.g. beta drift resolved by the grid) feeds back.
  const double m_per_deg_lat = kKmPerDegree * 1000.0;
  const double coslat = std::cos(center_.lat * 3.14159265 / 180.0);
  center_.lat += steering_v * dt_seconds / m_per_deg_lat;
  center_.lon += steering_u * dt_seconds / (m_per_deg_lat * coslat);
  const double pull = dt_h / 6.0;
  if (distance_km(center_, diagnosed_eye) < 400.0) {
    center_.lat += pull * (diagnosed_eye.lat - center_.lat);
    center_.lon += pull * (diagnosed_eye.lon - center_.lon);
  }

  // --- Intensity ODE.
  const double land = land_fraction(center_);
  const double ocean = 1.0 - land;
  const double sst = sea_surface_temp(center_);
  const double s = std::clamp((sst - config_.sst_min_c) / 3.0, 0.0, 1.0);

  const double growth = config_.k_intensify_per_hour * s * ocean * deficit_ *
                        (1.0 - deficit_ / config_.deficit_max_hpa);
  const double decay = land * deficit_ / config_.land_decay_tau_hours;
  deficit_ += dt_h * (growth - decay);
  deficit_ = std::clamp(deficit_, 0.5, config_.deficit_max_hpa);
}

HollandVortex CyclonePhysics::target_vortex(double resolution_km) const {
  const double r_phys =
      std::max(config_.r_floor_km,
               config_.r_max0_km - config_.r_shrink_km_per_hpa * deficit_);
  const double r_resolvable = 2.2 * resolution_km;
  return HollandVortex{
      .center = center_,
      .deficit_hpa = deficit_,
      .r_max_km = std::max(r_phys, r_resolvable),
      .b = config_.holland_b,
  };
}

namespace {

/// Reshapes `f` to (nx, ny) unless it already has that shape.
void ensure_shape(Field2D& f, std::size_t nx, std::size_t ny) {
  if (f.nx() != nx || f.ny() != ny) f.resize(nx, ny);
}

}  // namespace

void CyclonePhysics::build_forcing(const DomainState& state,
                                   const Field2D& land,
                                   Field2D& mass_tendency,
                                   Field2D& u_tendency, Field2D& v_tendency,
                                   Field2D& relaxation) const {
  ForcingGeometry geometry;
  build_forcing_geometry(state.grid, land, geometry, relaxation);
  apply_forcing(geometry, state, mass_tendency, u_tendency, v_tendency);
}

void CyclonePhysics::build_forcing_geometry(const GridSpec& g,
                                            const Field2D& land,
                                            ForcingGeometry& geometry,
                                            Field2D& relaxation) const {
  static thread_local obs::HotHistogram geometry_hist(
      "weather.forcing_geometry");
  obs::ScopedSpan span("weather.forcing_geometry", geometry_hist);
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  if (land.nx() != nx || land.ny() != ny) {
    throw std::invalid_argument("build_forcing: land mask shape mismatch");
  }
  ensure_shape(geometry.w, nx, ny);
  ensure_shape(geometry.h_target, nx, ny);
  ensure_shape(geometry.u_target, nx, ny);
  ensure_shape(geometry.v_target, nx, ny);
  ensure_shape(relaxation, nx, ny);

  const HollandVortex target = target_vortex(g.resolution_km());
  const double inv_tau_fric = 1.0 / (config_.land_friction_tau_hours * 3600.0);
  const double inv_tau_nudge = 1.0 / (config_.nudge_tau_hours * 3600.0);
  const double storm_radius = 5.0 * target.r_max_km;  // nudge-free zone
  const double storm_sigma2 = 2.0 * storm_radius * storm_radius;
  const double sigma2 = 2.0 * 9.0 * target.r_max_km * target.r_max_km;
  const double fcor = coriolis(center_.lat);
  const double deg2rad = 3.14159265358979 / 180.0;

  // Longitude offsets depend only on the column. Each product keeps the
  // association of distance_km and of the wind's unit vector, so the hoisted
  // values are bitwise the per-point ones.
  std::vector<double> dlon_km(nx);
  for (std::size_t i = 0; i < nx; ++i) {
    dlon_km[i] = (g.at(i, 0).lon - center_.lon) * kKmPerDegree;
  }

  for (std::size_t j = 0; j < ny; ++j) {
    // Row terms. distance_km and the wind's unit vector round the degree to
    // radian conversion differently, so each keeps its own cosine.
    const double lat = g.at(0, j).lat;
    const double dy = (lat - center_.lat) * kKmPerDegree;
    const double cos_dist =
        std::cos(0.5 * (lat + center_.lat) * 3.14159265358979 / 180.0);
    const double cos_wind = std::cos(0.5 * (lat + center_.lat) * deg2rad);
    double* ADAPTVIZ_RESTRICT w_row = geometry.w.row(j);
    double* ADAPTVIZ_RESTRICT h_row = geometry.h_target.row(j);
    double* ADAPTVIZ_RESTRICT u_row = geometry.u_target.row(j);
    double* ADAPTVIZ_RESTRICT v_row = geometry.v_target.row(j);
    double* ADAPTVIZ_RESTRICT relax_row = relaxation.row(j);
    const double* land_row = land.row(j);
    for (std::size_t i = 0; i < nx; ++i) {
      const double r = std::hypot(dlon_km[i] * cos_dist, dy);

      // Relaxation toward the balanced Holland target (height and winds
      // together), confined near the storm.
      const double w = std::exp(-(r * r) / sigma2);
      double w_core = 0.0;
      double h_t = 0.0;
      double u_t = 0.0;
      double v_t = 0.0;
      if (w > 1e-4) {
        w_core = w;
        const HollandVortex::Profile prof = target.profile(r, fcor);
        h_t = prof.height_m;
        if (r > 1.0) {
          const double vt_mag = prof.wind_ms;
          const double dx = dlon_km[i] * cos_wind;
          u_t = vt_mag * (-dy / r);
          v_t = vt_mag * (dx / r);
        }
      }
      w_row[i] = w_core;
      h_row[i] = h_t;
      u_row[i] = u_t;
      v_row[i] = v_t;

      // Land friction plus far-field analysis nudging.
      const double w_storm = std::exp(-(r * r) / storm_sigma2);
      relax_row[i] =
          land_row[i] * inv_tau_fric + (1.0 - w_storm) * inv_tau_nudge;
    }
  }
}

void CyclonePhysics::apply_forcing(const ForcingGeometry& geometry,
                                   const DomainState& state,
                                   Field2D& mass_tendency, Field2D& u_tendency,
                                   Field2D& v_tendency) const {
  static thread_local obs::HotHistogram apply_hist("weather.forcing_apply");
  obs::ScopedSpan span("weather.forcing_apply", apply_hist);
  const std::size_t nx = state.grid.nx();
  const std::size_t ny = state.grid.ny();
  if (geometry.w.nx() != nx || geometry.w.ny() != ny) {
    throw std::invalid_argument("apply_forcing: geometry shape mismatch");
  }
  ensure_shape(mass_tendency, nx, ny);
  ensure_shape(u_tendency, nx, ny);
  ensure_shape(v_tendency, nx, ny);

  const double inv_tau = 1.0 / (config_.mass_relax_tau_hours * 3600.0);
  const std::size_t n = nx * ny;
  const double* w = geometry.w.data().data();
  const double* h_t = geometry.h_target.data().data();
  const double* u_t = geometry.u_target.data().data();
  const double* v_t = geometry.v_target.data().data();
  const double* h = state.h.data().data();
  const double* u = state.u.data().data();
  const double* v = state.v.data().data();
  // No restrict: each output may be the geometry's own target field.
  double* q = mass_tendency.data().data();
  double* fu = u_tendency.data().data();
  double* fv = v_tendency.data().data();
  // w is exactly 0 outside the core, where the forcing is +0.0 whatever the
  // flow holds (the product would give -0.0 or NaN there).
  for (std::size_t k = 0; k < n; ++k) {
    const bool core = w[k] != 0.0;
    q[k] = core ? w[k] * (h_t[k] - h[k]) * inv_tau : 0.0;
    fu[k] = core ? w[k] * (u_t[k] - u[k]) * inv_tau : 0.0;
    fv[k] = core ? w[k] * (v_t[k] - v[k]) * inv_tau : 0.0;
  }
}

}  // namespace adaptviz
