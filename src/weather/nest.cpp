#include "weather/nest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/interpolation.hpp"
#include "obs/obs.hpp"

namespace adaptviz {
namespace {

// Samples all three prognostic fields of `src` at a geographic point.
void sample_state(const DomainState& src, LatLon p, double& h, double& u,
                  double& v) {
  const GridSpec& g = src.grid;
  const double x = g.x_of_lon(p.lon);
  const double y = g.y_of_lat(p.lat);
  h = bicubic(src.h.data(), g.nx(), g.ny(), x, y);
  u = bilinear(src.u.data(), g.nx(), g.ny(), x, y);
  v = bilinear(src.v.data(), g.nx(), g.ny(), x, y);
}

// Calls fn(i, j, d) for every point of `g` whose distance d to the nearest
// edge is below `w`, row by row, skipping each interior row's middle.
template <typename Fn>
void for_each_band_point(const GridSpec& g, std::size_t w, Fn&& fn) {
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  for (std::size_t j = 0; j < ny; ++j) {
    const std::size_t dj = std::min(j, ny - 1 - j);
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t d = std::min(std::min(i, nx - 1 - i), dj);
      if (d >= w) {
        // Here w <= i <= nx - 1 - w: resume at the right band.
        i = nx - 1 - w;
        continue;
      }
      fn(i, j, d);
    }
  }
}

}  // namespace

GridSpec NestDomain::make_grid(const GridSpec& parent_grid, LatLon center,
                               double extent_deg, double resolution_km) {
  const double margin = 2.0 * parent_grid.resolution_km() / kKmPerDegree;
  const double half = extent_deg / 2.0;
  const double lon_min = parent_grid.lon0() + margin;
  const double lon_max =
      parent_grid.lon0() + parent_grid.extent_lon() - margin - extent_deg;
  const double lat_min = parent_grid.lat0() + margin;
  const double lat_max =
      parent_grid.lat0() + parent_grid.extent_lat() - margin - extent_deg;
  if (lon_max < lon_min || lat_max < lat_min) {
    throw std::invalid_argument("NestDomain: nest larger than parent");
  }
  const double lon0 = std::clamp(center.lon - half, lon_min, lon_max);
  const double lat0 = std::clamp(center.lat - half, lat_min, lat_max);
  return GridSpec(lon0, lat0, extent_deg, extent_deg, resolution_km);
}

NestDomain::NestDomain(const DomainState& parent, LatLon center,
                       double extent_deg)
    : state_(make_grid(parent.grid, center, extent_deg,
                       parent.grid.resolution_km() / kNestRatio)),
      extent_deg_(extent_deg) {
  fill_from(parent);
}

LatLon NestDomain::center() const {
  const GridSpec& g = state_.grid;
  return LatLon{g.lat0() + g.extent_lat() / 2.0,
                g.lon0() + g.extent_lon() / 2.0};
}

void NestDomain::fill_from(const DomainState& src) {
  const GridSpec& g = state_.grid;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      sample_state(src, g.at(i, j), state_.h(i, j), state_.u(i, j),
                   state_.v(i, j));
    }
  }
}

void NestDomain::apply_boundary(const DomainState& parent, int width) {
  sample_boundary(parent, width);
  blend_boundary();
}

void NestDomain::sample_boundary(const DomainState& parent, int width) {
  static thread_local obs::HotHistogram boundary_hist("weather.nest_boundary");
  obs::ScopedSpan span("weather.nest_boundary", boundary_hist);
  const GridSpec& g = state_.grid;
  band_width_ = static_cast<std::size_t>(std::max(1, width));
  band_grid_ = g;
  band_samples_.clear();
  for_each_band_point(g, band_width_,
                      [&](std::size_t i, std::size_t j, std::size_t) {
                        double h, u, v;
                        sample_state(parent, g.at(i, j), h, u, v);
                        band_samples_.insert(band_samples_.end(), {h, u, v});
                      });
}

void NestDomain::blend_boundary() {
  if (band_grid_ != state_.grid) {
    throw std::logic_error("NestDomain: no boundary samples for this grid");
  }
  static thread_local obs::HotHistogram boundary_hist("weather.nest_boundary");
  obs::ScopedSpan span("weather.nest_boundary", boundary_hist);
  const double w = static_cast<double>(band_width_);
  const double* sample = band_samples_.data();
  for_each_band_point(
      state_.grid, band_width_,
      [&](std::size_t i, std::size_t j, std::size_t d) {
        // Blend: pure parent at the edge, pure nest at depth w.
        const double f = static_cast<double>(d) / w;
        state_.h(i, j) = f * state_.h(i, j) + (1.0 - f) * sample[0];
        state_.u(i, j) = f * state_.u(i, j) + (1.0 - f) * sample[1];
        state_.v(i, j) = f * state_.v(i, j) + (1.0 - f) * sample[2];
        sample += 3;
      });
}

void NestDomain::feedback(DomainState& parent, int exclude_width) const {
  static thread_local obs::HotHistogram feedback_hist("weather.nest_feedback");
  obs::ScopedSpan span("weather.nest_feedback", feedback_hist);
  const GridSpec& ng = state_.grid;
  const GridSpec& pg = parent.grid;
  // Interior box of the nest in geographic coordinates.
  const double pad =
      static_cast<double>(exclude_width) * ng.resolution_km() / kKmPerDegree;
  const double lon_lo = ng.lon0() + pad;
  const double lon_hi = ng.lon0() + ng.extent_lon() - pad;
  const double lat_lo = ng.lat0() + pad;
  const double lat_hi = ng.lat0() + ng.extent_lat() - pad;

  for (std::size_t j = 1; j + 1 < pg.ny(); ++j) {
    for (std::size_t i = 1; i + 1 < pg.nx(); ++i) {
      const LatLon p = pg.at(i, j);
      if (p.lon < lon_lo || p.lon > lon_hi || p.lat < lat_lo ||
          p.lat > lat_hi) {
        continue;
      }
      // Restriction: mean of a (ratio x ratio) block of nest samples around
      // the parent point — conservative-ish without bookkeeping exact cells.
      double h = 0.0;
      double u = 0.0;
      double v = 0.0;
      const double step = ng.resolution_km() / kKmPerDegree;
      int count = 0;
      for (int jj = -1; jj <= 1; ++jj) {
        for (int ii = -1; ii <= 1; ++ii) {
          const double x =
              ng.x_of_lon(p.lon + static_cast<double>(ii) * step);
          const double y =
              ng.y_of_lat(p.lat + static_cast<double>(jj) * step);
          h += state_.h.sample(x, y);
          u += state_.u.sample(x, y);
          v += state_.v.sample(x, y);
          ++count;
        }
      }
      parent.h(i, j) = h / count;
      parent.u(i, j) = u / count;
      parent.v(i, j) = v / count;
    }
  }
}

bool NestDomain::needs_recenter(LatLon eye, double threshold_deg) const {
  const LatLon c = center();
  return std::fabs(eye.lat - c.lat) > threshold_deg ||
         std::fabs(eye.lon - c.lon) > threshold_deg;
}

void NestDomain::recenter(const DomainState& parent, LatLon eye) {
  DomainState old = std::move(state_);
  state_ = DomainState(
      make_grid(parent.grid, eye, extent_deg_, old.grid.resolution_km()));
  const GridSpec& g = state_.grid;
  const GridSpec& og = old.grid;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const LatLon p = g.at(i, j);
      // Prefer fine data where the old nest covered this point (away from
      // its boundary band), otherwise interpolate from the parent.
      const double margin = 3.0 * og.resolution_km() / kKmPerDegree;
      const bool in_old = p.lon > og.lon0() + margin &&
                          p.lon < og.lon0() + og.extent_lon() - margin &&
                          p.lat > og.lat0() + margin &&
                          p.lat < og.lat0() + og.extent_lat() - margin;
      sample_state(in_old ? old : parent, p, state_.h(i, j), state_.u(i, j),
                   state_.v(i, j));
    }
  }
}

void NestDomain::restore_state(DomainState s) {
  state_ = std::move(s);
}

}  // namespace adaptviz
