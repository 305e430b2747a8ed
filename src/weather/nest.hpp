// Moving two-way nest.
//
// WRF nests are finer-resolution domains embedded in the parent; the paper
// uses a 1:3 nesting ratio, spawns the nest at the location of lowest
// pressure and moves it with the eye. This implementation reproduces that:
// the nest integrates its own shallow-water dynamics at parent_resolution/3
// with three substeps per parent step, receives boundary conditions
// interpolated from the parent every substep, and feeds its interior back
// into the parent (two-way coupling by restriction) after each parent step.
// When the eye drifts too far from the nest centre the nest is re-centred,
// reusing overlapping fine data and falling back to parent interpolation
// elsewhere.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "weather/grid.hpp"
#include "weather/state.hpp"

namespace adaptviz {

/// Time (and space) refinement ratio between parent and nest (paper: 1:3).
inline constexpr int kNestRatio = 3;

class NestDomain {
 public:
  /// Creates a nest of `extent_deg` x `extent_deg` centred as close to
  /// `center` as fits inside the parent (with a 2-parent-cell margin), at
  /// parent resolution / kNestRatio, initialized by interpolation from the
  /// parent.
  NestDomain(const DomainState& parent, LatLon center, double extent_deg);

  [[nodiscard]] const DomainState& state() const { return state_; }
  [[nodiscard]] DomainState& state() { return state_; }
  [[nodiscard]] const GridSpec& grid() const { return state_.grid; }
  [[nodiscard]] LatLon center() const;
  [[nodiscard]] double extent_deg() const { return extent_deg_; }

  /// Overwrites the nest's boundary band (outer `width` points) with values
  /// interpolated from the parent: sample_boundary, then blend_boundary.
  void apply_boundary(const DomainState& parent, int width = 3);

  /// Samples the parent at every point of the boundary band (bicubic h,
  /// bilinear u/v) into a reused buffer. The samples depend only on the
  /// parent and the nest grid, so one sampling serves every sub-step of a
  /// parent step.
  void sample_boundary(const DomainState& parent, int width = 3);

  /// Blends the last sampled parent values into the boundary band: pure
  /// parent at the edge, pure nest at depth `width`. Throws
  /// std::logic_error if nothing was sampled on the current grid.
  void blend_boundary();

  /// Restricts the nest interior onto overlapping parent points (two-way
  /// feedback). The boundary band is excluded.
  void feedback(DomainState& parent, int exclude_width = 4) const;

  /// True when `eye` is farther than `threshold_deg` from the nest centre.
  [[nodiscard]] bool needs_recenter(LatLon eye,
                                    double threshold_deg = 1.25) const;

  /// Rebuilds the nest around `eye`: overlapping area keeps fine data,
  /// the rest comes from the parent.
  void recenter(const DomainState& parent, LatLon eye);

  /// Replaces the nest state wholesale (checkpoint restore). The grid in
  /// `s` must have this nest's resolution.
  void restore_state(DomainState s);

 private:
  [[nodiscard]] static GridSpec make_grid(const GridSpec& parent_grid,
                                          LatLon center, double extent_deg,
                                          double resolution_km);
  void fill_from(const DomainState& src);

  DomainState state_;
  double extent_deg_;
  // Parent h/u/v at each boundary-band point in band order, and the band
  // width and nest grid they were sampled for: step scratch, not
  // checkpoint state.
  std::vector<double> band_samples_;
  std::size_t band_width_ = 0;
  GridSpec band_grid_;  // default-constructed: nothing sampled yet
};

}  // namespace adaptviz
