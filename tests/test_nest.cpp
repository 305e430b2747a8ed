#include "weather/nest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "numerics/interpolation.hpp"
#include "weather/dynamics.hpp"
#include "weather/vortex.hpp"

namespace adaptviz {
namespace {

DomainState parent_with_vortex(LatLon center) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 120.0);
  DomainState s(g);
  HollandVortex v{.center = center,
                  .deficit_hpa = 18.0,
                  .r_max_km = 300.0,
                  .b = 1.4};
  v.deposit(s);
  return s;
}

TEST(Nest, CreatedAtOneThirdResolution) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  EXPECT_NEAR(nest.grid().resolution_km(),
              parent.grid.resolution_km() / kNestRatio, 1e-9);
  EXPECT_NEAR(nest.center().lat, 14.0, 0.3);
  EXPECT_NEAR(nest.center().lon, 88.5, 0.3);
  EXPECT_DOUBLE_EQ(nest.extent_deg(), 9.0);
}

TEST(Nest, InitializedFromParentFields) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // The nest carries the vortex depression interpolated from the parent.
  EXPECT_LT(nest.state().h.min(), 0.5 * parent.h.min() /* deeper than half */);
  // A shared location agrees.
  const LatLon p{13.0, 87.0};
  const double pv = parent.h.sample(parent.grid.x_of_lon(p.lon),
                                    parent.grid.y_of_lat(p.lat));
  const double nv = nest.state().h.sample(nest.grid().x_of_lon(p.lon),
                                          nest.grid().y_of_lat(p.lat));
  EXPECT_NEAR(nv, pv, 3.0);
}

TEST(Nest, ClampedInsideParent) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  // Requested centre near the parent's east edge: the nest must stay inside.
  NestDomain nest(parent, LatLon{14.0, 119.0}, 9.0);
  const GridSpec& g = nest.grid();
  EXPECT_LE(g.lon0() + g.extent_lon(), 120.0 + 1e-9);
  EXPECT_GE(g.lon0(), 60.0 - 1e-9);
}

TEST(Nest, TooLargeRejected) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  EXPECT_THROW(NestDomain(parent, LatLon{14.0, 88.5}, 70.0),
               std::invalid_argument);
}

TEST(Nest, BoundaryBlendsTowardParent) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Perturb the nest interior wildly, then re-apply boundary: edges must
  // return to parent values while the deep interior keeps the perturbation.
  nest.state().h.fill(123.0);
  nest.apply_boundary(parent, 3);
  const GridSpec& g = nest.grid();
  const double edge = nest.state().h(0, g.ny() / 2);
  const LatLon pe = g.at(0, g.ny() / 2);
  const double parent_val = parent.h.sample(parent.grid.x_of_lon(pe.lon),
                                            parent.grid.y_of_lat(pe.lat));
  EXPECT_NEAR(edge, parent_val, 1.0);
  EXPECT_NEAR(nest.state().h(g.nx() / 2, g.ny() / 2), 123.0, 1e-9);
}

// The boundary update as one per-point loop (sample the parent, then blend
// toward it), kept as a literal oracle for sample_boundary/blend_boundary.
void reference_apply_boundary(DomainState& nest, const DomainState& parent,
                              std::size_t w) {
  const GridSpec& g = nest.grid;
  const GridSpec& pg = parent.grid;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const std::size_t d = std::min(std::min(i, g.nx() - 1 - i),
                                     std::min(j, g.ny() - 1 - j));
      if (d >= w) continue;
      const LatLon p = g.at(i, j);
      const double x = pg.x_of_lon(p.lon);
      const double y = pg.y_of_lat(p.lat);
      const double h = bicubic(parent.h.data(), pg.nx(), pg.ny(), x, y);
      const double u = bilinear(parent.u.data(), pg.nx(), pg.ny(), x, y);
      const double v = bilinear(parent.v.data(), pg.nx(), pg.ny(), x, y);
      const double f = static_cast<double>(d) / static_cast<double>(w);
      nest.h(i, j) = f * nest.h(i, j) + (1.0 - f) * h;
      nest.u(i, j) = f * nest.u(i, j) + (1.0 - f) * u;
      nest.v(i, j) = f * nest.v(i, j) + (1.0 - f) * v;
    }
  }
}

// WeatherModel::step samples the parent once per parent step and blends on
// each sub-step; that must be bitwise what re-sampling the unchanged parent
// on every sub-step (apply_boundary, and the literal per-point loop) gives.
TEST(Nest, SampleOnceThenBlendMatchesApplyBoundary) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain resampled(parent, LatLon{14.5, 87.0}, 9.0);
  // Move the nest away from the parent so the blend has work to do.
  for (std::size_t k = 0; k < resampled.state().h.size(); ++k) {
    resampled.state().h.data()[k] += 0.01 * static_cast<double>(k % 97);
    resampled.state().u.data()[k] -= 0.003 * static_cast<double>(k % 31);
    resampled.state().v.data()[k] += 0.002 * static_cast<double>(k % 13);
  }
  NestDomain sampled_once = resampled;
  DomainState literal = resampled.state();
  const SwSolver solver;
  const double ndt =
      SwSolver::dt_for_resolution_km(resampled.grid().resolution_km());

  sampled_once.sample_boundary(parent);
  for (int k = 0; k < kNestRatio; ++k) {
    resampled.apply_boundary(parent);
    sampled_once.blend_boundary();
    reference_apply_boundary(literal, parent, 3);
    for (const DomainState* s : {&resampled.state(), &literal}) {
      EXPECT_EQ(s->h, sampled_once.state().h) << "sub-step " << k;
      EXPECT_EQ(s->u, sampled_once.state().u) << "sub-step " << k;
      EXPECT_EQ(s->v, sampled_once.state().v) << "sub-step " << k;
    }
    solver.step(resampled.state(), ndt, SwForcing{});
    solver.step(sampled_once.state(), ndt, SwForcing{});
    solver.step(literal, ndt, SwForcing{});
  }
}

TEST(Nest, BlendNeedsSamplesForTheCurrentGrid) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  EXPECT_THROW(nest.blend_boundary(), std::logic_error);
  nest.sample_boundary(parent);
  EXPECT_NO_THROW(nest.blend_boundary());
  nest.recenter(parent, LatLon{16.0, 88.5});
  EXPECT_THROW(nest.blend_boundary(), std::logic_error);
  // Samples belong to the grid they were taken on, not to the state.
  nest.sample_boundary(parent);
  nest.restore_state(DomainState(nest.grid()));
  EXPECT_NO_THROW(nest.blend_boundary());
  const NestDomain elsewhere(parent, LatLon{11.0, 85.0}, 9.0);
  nest.restore_state(DomainState(elsewhere.grid()));
  EXPECT_THROW(nest.blend_boundary(), std::logic_error);
}

TEST(Nest, FeedbackWritesInteriorOntoParent) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Mark the nest with a constant; parent points inside the nest interior
  // must take (approximately) that value after feedback.
  nest.state().h.fill(-77.0);
  nest.feedback(parent);
  const GridSpec& pg = parent.grid;
  const std::size_t ci = static_cast<std::size_t>(pg.x_of_lon(88.5));
  const std::size_t cj = static_cast<std::size_t>(pg.y_of_lat(14.0));
  EXPECT_NEAR(parent.h(ci, cj), -77.0, 1.0);
  // Far outside the nest: untouched vortex field.
  EXPECT_NEAR(parent.h(2, 2), 0.0, 1.0);
}

TEST(Nest, RecenterFollowsEye) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  EXPECT_FALSE(nest.needs_recenter(LatLon{14.5, 88.5}));
  EXPECT_TRUE(nest.needs_recenter(LatLon{16.0, 88.5}));
  nest.recenter(parent, LatLon{16.0, 88.5});
  EXPECT_NEAR(nest.center().lat, 16.0, 0.3);
  EXPECT_NEAR(nest.grid().resolution_km(),
              parent.grid.resolution_km() / kNestRatio, 1e-9);
}

TEST(Nest, RecenterKeepsFineDataInOverlap) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Stamp fine-scale data the parent does not have.
  nest.state().h.fill(-55.0);
  nest.recenter(parent, LatLon{15.0, 88.5});  // overlaps the old footprint
  // A point well inside both footprints kept the fine value.
  const GridSpec& g = nest.grid();
  const double v = nest.state().h.sample(g.x_of_lon(88.5), g.y_of_lat(14.5));
  EXPECT_NEAR(v, -55.0, 1.0);
  // A point only in the new footprint came from the parent (~vortex field,
  // much shallower than -55).
  const double fresh =
      nest.state().h.sample(g.x_of_lon(88.5), g.y_of_lat(19.2));
  EXPECT_GT(fresh, -40.0);
}

TEST(Nest, RestoreStateReplacesFields) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  DomainState replacement(nest.grid());
  replacement.h.fill(3.25);
  nest.restore_state(std::move(replacement));
  EXPECT_DOUBLE_EQ(nest.state().h(1, 1), 3.25);
}

}  // namespace
}  // namespace adaptviz
