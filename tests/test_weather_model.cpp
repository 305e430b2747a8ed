// WeatherModel facade tests: stepping, nest lifecycle, resolution ladder
// signalling, frame/checkpoint round trips, and the modeled-quantity
// formulas the framework consumes.
#include "weather/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "weather/domain_io.hpp"

namespace adaptviz {
namespace {

ModelConfig fast_config() {
  ModelConfig cfg;
  cfg.compute_scale = 10.0;  // tiny compute grids: tests stay fast
  return cfg;
}

void run_hours(WeatherModel& m, double hours) {
  const SimSeconds end = m.sim_time() + SimSeconds::hours(hours);
  while (m.sim_time() < end) m.step();
}

TEST(WeatherModel, StepAdvancesByDtRule) {
  WeatherModel m(fast_config());
  EXPECT_DOUBLE_EQ(m.dt_seconds(), 144.0);  // 24 km * 6 s/km
  const SimSeconds dt = m.step();
  EXPECT_DOUBLE_EQ(dt.seconds(), 144.0);
  EXPECT_DOUBLE_EQ(m.sim_time().seconds(), 144.0);
}

TEST(WeatherModel, StartsAsWeakDepression) {
  WeatherModel m(fast_config());
  EXPECT_LT(m.min_pressure_hpa(), kEnvPressureHpa);
  EXPECT_GT(m.min_pressure_hpa(), 995.0);
  EXPECT_FALSE(m.nest_active());
  EXPECT_FALSE(m.resolution_change_pending());
  EXPECT_NEAR(m.eye().lat, 14.0, 1.5);
  EXPECT_NEAR(m.eye().lon, 88.5, 1.5);
}

TEST(WeatherModel, CycloneDeepensAndSpawnsNest) {
  WeatherModel m(fast_config());
  run_hours(m, 20.0);
  EXPECT_LT(m.min_pressure_hpa(), 995.0);
  EXPECT_TRUE(m.nest_active());
  EXPECT_TRUE(m.resolution_change_pending());
  EXPECT_LT(m.recommended_resolution_km(), 24.0);
}

TEST(WeatherModel, TrackMovesNorth) {
  WeatherModel m(fast_config());
  run_hours(m, 30.0);
  const auto& track = m.tracker().track();
  ASSERT_GE(track.size(), 2u);
  EXPECT_GT(track.back().eye.lat, track.front().eye.lat + 1.0);
}

TEST(WeatherModel, SetResolutionRegrids) {
  WeatherModel m(fast_config());
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  const double p_before = m.min_pressure_hpa();
  m.set_modeled_resolution(12.0);
  EXPECT_DOUBLE_EQ(m.modeled_resolution_km(), 12.0);
  EXPECT_DOUBLE_EQ(m.dt_seconds(), 72.0);
  // Regridding must not destroy the storm.
  m.step();
  EXPECT_NEAR(m.min_pressure_hpa(), p_before, 5.0);
  EXPECT_THROW(m.set_modeled_resolution(-1.0), std::invalid_argument);
}

TEST(WeatherModel, WorkUnitsGrowWithResolutionAndNest) {
  WeatherModel m(fast_config());
  const double coarse_work = m.work_units();
  EXPECT_GT(coarse_work, 0.0);
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  const double with_nest = m.work_units();
  EXPECT_GT(with_nest, coarse_work);
  m.set_modeled_resolution(12.0);
  // (24/12)^2 = 4x the parent points.
  EXPECT_GT(m.work_units(), 2.0 * with_nest);
}

TEST(WeatherModel, FrameBytesFormula) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  // points * vars * levels * bytes, parent only at start.
  const GridSpec parent(cfg.lon0, cfg.lat0, cfg.extent_lon_deg,
                        cfg.extent_lat_deg, cfg.base_resolution_km);
  const double expect = static_cast<double>(parent.point_count()) *
                        cfg.frame_variables * cfg.frame_levels *
                        cfg.frame_bytes_per_value;
  EXPECT_NEAR(m.frame_bytes().as_double(), expect, 1.0);
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  EXPECT_GT(m.frame_bytes().as_double(), expect);
}

TEST(WeatherModel, MaxUsableProcessorsShrinksWithNest) {
  WeatherModel m(fast_config());
  const int before = m.max_usable_processors();
  EXPECT_GT(before, 90);  // huge parent: no practical limit
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  EXPECT_LT(m.max_usable_processors(), before);
  EXPECT_GE(m.max_usable_processors(), 1);
}

TEST(WeatherModel, FrameCarriesDiagnostics) {
  WeatherModel m(fast_config());
  run_hours(m, 2.0);
  const NclFile f = m.make_frame();
  EXPECT_TRUE(has_domain(f, "parent"));
  EXPECT_FALSE(has_domain(f, "nest"));
  EXPECT_NEAR(attr_double(f, "sim_time_seconds"), m.sim_time().seconds(),
              1e-9);
  EXPECT_NEAR(attr_double(f, "min_pressure_hpa"), m.min_pressure_hpa(), 1e-9);
  EXPECT_DOUBLE_EQ(attr_double(f, "modeled_resolution_km"), 24.0);
  const DomainState parent = decode_domain(f, "parent");
  EXPECT_EQ(parent.grid, m.parent_state().grid);
}

TEST(WeatherModel, CheckpointRestoreRoundTrip) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  run_hours(m, 18.0);
  ASSERT_TRUE(m.nest_active());
  const NclFile ckpt = m.checkpoint();

  WeatherModel r = WeatherModel::restore(cfg, ResolutionLadder::table3(), ckpt);
  EXPECT_DOUBLE_EQ(r.sim_time().seconds(), m.sim_time().seconds());
  EXPECT_DOUBLE_EQ(r.modeled_resolution_km(), m.modeled_resolution_km());
  EXPECT_NEAR(r.min_pressure_hpa(), m.min_pressure_hpa(), 2.0);
  EXPECT_TRUE(r.nest_active());
  EXPECT_NEAR(r.physics().deficit_hpa(), m.physics().deficit_hpa(), 1e-9);
  EXPECT_NEAR(r.eye().lat, m.eye().lat, 0.5);

  // The restored model keeps evolving sanely.
  const double p0 = r.min_pressure_hpa();
  run_hours(r, 3.0);
  EXPECT_LT(r.min_pressure_hpa(), p0 + 2.0);
}

TEST(WeatherModel, RestoreAtNewResolution) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  run_hours(m, 18.0);
  const NclFile ckpt = m.checkpoint();

  WeatherModel r = WeatherModel::restore(cfg, ResolutionLadder::table3(), ckpt);
  r.set_modeled_resolution(15.0);
  EXPECT_DOUBLE_EQ(r.modeled_resolution_km(), 15.0);
  EXPECT_NEAR(r.min_pressure_hpa(), m.min_pressure_hpa(), 5.0);
  r.step();  // still integrates
  EXPECT_TRUE(std::isfinite(r.min_pressure_hpa()));
}

TEST(WeatherModel, ComputeScaleValidated) {
  ModelConfig cfg;
  cfg.compute_scale = 0.5;
  EXPECT_THROW(WeatherModel m(cfg), std::invalid_argument);
}

TEST(WeatherModel, DeterministicForFixedConfig) {
  WeatherModel a(fast_config());
  WeatherModel b(fast_config());
  for (int i = 0; i < 50; ++i) {
    a.step();
    b.step();
  }
  EXPECT_DOUBLE_EQ(a.min_pressure_hpa(), b.min_pressure_hpa());
  EXPECT_DOUBLE_EQ(a.eye().lat, b.eye().lat);
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_field(std::uint64_t h, const Field2D& f) {
  return fnv1a_bytes(h, f.data().data(), f.size() * sizeof(double));
}

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  return fnv1a_bytes(h, &v, sizeof v);
}

/// Digest of everything one forced step writes: parent and nest h/u/v plus
/// the intensity ODE's deficit and prognostic storm centre.
std::uint64_t weather_digest(const WeatherModel& m) {
  std::uint64_t h = 1469598103934665603ull;
  for (const DomainState* s : {&m.parent_state(), &m.nest()->state()}) {
    h = fnv1a_field(h, s->h);
    h = fnv1a_field(h, s->u);
    h = fnv1a_field(h, s->v);
  }
  h = fnv1a_double(h, m.physics().deficit_hpa());
  h = fnv1a_double(h, m.physics().center().lat);
  h = fnv1a_double(h, m.physics().center().lon);
  return h;
}

// Pins WeatherModel::step bit for bit with the storm forcing on and the
// nest stepping its three forced sub-steps, on the default compute grids
// (whose parent straddles the forcing's w = 1e-4 cut-off). Captured before
// the forcing geometry was split from its flow-dependent part; a change here
// is a change to the model's numbers, not a refactor.
constexpr std::uint64_t kGoldenForcedNestSteps = 0x253ea8cee1543ee3ull;

TEST(WeatherModel, ForcedNestStepsMatchGoldenDigest) {
  WeatherModel m{ModelConfig{}};
  int steps = 0;
  while (!m.nest_active()) {
    m.step();
    ASSERT_LT(++steps, 1000) << "nest never spawned";
  }
  for (int k = 0; k < 150; ++k) m.step();
  ASSERT_TRUE(m.nest_active());
  EXPECT_GT(m.physics().deficit_hpa(), 2.0);  // forcing stayed on
  EXPECT_EQ(weather_digest(m), kGoldenForcedNestSteps)
      << std::hex << weather_digest(m) << " after " << std::dec << steps
      << " steps to nest spawn";
}

}  // namespace
}  // namespace adaptviz
