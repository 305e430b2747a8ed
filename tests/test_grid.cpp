#include "weather/grid.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "weather/domain_io.hpp"

namespace adaptviz {
namespace {

TEST(GridSpec, DerivesPointCounts) {
  // 60 x 50 degrees at ~1-degree spacing.
  GridSpec g(60.0, -10.0, 60.0, 50.0, kKmPerDegree);
  EXPECT_EQ(g.nx(), 61u);
  EXPECT_EQ(g.ny(), 51u);
  EXPECT_EQ(g.point_count(), 61u * 51u);
  EXPECT_DOUBLE_EQ(g.resolution_km(), kKmPerDegree);
  EXPECT_DOUBLE_EQ(g.dx_m(), kKmPerDegree * 1000.0);
}

TEST(GridSpec, AtAndInverseRoundTrip) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 50.0);
  const LatLon sw = g.at(0, 0);
  EXPECT_DOUBLE_EQ(sw.lon, 60.0);
  EXPECT_DOUBLE_EQ(sw.lat, -10.0);
  const LatLon ne = g.at(g.nx() - 1, g.ny() - 1);
  EXPECT_DOUBLE_EQ(ne.lon, 120.0);
  EXPECT_DOUBLE_EQ(ne.lat, 40.0);
  // x_of_lon / y_of_lat invert at().
  const LatLon mid = g.at(g.nx() / 2, g.ny() / 3);
  EXPECT_NEAR(g.x_of_lon(mid.lon), static_cast<double>(g.nx() / 2), 1e-9);
  EXPECT_NEAR(g.y_of_lat(mid.lat), static_cast<double>(g.ny() / 3), 1e-9);
}

TEST(GridSpec, Contains) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 100.0);
  EXPECT_TRUE(g.contains(LatLon{14.0, 88.5}));
  EXPECT_FALSE(g.contains(LatLon{45.0, 88.5}));
  EXPECT_FALSE(g.contains(LatLon{14.0, 130.0}));
}

TEST(GridSpec, Validation) {
  EXPECT_THROW(GridSpec(0, 0, -1.0, 10.0, 10.0), std::invalid_argument);
  EXPECT_THROW(GridSpec(0, 0, 10.0, 10.0, 0.0), std::invalid_argument);
  // Non-finite inputs. NaN passes `extent <= 0`; unchecked, it derives a
  // point count of 2^63 + 1.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(GridSpec(60, -10, nan, 50, 100), std::invalid_argument);
  EXPECT_THROW(GridSpec(60, -10, 60, nan, 100), std::invalid_argument);
  EXPECT_THROW(GridSpec(60, -10, 60, 50, nan), std::invalid_argument);
  EXPECT_THROW(GridSpec(nan, -10, 60, 50, 100), std::invalid_argument);
  EXPECT_THROW(GridSpec(60, inf, 60, 50, 100), std::invalid_argument);
  EXPECT_THROW(GridSpec(60, -10, inf, 50, 100), std::invalid_argument);
  EXPECT_THROW(GridSpec(60, -10, 60, 50, inf), std::invalid_argument);
  // Finite but absurd: an axis count past what lround can return, and a
  // pair of axis counts whose product wraps size_t.
  EXPECT_THROW(GridSpec(0, 0, 10.0, 10.0, 1e-300), std::invalid_argument);
  EXPECT_THROW(GridSpec(0, 0, 1e9, 1e9, 1e-3), std::invalid_argument);
  // The largest grids the model uses still build.
  EXPECT_NO_THROW(GridSpec(60, -10, 60, 50, 1.0));
}

TEST(DomainIo, DecodeRejectsNonFiniteExtent) {
  DomainState s(GridSpec(60, -10, 60, 50, 500.0));
  NclFile f;
  encode_domain(f, "parent", s);
  EXPECT_NO_THROW(decode_domain(f, "parent"));
  f.set_attribute("parent_extent_lon",
                  std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(decode_domain(f, "parent"), std::invalid_argument);
}

TEST(Field2D, IndexingAndStats) {
  Field2D f(4, 3, 1.0);
  EXPECT_EQ(f.size(), 12u);
  f(2, 1) = 7.0;
  f(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(f.min(), -2.0);
  EXPECT_DOUBLE_EQ(f.max(), 7.0);
  EXPECT_NEAR(f.mean(), (10.0 * 1.0 + 7.0 - 2.0) / 12.0, 1e-12);
  f.fill(3.0);
  EXPECT_DOUBLE_EQ(f.min(), 3.0);
  EXPECT_DOUBLE_EQ(f.max(), 3.0);
}

TEST(Field2D, SampleBilinear) {
  Field2D f(3, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 3; ++i)
      f(i, j) = static_cast<double>(i) + 10.0 * static_cast<double>(j);
  EXPECT_NEAR(f.sample(0.5, 0.5), 0.5 + 5.0, 1e-12);
  EXPECT_NEAR(f.sample(2.0, 2.0), 22.0, 1e-12);
}

TEST(Field2D, EmptyRejected) {
  EXPECT_THROW(Field2D(0, 4), std::invalid_argument);
}

TEST(Smooth, PreservesConstants) {
  Field2D f(6, 6, 3.5);
  const Field2D s = smooth(f, 3);
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(s(i, j), 3.5, 1e-12);
}

TEST(Smooth, DampensSpike) {
  Field2D f(7, 7, 0.0);
  f(3, 3) = 10.0;
  const Field2D s = smooth(f, 1);
  EXPECT_NEAR(s(3, 3), 2.0, 1e-12);  // 5-point mean of {10,0,0,0,0}
  EXPECT_NEAR(s(2, 3), 2.0, 1e-12);
  EXPECT_NEAR(s(0, 0), 0.0, 1e-12);
  // The maximum stays within one cell of the original spike (the 5-point
  // stencil spreads it into a plus shape of equal values).
  double best = -1.0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = 0; i < 7; ++i)
      if (s(i, j) > best) {
        best = s(i, j);
        bi = i;
        bj = j;
      }
  EXPECT_LE(std::abs(static_cast<int>(bi) - 3) +
                std::abs(static_cast<int>(bj) - 3),
            1);
}

}  // namespace
}  // namespace adaptviz
