#include "geo/geometry.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tspn::geo {
namespace {

TEST(GeometryTest, HaversineZeroForSamePoint) {
  GeoPoint p{40.7, -74.0};
  EXPECT_NEAR(HaversineKm(p, p), 0.0, 1e-9);
}

TEST(GeometryTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.19 km.
  GeoPoint a{0.0, 0.0}, b{1.0, 0.0};
  EXPECT_NEAR(HaversineKm(a, b), 111.19, 0.5);
}

TEST(GeometryTest, HaversineSymmetric) {
  GeoPoint a{40.7, -74.0}, b{35.68, 139.65};
  EXPECT_NEAR(HaversineKm(a, b), HaversineKm(b, a), 1e-9);
}

TEST(GeometryTest, HaversineOfNanCoordinateIsNan) {
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(HaversineKm({nan, 1.0}, {2.0, 1.0})));
  EXPECT_TRUE(std::isnan(HaversineKm({2.0, 1.0}, {2.0, nan})));
  EXPECT_TRUE(std::isnan(MinDistanceKm({0.0, 0.0, 1.0, 1.0}, {nan, 0.5})));
}

TEST(GeometryTest, EquirectangularMatchesHaversineLocally) {
  GeoPoint a{40.70, -74.00}, b{40.75, -73.95};
  EXPECT_NEAR(EquirectangularKm(a, b), HaversineKm(a, b), 0.05);
}

TEST(GeometryTest, BoundingBoxContains) {
  BoundingBox box{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(box.Contains({0.5, 0.5}));
  EXPECT_TRUE(box.Contains({0.0, 0.0}));   // min corner inclusive
  EXPECT_FALSE(box.Contains({1.0, 0.5}));  // max edge exclusive
  EXPECT_FALSE(box.Contains({-0.1, 0.5}));
}

TEST(GeometryTest, QuadrantsPartitionBox) {
  BoundingBox box{0.0, 0.0, 2.0, 2.0};
  // SW=0, SE=1, NW=2, NE=3.
  EXPECT_TRUE(box.Quadrant(0).Contains({0.5, 0.5}));
  EXPECT_TRUE(box.Quadrant(1).Contains({0.5, 1.5}));
  EXPECT_TRUE(box.Quadrant(2).Contains({1.5, 0.5}));
  EXPECT_TRUE(box.Quadrant(3).Contains({1.5, 1.5}));
  // Quadrants are disjoint at the midpoint by half-open convention.
  int count = 0;
  for (int q = 0; q < 4; ++q) count += box.Quadrant(q).Contains({1.0, 1.0});
  EXPECT_EQ(count, 1);
}

TEST(GeometryTest, QuadrantAreasSumToWhole) {
  BoundingBox box{10.0, 20.0, 11.0, 21.0};
  double total = 0.0;
  for (int q = 0; q < 4; ++q) total += box.Quadrant(q).AreaKm2();
  EXPECT_NEAR(total, box.AreaKm2(), box.AreaKm2() * 0.01);
}

TEST(GeometryTest, NormalizeMapsCornersToUnitSquare) {
  BoundingBox box{10.0, 20.0, 12.0, 24.0};
  double x, y;
  box.Normalize({10.0, 20.0}, &x, &y);
  EXPECT_NEAR(x, 0.0, 1e-12);
  EXPECT_NEAR(y, 0.0, 1e-12);
  box.Normalize({11.0, 22.0}, &x, &y);
  EXPECT_NEAR(x, 0.5, 1e-12);
  EXPECT_NEAR(y, 0.5, 1e-12);
  // Out-of-box points clamp.
  box.Normalize({100.0, 100.0}, &x, &y);
  EXPECT_EQ(x, 1.0);
  EXPECT_EQ(y, 1.0);
}

TEST(GeometryTest, ClampKeepsPointInsideHalfOpenBox) {
  BoundingBox box{0.0, 0.0, 1.0, 1.0};
  GeoPoint p = box.Clamp({5.0, -3.0});
  EXPECT_TRUE(box.Contains(p));
  GeoPoint inside = box.Clamp({0.25, 0.75});
  EXPECT_EQ(inside.lat, 0.25);
  EXPECT_EQ(inside.lon, 0.75);
}

TEST(GeometryTest, LerpEndpointsAndMidpoint) {
  GeoPoint a{0.0, 0.0}, b{2.0, 4.0};
  GeoPoint mid = Lerp(a, b, 0.5);
  EXPECT_EQ(mid.lat, 1.0);
  EXPECT_EQ(mid.lon, 2.0);
  EXPECT_EQ(Lerp(a, b, 0.0).lat, 0.0);
  EXPECT_EQ(Lerp(a, b, 1.0).lon, 4.0);
}

TEST(GeometryTest, AreaOfOneDegreeSquareAtEquator) {
  BoundingBox box{0.0, 0.0, 1.0, 1.0};
  // ~111.19 km squared.
  EXPECT_NEAR(box.AreaKm2(), 111.19 * 111.19, 400.0);
}

}  // namespace
}  // namespace tspn::geo
