#include "spatial/grid_index.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tspn::spatial {
namespace {

TEST(GridIndexTest, TileCount) {
  GridIndex grid({0, 0, 1, 1}, 8);
  EXPECT_EQ(grid.NumTiles(), 64);
}

TEST(GridIndexTest, TileOfCorners) {
  GridIndex grid({0, 0, 1, 1}, 4);
  EXPECT_EQ(grid.TileOf({0.0, 0.0}), 0);
  // Near the NE corner -> last tile.
  EXPECT_EQ(grid.TileOf({0.999, 0.999}), 15);
}

TEST(GridIndexTest, BoundsContainTheirPoints) {
  GridIndex grid({10, 20, 11, 22}, 5);
  common::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    geo::GeoPoint p{rng.Uniform(10, 11), rng.Uniform(20, 22)};
    int64_t tile = grid.TileOf(p);
    EXPECT_TRUE(grid.TileBounds(tile).Contains(p));
  }
}

TEST(GridIndexTest, TilesPartitionRegion) {
  GridIndex grid({0, 0, 1, 1}, 3);
  common::Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    geo::GeoPoint p{rng.Uniform(), rng.Uniform()};
    int covering = 0;
    for (int64_t t = 0; t < grid.NumTiles(); ++t) {
      if (grid.TileBounds(t).Contains(p)) ++covering;
    }
    EXPECT_EQ(covering, 1);
  }
}

TEST(GridIndexTest, RowColRoundTrip) {
  GridIndex grid({0, 0, 1, 1}, 7);
  for (int64_t t = 0; t < grid.NumTiles(); ++t) {
    int32_t row, col;
    grid.TileRowCol(t, &row, &col);
    EXPECT_EQ(static_cast<int64_t>(row) * 7 + col, t);
  }
}

TEST(GridIndexTest, OutOfRegionPointsClampToEdgeTiles) {
  GridIndex grid({0, 0, 1, 1}, 4);
  EXPECT_EQ(grid.TileOf({-5.0, -5.0}), 0);
  EXPECT_EQ(grid.TileOf({5.0, 5.0}), 15);
}

TEST(GridIndexTest, UnevenDensityYieldsUnevenOccupancy) {
  // The deficiency the paper ascribes to grids: clustered points all land in
  // one cell while most cells stay empty.
  GridIndex grid({0, 0, 1, 1}, 8);
  common::Rng rng(3);
  std::vector<int> counts(static_cast<size_t>(grid.NumTiles()), 0);
  for (int i = 0; i < 1000; ++i) {
    geo::GeoPoint p{0.3 + rng.Gaussian() * 0.01, 0.3 + rng.Gaussian() * 0.01};
    if (p.lat < 0 || p.lat >= 1 || p.lon < 0 || p.lon >= 1) continue;
    ++counts[static_cast<size_t>(grid.TileOf(p))];
  }
  int max_count = 0, occupied = 0;
  for (int c : counts) {
    max_count = std::max(max_count, c);
    occupied += (c > 0);
  }
  EXPECT_GT(max_count, 500);  // heavy clustering in one cell
  EXPECT_LT(occupied, 8);     // almost all cells empty
}

}  // namespace
}  // namespace tspn::spatial
