#include "spatial/grid_index.h"

#include <algorithm>

#include "common/check.h"

namespace tspn::spatial {

GridIndex::GridIndex(const geo::BoundingBox& region, int32_t cells_per_side)
    : region_(region), cells_per_side_(cells_per_side) {
  TSPN_CHECK_GT(cells_per_side, 0);
  TSPN_CHECK_GT(region.LatSpan(), 0.0);
  TSPN_CHECK_GT(region.LonSpan(), 0.0);
}

int64_t GridIndex::NumTiles() const {
  return static_cast<int64_t>(cells_per_side_) * cells_per_side_;
}

int64_t GridIndex::TileOf(const geo::GeoPoint& point) const {
  double x, y;
  region_.Normalize(point, &x, &y);
  int32_t col = std::min<int32_t>(
      cells_per_side_ - 1, static_cast<int32_t>(x * cells_per_side_));
  int32_t row = std::min<int32_t>(
      cells_per_side_ - 1, static_cast<int32_t>(y * cells_per_side_));
  return static_cast<int64_t>(row) * cells_per_side_ + col;
}

geo::BoundingBox GridIndex::TileBounds(int64_t tile) const {
  int32_t row, col;
  TileRowCol(tile, &row, &col);
  double lat_step = region_.LatSpan() / cells_per_side_;
  double lon_step = region_.LonSpan() / cells_per_side_;
  return geo::BoundingBox{region_.min_lat + row * lat_step,
                          region_.min_lon + col * lon_step,
                          region_.min_lat + (row + 1) * lat_step,
                          region_.min_lon + (col + 1) * lon_step};
}

void GridIndex::TileRowCol(int64_t tile, int32_t* row, int32_t* col) const {
  TSPN_CHECK_GE(tile, 0);
  TSPN_CHECK_LT(tile, NumTiles());
  *row = static_cast<int32_t>(tile / cells_per_side_);
  *col = static_cast<int32_t>(tile % cells_per_side_);
}

}  // namespace tspn::spatial
