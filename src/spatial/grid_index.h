#ifndef TSPN_SPATIAL_GRID_INDEX_H_
#define TSPN_SPATIAL_GRID_INDEX_H_

#include <cstdint>

#include "geo/geometry.h"
#include "spatial/tile_partition.h"

namespace tspn::spatial {

/// Fixed-granularity G x G grid over a region. This is the conventional
/// partitioning the paper's "Grid Replace Quad-tree" ablation compares
/// against: every cell has the same extent regardless of POI density.
class GridIndex : public TilePartition {
 public:
  GridIndex(const geo::BoundingBox& region, int32_t cells_per_side);

  int64_t NumTiles() const override;
  int64_t TileOf(const geo::GeoPoint& point) const override;
  geo::BoundingBox TileBounds(int64_t tile) const override;
  const geo::BoundingBox& Region() const override { return region_; }

  int32_t cells_per_side() const { return cells_per_side_; }

  /// (row, col) of a tile index.
  void TileRowCol(int64_t tile, int32_t* row, int32_t* col) const;

 private:
  geo::BoundingBox region_;
  int32_t cells_per_side_;
};

}  // namespace tspn::spatial

#endif  // TSPN_SPATIAL_GRID_INDEX_H_
