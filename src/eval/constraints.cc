#include "eval/constraints.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/lru_cache.h"
#include "spatial/grid_index.h"

namespace tspn::eval {

/// See constraints.h: one fence circle compiled against the prefilter grid.
struct FenceClassification {
  /// Classification of one prefilter grid cell.
  enum CellState : uint8_t { kOutside = 0, kBoundary = 1, kInside = 2 };

  explicit FenceClassification(const geo::BoundingBox& region, int32_t cells)
      : grid(region, cells) {}

  spatial::GridIndex grid;
  std::vector<uint8_t> cell_state;
};

namespace {

/// Cells per side of the geo-fence prefilter grid. 32x32 keeps the one-off
/// classification cheap (only cells inside the fence's bounding box are
/// visited) while making boundary cells — the only ones that still need a
/// per-POI haversine — a thin ring around the fence circle.
constexpr int32_t kFenceGridCells = 32;

/// Degrees of latitude per kilometre (and of longitude at the equator).
constexpr double kDegPerKm = 1.0 / 111.19;

/// Compiles one fence circle: classify every grid cell the fence's bounding
/// box can reach as outside/boundary/inside the circle.
std::shared_ptr<const FenceClassification> CompileFence(
    const geo::BoundingBox& region, const geo::GeoPoint& center,
    double radius_km) {
  auto fence = std::make_shared<FenceClassification>(region, kFenceGridCells);
  fence->cell_state.assign(static_cast<size_t>(fence->grid.NumTiles()),
                           FenceClassification::kOutside);
  // Classify only the cells the fence's bounding box can reach; everything
  // else stays kOutside.
  // 10% slack on the box so spherical-vs-planar drift can never leave a
  // fence-reaching cell unclassified (unvisited cells read as kOutside).
  const double dlat = 1.1 * radius_km * kDegPerKm;
  const double dlon = 1.1 * radius_km * kDegPerKm /
                      std::max(0.1, std::cos(center.lat * M_PI / 180.0));
  geo::BoundingBox fence_box{center.lat - dlat, center.lon - dlon,
                             center.lat + dlat, center.lon + dlon};
  int32_t row0, row1, col0, col1;
  if (fence->grid.TileSpan(fence_box, &row0, &row1, &col0, &col1)) {
    for (int32_t row = row0; row <= row1; ++row) {
      for (int32_t col = col0; col <= col1; ++col) {
        const int64_t cell = static_cast<int64_t>(row) * kFenceGridCells + col;
        const geo::BoundingBox bounds = fence->grid.TileBounds(cell);
        if (geo::MinDistanceKm(bounds, center) > radius_km) {
          continue;  // stays kOutside
        }
        fence->cell_state[static_cast<size_t>(cell)] =
            geo::MaxCornerDistanceKm(bounds, center) <= radius_km
                ? FenceClassification::kInside
                : FenceClassification::kBoundary;
      }
    }
  }
  return fence;
}

/// Bytes one compiled fence holds: every one has the same grid.
constexpr int64_t kFenceBytes = static_cast<int64_t>(
    sizeof(FenceClassification) + kFenceGridCells * kFenceGridCells);

/// Byte bound of the classification cache: 128 compiled fences.
constexpr int64_t kFenceCacheBytes = 128 * kFenceBytes;

/// Process-wide classification cache. The classification is a pure function
/// of (region, center, radius) — nothing dataset-lifetime-bound is stored —
/// so the key is the exact bit patterns of those seven doubles: any change
/// of fence or region recompiles, identical recurring fences share one
/// immutable compiled entry. A bounded LRU, so a scan over many distinct
/// fences cannot grow it without bound.
class FenceCache {
 public:
  using Key = std::array<uint64_t, 7>;

  /// std::array has no std::hash: a hash_combine over the seven words.
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = 0;
      for (uint64_t word : key) {
        h ^= word + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };

  static Key MakeKey(const geo::BoundingBox& region, const geo::GeoPoint& center,
                     double radius_km) {
    const double values[7] = {region.min_lat, region.min_lon, region.max_lat,
                              region.max_lon, center.lat,     center.lon,
                              radius_km};
    Key key;
    std::memcpy(key.data(), values, sizeof(values));
    return key;
  }

  std::shared_ptr<const FenceClassification> Get(const geo::BoundingBox& region,
                                                 const geo::GeoPoint& center,
                                                 double radius_km) {
    const Key key = MakeKey(region, center, radius_km);
    if (std::shared_ptr<const FenceClassification> fence = entries_.Get(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return fence;
    }
    // Compile outside the cache's lock: concurrent first-seen fences build
    // in parallel. A racing duplicate replaces an identical compilation.
    std::shared_ptr<const FenceClassification> fence =
        CompileFence(region, center, radius_km);
    misses_.fetch_add(1, std::memory_order_relaxed);
    entries_.Put(key, fence, kFenceBytes);
    return fence;
  }

  FenceCacheStats Stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  void Clear() {
    entries_.Clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  static FenceCache& Global() {
    static FenceCache* cache = new FenceCache();
    return *cache;
  }

 private:
  common::LruCache<Key, FenceClassification, KeyHash> entries_{
      kFenceCacheBytes};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace

FenceCacheStats FenceClassificationCacheStats() {
  return FenceCache::Global().Stats();
}

void ClearFenceClassificationCache() { FenceCache::Global().Clear(); }

ConstraintEvaluator::ConstraintEvaluator(const data::CityDataset& dataset,
                                         const CandidateConstraints& constraints,
                                         const data::SampleRef& sample)
    : dataset_(dataset), constraints_(constraints), active_(constraints.Active()) {
  if (!active_) return;

  const size_t num_categories =
      static_cast<size_t>(dataset.profile().num_categories);
  if (!constraints.allowed_categories.empty() ||
      !constraints.blocked_categories.empty()) {
    category_allowed_.assign(num_categories,
                             constraints.allowed_categories.empty() ? 1 : 0);
    for (int32_t cat : constraints.allowed_categories) {
      if (cat >= 0 && static_cast<size_t>(cat) < num_categories) {
        category_allowed_[static_cast<size_t>(cat)] = 1;
      }
    }
    for (int32_t cat : constraints.blocked_categories) {
      if (cat >= 0 && static_cast<size_t>(cat) < num_categories) {
        category_allowed_[static_cast<size_t>(cat)] = 0;
      }
    }
  }
  if (constraints.open_at >= 0) {
    // Resolve the open-time window for every day part up front, so a
    // multi-step caller can move the query clock without rebuilding the
    // evaluator (AllowsAt picks the row for its timestamp's day part).
    const auto& categories = dataset.categories();
    open_allowed_.assign(static_cast<size_t>(data::kNumDayParts) *
                             num_categories,
                         1);
    for (size_t part = 0; part < static_cast<size_t>(data::kNumDayParts);
         ++part) {
      for (size_t cat = 0; cat < num_categories && cat < categories.size();
           ++cat) {
        if (categories[cat].time_weights[part] < constraints.min_open_weight) {
          open_allowed_[part * num_categories + cat] = 0;
        }
      }
    }
  }

  if (constraints.exclude_visited) {
    const data::Trajectory& traj = dataset.trajectory(sample);
    for (int32_t i = 0; i < sample.prefix_len; ++i) {
      visited_.insert(traj.checkins[static_cast<size_t>(i)].poi_id);
    }
  }

  if (constraints.geo_radius_km > 0.0) {
    fence_ = FenceCache::Global().Get(dataset.profile().bbox,
                                      constraints.geo_center,
                                      constraints.geo_radius_km);
  }
}

bool ConstraintEvaluator::Allows(int64_t poi_id) const {
  return AllowsAt(poi_id, constraints_.open_at);
}

bool ConstraintEvaluator::AllowsAt(int64_t poi_id, int64_t timestamp) const {
  if (!active_) return true;
  const data::Poi& poi = dataset_.poi(poi_id);
  if (!category_allowed_.empty()) {
    const size_t cat = static_cast<size_t>(poi.category);
    if (cat >= category_allowed_.size() || !category_allowed_[cat]) return false;
  }
  if (!open_allowed_.empty() && timestamp >= 0) {
    const size_t num_categories = open_allowed_.size() /
                                  static_cast<size_t>(data::kNumDayParts);
    const size_t part = static_cast<size_t>(data::DayPartOf(timestamp));
    const size_t cat = static_cast<size_t>(poi.category);
    if (cat >= num_categories || !open_allowed_[part * num_categories + cat]) {
      return false;
    }
  }
  if (!visited_.empty() && visited_.count(poi_id) > 0) return false;
  if (fence_ != nullptr) {
    switch (
        fence_->cell_state[static_cast<size_t>(fence_->grid.TileOf(poi.loc))]) {
      case FenceClassification::kOutside:
        return false;
      case FenceClassification::kInside:
        break;
      case FenceClassification::kBoundary:
        if (geo::HaversineKm(poi.loc, constraints_.geo_center) >
            constraints_.geo_radius_km) {
          return false;
        }
        break;
    }
  }
  return true;
}

bool ConstraintEvaluator::BoundsMayIntersectFence(
    const geo::BoundingBox& bounds) const {
  if (fence_ == nullptr) return true;
  return geo::MinDistanceKm(bounds, constraints_.geo_center) <=
         constraints_.geo_radius_km;
}

std::unique_ptr<ConstraintEvaluator> MakeConstraintFilter(
    const data::CityDataset& dataset, const RecommendRequest& request) {
  if (!request.constraints.Active()) return nullptr;
  return std::make_unique<ConstraintEvaluator>(dataset, request.constraints,
                                               request.sample);
}

RecommendResponse RankAllPois(const float* scores, int64_t num_pois,
                              const RecommendRequest& request,
                              const data::CityDataset& dataset) {
  std::vector<int64_t> allowed;
  if (request.constraints.Active()) {
    ConstraintEvaluator filter(dataset, request.constraints, request.sample);
    allowed.reserve(static_cast<size_t>(num_pois));
    for (int64_t id = 0; id < num_pois; ++id) {
      if (filter.Allows(id)) allowed.push_back(id);
    }
  } else {
    allowed.resize(static_cast<size_t>(num_pois));
    for (int64_t id = 0; id < num_pois; ++id) {
      allowed[static_cast<size_t>(id)] = id;
    }
  }

  auto better = [scores](int64_t a, int64_t b) {
    const float sa = scores[a], sb = scores[b];
    if (sa != sb) return sa > sb;
    return a < b;
  };
  const int64_t keep =
      std::min<int64_t>(request.top_n, static_cast<int64_t>(allowed.size()));
  if (keep < static_cast<int64_t>(allowed.size())) {
    std::nth_element(allowed.begin(), allowed.begin() + keep, allowed.end(),
                     better);
    allowed.resize(static_cast<size_t>(keep));
  }
  std::sort(allowed.begin(), allowed.end(), better);

  RecommendResponse response;
  response.stages_used = 1;
  response.items.reserve(allowed.size());
  for (int64_t id : allowed) {
    response.items.push_back({id, scores[id], /*tile_index=*/-1});
  }
  return response;
}

}  // namespace tspn::eval
