#include "eval/cold_start.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "data/poi.h"

namespace tspn::eval {

ColdStartPriors::ColdStartPriors(
    std::shared_ptr<const data::CityDataset> dataset, Options options)
    : dataset_(std::move(dataset)),
      options_(options),
      density_grid_(dataset_->profile().bbox, options.grid_cells_per_side),
      day_part_totals_(data::kNumDayParts, 0),
      tile_visits_(static_cast<size_t>(density_grid_.NumTiles()), 0) {
  TSPN_CHECK_GT(options_.tau_km, 0.0);
}

bool ColdStartPriors::AddPoi(int64_t poi_id, const geo::GeoPoint& loc,
                             int32_t category) {
  if (poi_id >= 0 && poi_id < static_cast<int64_t>(dataset_->pois().size())) {
    return false;  // not cold: the dataset (and the model) know this id
  }
  std::lock_guard<std::mutex> lock(mutex_);
  cold_pois_.emplace(poi_id, ColdPoi{loc, category});
  return true;
}

void ColdStartPriors::RecordVisit(const geo::GeoPoint& loc, int32_t category,
                                  int64_t timestamp) {
  const int day_part = static_cast<int>(data::DayPartOf(timestamp));
  const int64_t tile = density_grid_.TileOf(loc);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      category_visits_.try_emplace(category, data::kNumDayParts, 0);
  ++it->second[static_cast<size_t>(day_part)];
  ++day_part_totals_[static_cast<size_t>(day_part)];
  if (tile >= 0 && tile < static_cast<int64_t>(tile_visits_.size())) {
    max_tile_visits_ =
        std::max(max_tile_visits_, ++tile_visits_[static_cast<size_t>(tile)]);
  }
}

int64_t ColdStartPriors::NumColdPois() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(cold_pois_.size());
}

bool ColdStartPriors::Contains(int64_t poi_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cold_pois_.count(poi_id) > 0;
}

double ColdStartPriors::ScoreLocked(const ColdPoi& poi,
                                    const geo::GeoPoint& from,
                                    int64_t timestamp) const {
  const double proximity =
      std::exp(-geo::HaversineKm(from, poi.loc) / options_.tau_km);
  // Category-time affinity in [0.5, 1.5]: the category's share of all
  // visits observed in this day-part, centred so an unobserved category
  // still scores (new POIs should not be starved by empty statistics).
  const int day_part = static_cast<int>(data::DayPartOf(timestamp));
  double share = 0.0;
  auto it = category_visits_.find(poi.category);
  if (it != category_visits_.end() &&
      day_part_totals_[static_cast<size_t>(day_part)] > 0) {
    share = static_cast<double>(it->second[static_cast<size_t>(day_part)]) /
            static_cast<double>(day_part_totals_[static_cast<size_t>(day_part)]);
  }
  const double affinity = 0.5 + share;
  // Local density in [0.5, 1.0]: visit mass of the POI's grid cell relative
  // to the busiest cell.
  double density = 0.5;
  const int64_t tile = density_grid_.TileOf(poi.loc);
  if (max_tile_visits_ > 0 && tile >= 0 &&
      tile < static_cast<int64_t>(tile_visits_.size())) {
    density = 0.5 + 0.5 * static_cast<double>(
                              tile_visits_[static_cast<size_t>(tile)]) /
                        static_cast<double>(max_tile_visits_);
  }
  return proximity * affinity * density;
}

double ColdStartPriors::Score(int64_t poi_id, const geo::GeoPoint& from,
                              int64_t timestamp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cold_pois_.find(poi_id);
  if (it == cold_pois_.end()) return 0.0;
  return ScoreLocked(it->second, from, timestamp);
}

int64_t ColdStartPriors::Augment(const geo::GeoPoint& from, int64_t timestamp,
                                 int64_t top_n,
                                 RecommendResponse* response) const {
  if (static_cast<int64_t>(response->items.size()) >= top_n) return 0;
  struct Scored {
    int64_t poi_id;
    double prior;
  };
  std::vector<Scored> scored;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    scored.reserve(cold_pois_.size());
    for (const auto& [poi_id, poi] : cold_pois_) {
      scored.push_back({poi_id, ScoreLocked(poi, from, timestamp)});
    }
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.prior != b.prior) return a.prior > b.prior;
    return a.poi_id < b.poi_id;
  });
  // Band placement: every cold item scores strictly below the model's worst
  // ranked item. prior / (1 + prior) maps (0, inf) into (0, 1), keeping the
  // cold items' relative order inside a band of width < 1 under the floor.
  const float floor = response->items.empty()
                          ? 0.0f
                          : response->items.back().score;
  int64_t added = 0;
  for (const Scored& entry : scored) {
    if (static_cast<int64_t>(response->items.size()) >= top_n) break;
    ScoredPoi item;
    item.poi_id = entry.poi_id;
    item.score = floor - 1.0f +
                 static_cast<float>(entry.prior / (1.0 + entry.prior));
    item.tile_index = -1;
    response->items.push_back(item);
    ++added;
  }
  return added;
}

}  // namespace tspn::eval
