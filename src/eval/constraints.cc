#include "eval/constraints.h"

#include <algorithm>

namespace tspn::eval {

FenceCacheStats FenceClassificationCacheStats() { return {}; }

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
    visited_.reserve(static_cast<size_t>(sample.prefix_len));
    for (int32_t i = 0; i < sample.prefix_len; ++i) {
      visited_.push_back(traj.checkins[static_cast<size_t>(i)].poi_id);
    }
    std::sort(visited_.begin(), visited_.end());
    visited_.erase(std::unique(visited_.begin(), visited_.end()),
                   visited_.end());
  }

  if (constraints.geo_radius_km > 0.0) {
    fence_center_ = constraints.geo_center;
    fence_radius_km_ = constraints.geo_radius_km;
  }
}

bool ConstraintEvaluator::Allows(int64_t poi_id) const {
  return AllowsAt(poi_id, constraints_.open_at);
}

bool ConstraintEvaluator::AllowsAt(int64_t poi_id, int64_t timestamp) const {
  return AllowsIgnoringFence(poi_id, timestamp) && WithinFence(poi_id);
}

FenceRelation ConstraintEvaluator::TileRelation(
    const geo::BoundingBox& bounds) const {
  if (fence_radius_km_ == 0.0) return FenceRelation::kInside;
  if (!(geo::MinDistanceKm(bounds, fence_center_) <= fence_radius_km_)) {
    return FenceRelation::kOutside;
  }
  return geo::MaxCornerDistanceKm(bounds, fence_center_) <= fence_radius_km_
             ? FenceRelation::kInside
             : FenceRelation::kBoundary;
}

bool ConstraintEvaluator::AllowsInTile(int64_t poi_id,
                                       FenceRelation relation) const {
  if (relation == FenceRelation::kOutside) return false;
  return AllowsIgnoringFence(poi_id, constraints_.open_at) &&
         (relation == FenceRelation::kInside || WithinFence(poi_id));
}

bool ConstraintEvaluator::AllowsIgnoringFence(int64_t poi_id,
                                              int64_t timestamp) const {
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
  return !std::binary_search(visited_.begin(), visited_.end(), poi_id);
}

bool ConstraintEvaluator::WithinFence(int64_t poi_id) const {
  return fence_radius_km_ == 0.0 ||
         geo::HaversineKm(dataset_.poi(poi_id).loc, fence_center_) <=
             fence_radius_km_;
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
