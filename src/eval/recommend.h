#ifndef TSPN_EVAL_RECOMMEND_H_
#define TSPN_EVAL_RECOMMEND_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "data/trajectory.h"
#include "geo/geometry.h"

namespace tspn::eval {

/// Candidate filters applied *before* top-k selection, so a constrained
/// query still fills its full top_n whenever enough candidates satisfy the
/// predicate (TSPN-RA widens its stage-1 tile screen until they do).
/// Default-constructed constraints are inactive and leave rankings
/// identical to an unconstrained query.
struct CandidateConstraints {
  /// Geo fence: keep POIs within `geo_radius_km` of `geo_center`
  /// (great-circle distance). radius <= 0 disables the fence.
  geo::GeoPoint geo_center;
  double geo_radius_km = 0.0;

  /// Category allow-list (empty = every category allowed) and block-list.
  /// A category on both lists is blocked.
  std::vector<int32_t> allowed_categories;
  std::vector<int32_t> blocked_categories;

  /// Drop POIs already visited in the sample's observed prefix
  /// (novelty-seeking queries).
  bool exclude_visited = false;

  /// Open-time window: keep POIs whose category's day-part visiting
  /// affinity at this timestamp is >= `min_open_weight` (see
  /// data::CategoryInfo::time_weights). open_at < 0 disables.
  int64_t open_at = -1;
  double min_open_weight = 0.5;

  bool Active() const {
    return geo_radius_km > 0.0 || !allowed_categories.empty() ||
           !blocked_categories.empty() || exclude_visited || open_at >= 0;
  }

  /// Whether the fence fields are finite. Request validators reject a NaN
  /// or infinite center or radius: such a fence has no meaningful extent.
  bool FenceFinite() const {
    return std::isfinite(geo_center.lat) && std::isfinite(geo_center.lon) &&
           std::isfinite(geo_radius_km);
  }
};

/// A structured recommendation query: which prediction instance to serve,
/// how many POIs to return, and the candidate constraints to apply.
struct RecommendRequest {
  data::SampleRef sample;
  int64_t top_n = 10;
  CandidateConstraints constraints;

  /// Upper bound on the stage-1 tile screen, constraint-driven widening
  /// included; 0 (the default) leaves the screen unbounded. Not a wire
  /// field: the serving gateway sets it while an endpoint is degraded under
  /// overload, trading constrained-recall for bounded per-request work
  /// (docs/serving.md "Graceful degradation"). A capped screen may return
  /// fewer than top_n items for a heavily constrained query.
  int64_t max_tiles_screened = 0;
};

/// One ranked entry of a RecommendResponse.
struct ScoredPoi {
  int64_t poi_id = 0;
  /// The model's native ranking score (cosine similarity for TSPN-RA —
  /// with the gamma-weighted stage-1 tile prior fused in — raw logits for
  /// the baselines). Never comparable across models; the item order is the
  /// authoritative ranking — models with tiered rankings (HMT-GRN's beam,
  /// then its global back-fill) emit tier-local score scales, so consumers
  /// must not re-sort a response by score.
  float score = 0.0f;
  /// Dense candidate-tile index whose stage-1 screen produced this POI
  /// (TSPN-RA's two-step pipeline); -1 for single-stage models.
  int64_t tile_index = -1;
};

/// Ranked scored recommendations, best first, at most `top_n` entries.
struct RecommendResponse {
  std::vector<ScoredPoi> items;
  /// 1 = single-stage scoring over the POI vocabulary; 2 = the stage-1 tile
  /// screen ran before POI ranking (TSPN-RA with use_two_step).
  int32_t stages_used = 1;
  /// Stage-1 tiles kept by the screen, after any constraint-driven
  /// widening; 0 for single-stage models.
  int64_t tiles_screened = 0;

  /// The ranked POI ids alone, best first.
  std::vector<int64_t> PoiIds() const {
    std::vector<int64_t> ids;
    ids.reserve(items.size());
    for (const ScoredPoi& item : items) ids.push_back(item.poi_id);
    return ids;
  }
};

}  // namespace tspn::eval

#endif  // TSPN_EVAL_RECOMMEND_H_
