#ifndef TSPN_EVAL_CONSTRAINTS_H_
#define TSPN_EVAL_CONSTRAINTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "eval/recommend.h"

namespace tspn::eval {

/// Where a tile lies relative to a geo fence.
enum class FenceRelation {
  kOutside,   ///< no point of the tile is within the fence
  kBoundary,  ///< the fence circle crosses the tile
  kInside,    ///< every point of the tile is within the fence
};

/// Binds a request's CandidateConstraints to the dataset and sample so
/// models can test candidates with one Allows() call. Construction is
/// per-request: category sets become a bitmask over category ids, the
/// observed prefix becomes a sorted visited list, and the geo fence stays
/// a centre and a radius.
///
/// The fence is tested on the tiles the caller already screens, as in the
/// paper's two-step prediction: TileRelation() classifies a tile's bounds
/// as outside, boundary or inside, and AllowsInTile() then skips the whole
/// of an outside tile and the distance test of an inside tile's POIs, so
/// only the POIs of boundary tiles pay for a haversine. Allows() and
/// AllowsAt(), for callers without tiles, test the fence with a plain
/// haversine per POI.
///
/// A POI or tile passes the fence only when its distance d satisfies
/// d <= radius, never by d > radius failing: a NaN centre gives a NaN d
/// (geo::HaversineKm), so it rejects every POI and every tile.
///
/// The referenced dataset and constraints must outlive the evaluator.
class ConstraintEvaluator {
 public:
  ConstraintEvaluator(const data::CityDataset& dataset,
                      const CandidateConstraints& constraints,
                      const data::SampleRef& sample);

  /// Whether any constraint is active; an inactive evaluator allows all.
  bool active() const { return active_; }

  /// Whether the POI satisfies every active constraint, with the open-time
  /// window evaluated at the request's own `constraints.open_at`.
  bool Allows(int64_t poi_id) const;

  /// Allows(), but with the open-time window evaluated at `timestamp`
  /// instead of the request's open_at. Multi-step callers (the itinerary
  /// planner) advance a clock across one request, so the day-part a POI
  /// must be open in is a per-step property, not a per-request one; every
  /// other constraint (allow/block lists, visited set, fence) is
  /// time-invariant and checked identically. A negative timestamp skips
  /// the open-time check. No-op passthrough when the request carries no
  /// open-time constraint (open_at < 0).
  bool AllowsAt(int64_t poi_id, int64_t timestamp) const;

  /// Relation of a tile's `bounds` to the geo fence, from the distance to
  /// its nearest point (kOutside when not within the radius) and to its
  /// farthest corner (kInside when within it); kInside without a fence.
  /// The POI-level shortcuts this licenses hold only for POIs that lie
  /// inside `bounds`, at city scale (see geo::MinDistanceKm).
  FenceRelation TileRelation(const geo::BoundingBox& bounds) const;

  /// Allows() for a POI of a tile whose TileRelation() is `relation`:
  /// false for kOutside, no distance test for kInside, the haversine for
  /// kBoundary.
  bool AllowsInTile(int64_t poi_id, FenceRelation relation) const;

 private:
  /// Every constraint but the fence, the open-time window at `timestamp`
  /// (negative skips it).
  bool AllowsIgnoringFence(int64_t poi_id, int64_t timestamp) const;

  /// The per-POI fence test: a haversine against the radius.
  bool WithinFence(int64_t poi_id) const;

  const data::CityDataset& dataset_;
  const CandidateConstraints& constraints_;
  bool active_ = false;

  /// category id -> allowed, folding the allow/block lists. Empty when
  /// neither list is active. The open-time window is deliberately NOT
  /// folded in here (it used to be): it depends on the query time, which
  /// AllowsAt() varies per call.
  std::vector<char> category_allowed_;

  /// Day-part-resolved open-time mask, [part * num_categories + cat] ->
  /// open, for all data::kNumDayParts parts. Empty when open_at < 0.
  std::vector<char> open_allowed_;

  /// The prefix's POI ids, sorted and de-duplicated (exclude_visited).
  std::vector<int64_t> visited_;

  /// The geo fence; a radius of 0 means none.
  geo::GeoPoint fence_center_;
  double fence_radius_km_ = 0.0;
};

/// Fence-cache hit/miss counters; both always read 0, because fences are
/// tested on the candidate tiles and nothing is cached. Kept only because
/// wirebench reads them for its traced `constraints.fence_hit_frac`; delete
/// this and FenceClassificationCacheStats() with the next change to
/// wirebench.
struct FenceCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
};

/// Always {0, 0}; see FenceCacheStats.
FenceCacheStats FenceClassificationCacheStats();

/// Evaluator bound to a request's constraints, or null when none are
/// active — the one idiom every model uses to go from request to filter.
std::unique_ptr<ConstraintEvaluator> MakeConstraintFilter(
    const data::CityDataset& dataset, const RecommendRequest& request);

/// Shared single-stage ranking: selects the request's top_n from a dense
/// score vector over the whole POI vocabulary, applying the request's
/// constraints *before* selection (ties rank by ascending POI id). This is
/// how every all-POI-scoring model (the baselines) serves the v2 API.
RecommendResponse RankAllPois(const float* scores, int64_t num_pois,
                              const RecommendRequest& request,
                              const data::CityDataset& dataset);

}  // namespace tspn::eval

#endif  // TSPN_EVAL_CONSTRAINTS_H_
