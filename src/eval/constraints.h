#ifndef TSPN_EVAL_CONSTRAINTS_H_
#define TSPN_EVAL_CONSTRAINTS_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "eval/recommend.h"

namespace tspn::eval {

/// A compiled geo-fence: every cell of a fixed grid over the dataset
/// region classified against the fence circle (outside/boundary/inside).
/// Immutable once built, so recurring fences are shared across evaluators
/// through the process-wide classification cache below.
struct FenceClassification;

/// Binds a request's CandidateConstraints to the dataset and sample so
/// models can test candidates with one Allows() call. Construction is
/// per-request: category sets become a bitmask over category ids, the
/// observed prefix becomes a visited set, and the geo fence is compiled
/// into a coarse spatial::GridIndex cell classification (outside /
/// boundary / inside) so most POIs resolve without a distance computation.
///
/// Fence compilation is cached per (dataset region, center, radius): a
/// recurring fence — e.g. one fixed city-center fence across millions of
/// queries — classifies its grid once and every later evaluator reuses the
/// shared immutable classification (see FenceClassificationCacheStats).
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

  /// Conservative tile-level prune: false only when no point of `bounds`
  /// can lie inside the geo fence, so an entire candidate tile can be
  /// skipped before its POIs are gathered. Always true without a fence.
  bool BoundsMayIntersectFence(const geo::BoundingBox& bounds) const;

 private:
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
  std::unordered_set<int64_t> visited_;

  /// Geo-fence prefilter (only when the fence is active): the shared
  /// immutable cell classification, from the cache or freshly compiled;
  /// Allows() then needs a haversine only for boundary cells.
  std::shared_ptr<const FenceClassification> fence_;
};

/// Hit/miss counters of the process-wide fence-classification cache.
struct FenceCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;  ///< compilations
};

FenceCacheStats FenceClassificationCacheStats();

/// Drops every cached classification and zeroes the counters (tests).
void ClearFenceClassificationCache();

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
