#ifndef TSPN_PLAN_ITINERARY_H_
#define TSPN_PLAN_ITINERARY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "data/dataset.h"
#include "eval/model_api.h"
#include "eval/recommend.h"

namespace tspn::plan {

/// How the planner searches the rollout tree (docs/itinerary.md). Beam is
/// the only mode; the request and wire layout keep the field.
enum class SearchMode : uint8_t {
  kBeam = 0,  ///< breadth-first beam over frontier expansions
};

/// A constrained k-stop trip-planning query. The model's next-POI
/// distribution is anchored on `start` (a prediction instance, like every
/// RecommendRequest); the planner chains up to `k_stops` predictions into
/// an itinerary that is feasible under a wall-clock budget, per-stop dwell
/// time, open-hour windows, a category quota, and the request's candidate
/// constraints (geo fence, allow/block lists, exclude-visited).
struct ItineraryRequest {
  /// Prediction instance the rollout is conditioned on. The trip departs
  /// from the location of the prefix's last check-in.
  data::SampleRef start;

  int32_t k_stops = 3;  ///< stops to plan (>= 1); fewer when infeasible

  /// Wall-clock budget in hours, covering every travel leg and per-stop
  /// dwell — and the return leg when `return_to_start` is set.
  double time_budget_hours = 8.0;
  double travel_speed_kmh = 30.0;  ///< straight-line (haversine) speed
  double dwell_hours = 1.0;        ///< time spent at each stop

  /// Departure time (unix seconds); < 0 derives it from the timestamp of
  /// the prefix's last check-in. The per-stop clock advances from here.
  int64_t start_time = -1;

  /// Budget must also cover travelling back to the departure location
  /// (the "return-to-hotel" fence).
  bool return_to_start = false;

  /// At most this many stops of any one category; 0 = unlimited.
  int32_t max_stops_per_category = 0;

  /// Enforce the open-hour window at each stop's *arrival* time (category
  /// day-part weight >= constraints.min_open_weight), advancing the clock
  /// stop by stop. Off, the open-time constraint (if any) stays static at
  /// constraints.open_at, like a plain recommendation query.
  bool enforce_open_hours = false;

  /// Per-candidate filters applied at every expansion (geo fence, category
  /// allow/block, exclude-visited, static open-time window).
  eval::CandidateConstraints constraints;

  SearchMode mode = SearchMode::kBeam;
};

/// One planned stop. Times are offsets in hours from the trip's departure.
struct ItineraryStop {
  int64_t poi_id = 0;
  float model_score = 0.0f;  ///< the model's score for this step
  double arrive_hours = 0.0;
  double depart_hours = 0.0;
  double travel_km = 0.0;  ///< leg from the previous location
};

/// A feasible itinerary. `total_score` is the sum of per-stop model scores
/// accumulated in stop order (double accumulator) — re-scoring each step
/// independently reproduces it exactly.
struct ItineraryPlan {
  std::vector<ItineraryStop> stops;
  double total_score = 0.0;
  double total_hours = 0.0;  ///< includes the return leg when fenced
  double total_km = 0.0;     ///< includes the return leg when fenced
};

/// Planner output: up to PlannerOptions::max_plans feasible plans, best
/// first (total_score descending, stop sequence ascending on ties).
struct ItineraryResponse {
  std::vector<ItineraryPlan> plans;
  int64_t expansions = 0;       ///< batched scoring calls issued
  int64_t rollouts_scored = 0;  ///< individual model queries scored
};

/// Scores a batch of step requests; result[i] answers requests[i]. The
/// default scorer calls NextPoiModel::RecommendBatch directly; the gateway
/// installs one that submits through the deployment's InferenceEngine so
/// rollout batches coalesce with live traffic. Any scorer must preserve
/// per-request parity with model.Recommend (the engine and RecommendBatch
/// both do, bitwise).
using BatchScoreFn = std::function<std::vector<eval::RecommendResponse>(
    common::Span<eval::RecommendRequest>)>;

/// Planner tuning, set by the caller in code.
struct PlannerOptions {
  int32_t beam_width = 4;                 ///< beam nodes kept per depth
  int32_t candidates_per_expansion = 8;  ///< model candidates per expansion
  int32_t max_plans = 3;                  ///< plans returned, best first
  /// Quadtree-tile adjacency gate: a candidate must lie within this many
  /// leaf-adjacency hops of the previous stop's leaf; 0 disables.
  int32_t adjacency_hops = 0;
};

/// Hard cap on k_stops — also the per-plan stop cap the wire codec
/// enforces on decode (serve/codec.h).
constexpr int32_t kMaxItineraryStops = 64;

/// Turns the model's next-POI distribution into constrained k-stop trips.
///
/// Search: each frontier node is a partial itinerary (stops so far + a
/// clock). Expanding a node asks the model for its top candidates — and
/// every expansion wave is ONE RecommendBatch call across the whole
/// frontier, so the engine's coalescing prices rollouts like a single
/// batched query. Feasibility (travel time via geo::HaversineKm + dwell,
/// the time budget with its optional return leg, open hours at arrival,
/// no-repeat, category quota, candidate constraints) is enforced at
/// expansion, never post-hoc: an infeasible candidate simply produces no
/// child. A node with no feasible child terminates as a (shorter) plan.
///
/// Determinism: no randomness anywhere — candidate order comes from the
/// model's ranked response, ties in plan ordering break on the stop
/// sequence, and the clock advances in whole seconds — so a fixed request
/// yields bit-identical plans across runs and across scorers that keep
/// per-request parity with Recommend: the default RecommendBatch scorer
/// and, say, one installed with set_scorer that serves a wave one request
/// at a time.
///
/// Thread-safe after construction (Plan is const and allocates per call),
/// as long as the scorer is. The model and dataset must outlive the
/// planner.
class ItineraryPlanner {
 public:
  ItineraryPlanner(const eval::NextPoiModel& model,
                   std::shared_ptr<const data::CityDataset> dataset,
                   PlannerOptions options = {});

  /// Replaces the default model.RecommendBatch scorer (see BatchScoreFn).
  void set_scorer(BatchScoreFn scorer);

  /// Plans `request`. False with *error set on an invalid request; an
  /// empty response.plans with true means the request was valid but no
  /// feasible stop exists. Blocking — bounded by the search knobs.
  bool Plan(const ItineraryRequest& request, ItineraryResponse* out,
            std::string* error = nullptr) const;

  /// Request validation shared with the serving gateway. False with
  /// *error set ("invalid request: ..." prefix) when a field is out of
  /// range for this dataset.
  static bool Validate(const ItineraryRequest& request,
                       const data::CityDataset& dataset, std::string* error);

  /// The exact RecommendRequest the planner issues to score step
  /// `step_index` of `plan` (stops [0, step_index) already planned).
  /// Exposed so tests can re-score a returned plan independently and
  /// assert each stop's model_score — and their sum — to the bit.
  static eval::RecommendRequest StepRequestFor(const ItineraryRequest& request,
                                               const ItineraryPlan& plan,
                                               size_t step_index,
                                               const data::CityDataset& dataset,
                                               const PlannerOptions& options);

  const PlannerOptions& options() const { return options_; }

 private:
  struct SearchContext;

  void SearchBeam(SearchContext& ctx) const;

  const eval::NextPoiModel& model_;
  std::shared_ptr<const data::CityDataset> dataset_;
  PlannerOptions options_;
  BatchScoreFn scorer_;
};

}  // namespace tspn::plan

#endif  // TSPN_PLAN_ITINERARY_H_
