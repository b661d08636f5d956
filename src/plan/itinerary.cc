#include "plan/itinerary.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>
#include <utility>

#include "eval/constraints.h"
#include "geo/geometry.h"
#include "roadnet/tile_adjacency.h"
#include "spatial/quadtree.h"

namespace tspn::plan {

namespace {

/// Departure timestamp of the trip: the request's, or the last observed
/// check-in's when unset. Callers have validated the sample.
int64_t EffectiveStartTime(const ItineraryRequest& request,
                           const data::CityDataset& dataset) {
  if (request.start_time >= 0) return request.start_time;
  const data::Trajectory& traj = dataset.trajectory(request.start);
  return traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1]
      .timestamp;
}

/// The clock, in whole seconds: hour offsets quantize through llround so
/// the open-hour day part a step lands in is a deterministic function of
/// the plan, immune to float printing/rounding differences.
int64_t ClockTimestamp(int64_t start_time, double offset_hours) {
  return start_time + static_cast<int64_t>(std::llround(offset_hours * 3600.0));
}

/// A partial itinerary on the search frontier.
struct Node {
  std::vector<ItineraryStop> stops;
  double clock_hours = 0.0;  ///< departure time from `loc`, hours from T0
  geo::GeoPoint loc;
  int64_t last_poi = -1;  ///< POI at `loc` (the anchor for the root)
  double total_score = 0.0;
  double total_km = 0.0;
};

/// Strict-weak order for plans and nodes: score descending, then the stop
/// sequence ascending (lexicographic by POI id, shorter prefix first) so
/// equal-score plans rank bit-deterministically.
bool StopsLess(const std::vector<ItineraryStop>& a,
               const std::vector<ItineraryStop>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].poi_id != b[i].poi_id) return a[i].poi_id < b[i].poi_id;
  }
  return a.size() < b.size();
}

bool BetterNode(const Node& a, const Node& b) {
  if (a.total_score != b.total_score) return a.total_score > b.total_score;
  return StopsLess(a.stops, b.stops);
}

bool BetterPlan(const ItineraryPlan& a, const ItineraryPlan& b) {
  if (a.total_score != b.total_score) return a.total_score > b.total_score;
  return StopsLess(a.stops, b.stops);
}

}  // namespace

/// Everything one Plan() call carries through the search: the request, the
/// resolved clock/geometry, the evaluator for exact open-hour checks, the
/// scoring seam, and the running terminal-plan set.
struct ItineraryPlanner::SearchContext {
  const ItineraryRequest& request;
  const data::CityDataset& dataset;
  const PlannerOptions& options;
  const BatchScoreFn& scorer;

  int64_t start_time = 0;
  geo::GeoPoint start_loc;
  int64_t start_poi = -1;

  /// Constraints the exact arrival-time check evaluates (open_at forced
  /// onto the trip clock when the request enforces open hours, so the
  /// evaluator builds its day-part masks). Owned here: the evaluator
  /// keeps a reference.
  eval::CandidateConstraints eval_constraints;
  std::unique_ptr<eval::ConstraintEvaluator> evaluator;

  std::vector<ItineraryPlan> terminals;
  int64_t expansions = 0;
  int64_t rollouts_scored = 0;

  /// One frontier wave of step scoring: one scorer call, counted as one
  /// expansion.
  std::vector<eval::RecommendResponse> Score(
      std::vector<eval::RecommendRequest>& requests) {
    ++expansions;
    rollouts_scored += static_cast<int64_t>(requests.size());
    return scorer(common::Span<eval::RecommendRequest>(requests));
  }

  /// The step request for a node whose planned prefix is `node.stops`.
  eval::RecommendRequest StepRequest(const Node& node) const {
    ItineraryPlan prefix;
    prefix.stops = node.stops;  // only stops matter for the request
    return ItineraryPlanner::StepRequestFor(request, prefix, node.stops.size(),
                                            dataset, options);
  }

  /// Leaf tiles within `hops` leaf-adjacency hops of `from_leaf` (BFS over
  /// the road-induced adjacency), for the optional locality gate.
  std::unordered_set<int64_t> ReachableLeaves(int64_t from_leaf,
                                              int32_t hops) const {
    std::unordered_set<int64_t> seen{from_leaf};
    std::deque<std::pair<int64_t, int32_t>> frontier{{from_leaf, 0}};
    const roadnet::TileAdjacency& adjacency = dataset.leaf_adjacency();
    while (!frontier.empty()) {
      auto [leaf, depth] = frontier.front();
      frontier.pop_front();
      if (depth >= hops) continue;
      for (int64_t next : adjacency.Neighbors(leaf)) {
        if (seen.insert(next).second) frontier.emplace_back(next, depth + 1);
      }
    }
    return seen;
  }

  /// Feasible children of `node`, in the model's ranked candidate order,
  /// capped at candidates_per_expansion.
  std::vector<Node> Children(const Node& node,
                             const eval::RecommendResponse& response) const {
    std::vector<Node> children;
    std::unordered_set<int64_t> reachable;
    if (options.adjacency_hops > 0) {
      reachable = ReachableLeaves(dataset.LeafNodeOfPoi(node.last_poi),
                                  options.adjacency_hops);
    }
    for (const eval::ScoredPoi& item : response.items) {
      if (static_cast<int32_t>(children.size()) >=
          options.candidates_per_expansion) {
        break;
      }
      const int64_t poi_id = item.poi_id;
      if (poi_id == start_poi) continue;  // a trip never revisits its anchor
      bool repeated = false;
      int32_t category_count = 0;
      const int32_t category = dataset.poi(poi_id).category;
      for (const ItineraryStop& stop : node.stops) {
        if (stop.poi_id == poi_id) {
          repeated = true;
          break;
        }
        if (dataset.poi(stop.poi_id).category == category) ++category_count;
      }
      if (repeated) continue;
      if (request.max_stops_per_category > 0 &&
          category_count >= request.max_stops_per_category) {
        continue;
      }
      if (options.adjacency_hops > 0 &&
          reachable.count(dataset.LeafNodeOfPoi(poi_id)) == 0) {
        continue;
      }

      const geo::GeoPoint& loc = dataset.poi(poi_id).loc;
      const double travel_km = geo::HaversineKm(node.loc, loc);
      const double arrive = node.clock_hours +
                            travel_km / request.travel_speed_kmh;
      const double depart = arrive + request.dwell_hours;
      double completion = depart;
      if (request.return_to_start) {
        completion +=
            geo::HaversineKm(loc, start_loc) / request.travel_speed_kmh;
      }
      if (completion > request.time_budget_hours) continue;
      if (request.enforce_open_hours && evaluator != nullptr &&
          !evaluator->AllowsAt(poi_id,
                               ClockTimestamp(start_time, arrive))) {
        continue;
      }

      Node child;
      child.stops = node.stops;
      child.stops.push_back({poi_id, item.score, arrive, depart, travel_km});
      child.clock_hours = depart;
      child.loc = loc;
      child.last_poi = poi_id;
      child.total_score = node.total_score + static_cast<double>(item.score);
      child.total_km = node.total_km + travel_km;
      children.push_back(std::move(child));
    }
    return children;
  }

  /// Seals a node into a plan, adding the return leg when fenced.
  ItineraryPlan Finish(const Node& node) const {
    ItineraryPlan plan;
    plan.stops = node.stops;
    plan.total_score = node.total_score;
    plan.total_hours = node.clock_hours;
    plan.total_km = node.total_km;
    if (request.return_to_start && !node.stops.empty()) {
      const double back_km = geo::HaversineKm(node.loc, start_loc);
      plan.total_km += back_km;
      plan.total_hours += back_km / request.travel_speed_kmh;
    }
    return plan;
  }

  void RecordTerminal(const Node& node) {
    if (node.stops.empty()) return;
    terminals.push_back(Finish(node));
  }
};

ItineraryPlanner::ItineraryPlanner(const eval::NextPoiModel& model,
                                   std::shared_ptr<const data::CityDataset> dataset,
                                   PlannerOptions options)
    : model_(model), dataset_(std::move(dataset)), options_(options) {
  scorer_ = [this](common::Span<eval::RecommendRequest> requests) {
    return model_.RecommendBatch(requests);
  };
}

void ItineraryPlanner::set_scorer(BatchScoreFn scorer) {
  if (scorer) scorer_ = std::move(scorer);
}

bool ItineraryPlanner::Validate(const ItineraryRequest& request,
                                const data::CityDataset& dataset,
                                std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "invalid request: " + why;
    return false;
  };
  if (request.k_stops < 1 || request.k_stops > kMaxItineraryStops) {
    return fail("k_stops out of range");
  }
  if (!(request.time_budget_hours > 0.0) ||
      !std::isfinite(request.time_budget_hours)) {
    return fail("time_budget_hours must be positive");
  }
  if (!(request.travel_speed_kmh > 0.0) ||
      !std::isfinite(request.travel_speed_kmh)) {
    return fail("travel_speed_kmh must be positive");
  }
  if (request.dwell_hours < 0.0 || !std::isfinite(request.dwell_hours)) {
    return fail("dwell_hours must be non-negative");
  }
  if (request.max_stops_per_category < 0) {
    return fail("max_stops_per_category must be non-negative");
  }
  if (request.mode != SearchMode::kBeam) {
    return fail("unknown search mode");
  }
  if (!request.constraints.FenceFinite()) {
    return fail("geo_center and geo_radius_km must be finite");
  }
  const auto& users = dataset.users();
  if (request.start.user < 0 ||
      static_cast<size_t>(request.start.user) >= users.size()) {
    return fail("start.user out of range");
  }
  const auto& trajectories =
      users[static_cast<size_t>(request.start.user)].trajectories;
  if (request.start.traj < 0 ||
      static_cast<size_t>(request.start.traj) >= trajectories.size()) {
    return fail("start.traj out of range");
  }
  const auto& checkins =
      trajectories[static_cast<size_t>(request.start.traj)].checkins;
  if (request.start.prefix_len < 1 ||
      static_cast<size_t>(request.start.prefix_len) >= checkins.size()) {
    return fail("start.prefix_len out of range");
  }
  return true;
}

eval::RecommendRequest ItineraryPlanner::StepRequestFor(
    const ItineraryRequest& request, const ItineraryPlan& plan,
    size_t step_index, const data::CityDataset& dataset,
    const PlannerOptions& options) {
  eval::RecommendRequest step;
  step.sample = request.start;
  // Over-fetch: the wire API has no no-repeat predicate, so ask for enough
  // candidates that filtering the anchor and every already-planned stop
  // still leaves a full expansion's worth.
  step.top_n = static_cast<int64_t>(options.candidates_per_expansion) +
               static_cast<int64_t>(step_index) + 1;
  step.constraints = request.constraints;
  if (request.enforce_open_hours) {
    // The model screens candidates by the day part the planner would leave
    // for them in; the exact (arrival-time) check happens at expansion via
    // ConstraintEvaluator::AllowsAt.
    const double depart_hours =
        step_index == 0 ? 0.0 : plan.stops[step_index - 1].depart_hours;
    step.constraints.open_at =
        ClockTimestamp(EffectiveStartTime(request, dataset), depart_hours);
  }
  return step;
}

void ItineraryPlanner::SearchBeam(SearchContext& ctx) const {
  std::vector<Node> frontier(1);
  frontier[0].loc = ctx.start_loc;
  frontier[0].last_poi = ctx.start_poi;
  for (int32_t depth = 0; depth < ctx.request.k_stops; ++depth) {
    std::vector<eval::RecommendRequest> requests;
    requests.reserve(frontier.size());
    for (const Node& node : frontier) requests.push_back(ctx.StepRequest(node));
    std::vector<eval::RecommendResponse> responses = ctx.Score(requests);

    std::vector<Node> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      std::vector<Node> children =
          i < responses.size() ? ctx.Children(frontier[i], responses[i])
                               : std::vector<Node>{};
      if (children.empty()) {
        ctx.RecordTerminal(frontier[i]);  // dead end: a shorter plan
        continue;
      }
      for (Node& child : children) next.push_back(std::move(child));
    }
    if (next.empty()) return;
    std::sort(next.begin(), next.end(), BetterNode);
    if (static_cast<int32_t>(next.size()) > ctx.options.beam_width) {
      next.resize(static_cast<size_t>(ctx.options.beam_width));
    }
    frontier = std::move(next);
  }
  for (const Node& node : frontier) ctx.RecordTerminal(node);
}

bool ItineraryPlanner::Plan(const ItineraryRequest& request,
                            ItineraryResponse* out,
                            std::string* error) const {
  if (out == nullptr) {
    if (error != nullptr) *error = "invalid request: null response";
    return false;
  }
  if (!Validate(request, *dataset_, error)) return false;

  SearchContext ctx{request, *dataset_, options_, scorer_, {}, {}, {}, {}, {},
                    {}, {}, {}};
  ctx.start_time = EffectiveStartTime(request, *dataset_);
  const data::Trajectory& traj = dataset_->trajectory(request.start);
  ctx.start_poi =
      traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1].poi_id;
  ctx.start_loc = dataset_->poi(ctx.start_poi).loc;
  ctx.eval_constraints = request.constraints;
  if (request.enforce_open_hours && ctx.eval_constraints.open_at < 0) {
    ctx.eval_constraints.open_at = ctx.start_time;
  }
  if (ctx.eval_constraints.Active()) {
    ctx.evaluator = std::make_unique<eval::ConstraintEvaluator>(
        *dataset_, ctx.eval_constraints, request.start);
  }

  SearchBeam(ctx);

  std::sort(ctx.terminals.begin(), ctx.terminals.end(), BetterPlan);
  if (static_cast<int32_t>(ctx.terminals.size()) > options_.max_plans) {
    ctx.terminals.resize(static_cast<size_t>(options_.max_plans));
  }
  out->plans = std::move(ctx.terminals);
  out->expansions = ctx.expansions;
  out->rollouts_scored = ctx.rollouts_scored;
  return true;
}

}  // namespace tspn::plan
