// Itinerary-planner property harness: 200+ randomized (fixed-seed)
// scenarios over a generated city, each asserting that EVERY returned plan
// is feasible — time budget (travel + dwell + optional return leg), open
// hours at each stop's arrival, the geo fence and category lists, the
// per-category quota, no repeated stops — and that the reported score
// equals the sum of independently re-scored per-step model scores, to the
// bit. Each scenario also pins determinism (re-plan => bit-identical) and
// batched-vs-serial scoring parity.
//
// TSPN_PLAN_PROPERTY_SCENARIOS overrides the scenario count (default 200).

#include "plan/itinerary.h"

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "data/dataset.h"
#include "eval/constraints.h"
#include "eval/model_registry.h"
#include "geo/geometry.h"

namespace tspn::plan {
namespace {

/// The planner's clock quantization, replicated independently: offsets in
/// hours land on whole seconds through llround.
int64_t ClockTs(int64_t start_time, double offset_hours) {
  return start_time + static_cast<int64_t>(std::llround(offset_hours * 3600.0));
}

/// The serial scoring reference: serves a wave one Recommend at a time.
BatchScoreFn OneAtATimeScorer(const eval::NextPoiModel& model) {
  return [&model](common::Span<eval::RecommendRequest> requests) {
    std::vector<eval::RecommendResponse> responses;
    responses.reserve(requests.size());
    for (const eval::RecommendRequest& request : requests) {
      responses.push_back(model.Recommend(request));
    }
    return responses;
  };
}

class ItineraryPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());

    eval::ModelOptions options;
    options.dm = 16;
    options.seed = 11;
    options.image_resolution = 16;
    model_ = eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, options);
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;
    model_->Train(train);

    samples_ = dataset_->Samples(data::Split::kTest);
    ASSERT_FALSE(samples_.empty());
  }
  static void TearDownTestSuite() { model_.reset(); }

  /// The trip's departure timestamp, replicated from the planner's rule.
  static int64_t StartTimeOf(const ItineraryRequest& request) {
    if (request.start_time >= 0) return request.start_time;
    const data::Trajectory& traj = dataset_->trajectory(request.start);
    return traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1]
        .timestamp;
  }

  /// The constraints the planner's arrival-time evaluator sees: open_at
  /// forced onto the trip clock when open hours are enforced but unset.
  static eval::CandidateConstraints EvalConstraintsOf(
      const ItineraryRequest& request) {
    eval::CandidateConstraints c = request.constraints;
    if (request.enforce_open_hours && c.open_at < 0) {
      c.open_at = StartTimeOf(request);
    }
    return c;
  }

  /// Asserts every feasibility invariant of one plan, re-deriving each
  /// quantity independently of the planner.
  static void CheckPlanFeasible(const ItineraryRequest& request,
                                const PlannerOptions& options,
                                const ItineraryPlan& plan) {
    ASSERT_FALSE(plan.stops.empty());
    ASSERT_LE(static_cast<int32_t>(plan.stops.size()), request.k_stops);

    const int64_t start_time = StartTimeOf(request);
    const data::Trajectory& traj = dataset_->trajectory(request.start);
    const int64_t anchor =
        traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1].poi_id;
    const geo::GeoPoint start_loc = dataset_->poi(anchor).loc;

    const eval::CandidateConstraints constraints = EvalConstraintsOf(request);
    std::unique_ptr<eval::ConstraintEvaluator> evaluator;
    if (constraints.Active()) {
      evaluator = std::make_unique<eval::ConstraintEvaluator>(
          *dataset_, constraints, request.start);
    }

    // Walk the legs, re-deriving the clock and distances.
    geo::GeoPoint loc = start_loc;
    double clock = 0.0;
    double km = 0.0;
    std::vector<int32_t> category_counts(dataset_->categories().size(), 0);
    for (size_t i = 0; i < plan.stops.size(); ++i) {
      SCOPED_TRACE("stop " + std::to_string(i));
      const ItineraryStop& stop = plan.stops[i];

      // No-repeat: never the anchor, never an earlier stop.
      EXPECT_NE(stop.poi_id, anchor);
      for (size_t j = 0; j < i; ++j) {
        EXPECT_NE(stop.poi_id, plan.stops[j].poi_id);
      }

      // Leg geometry and the clock, reproduced to the bit: identical
      // inputs through identical arithmetic.
      const geo::GeoPoint& stop_loc = dataset_->poi(stop.poi_id).loc;
      const double travel_km = geo::HaversineKm(loc, stop_loc);
      const double arrive = clock + travel_km / request.travel_speed_kmh;
      const double depart = arrive + request.dwell_hours;
      EXPECT_EQ(stop.travel_km, travel_km);
      EXPECT_EQ(stop.arrive_hours, arrive);
      EXPECT_EQ(stop.depart_hours, depart);

      // Budget at every prefix, return leg included when fenced.
      double completion = depart;
      if (request.return_to_start) {
        completion +=
            geo::HaversineKm(stop_loc, start_loc) / request.travel_speed_kmh;
      }
      EXPECT_LE(completion, request.time_budget_hours);

      // Candidate constraints; open hours at the ARRIVAL time when the
      // request advances the clock, at the static open_at otherwise.
      if (evaluator != nullptr) {
        if (request.enforce_open_hours) {
          EXPECT_TRUE(evaluator->AllowsAt(stop.poi_id,
                                          ClockTs(start_time, arrive)));
        } else {
          EXPECT_TRUE(evaluator->Allows(stop.poi_id));
        }
      }

      // Category quota.
      const int32_t category = dataset_->poi(stop.poi_id).category;
      ASSERT_LT(static_cast<size_t>(category), category_counts.size());
      ++category_counts[static_cast<size_t>(category)];
      if (request.max_stops_per_category > 0) {
        EXPECT_LE(category_counts[static_cast<size_t>(category)],
                  request.max_stops_per_category);
      }

      loc = stop_loc;
      clock = depart;
      km += travel_km;
    }

    double hours = clock;
    if (request.return_to_start) {
      const double back = geo::HaversineKm(loc, start_loc);
      km += back;
      hours += back / request.travel_speed_kmh;
    }
    EXPECT_EQ(plan.total_km, km);
    EXPECT_EQ(plan.total_hours, hours);
    EXPECT_LE(plan.total_hours, request.time_budget_hours);

    // Score integrity: each stop's score must equal what the model gives
    // the same POI on the independently reconstructed step request, and
    // the total must be their sum in stop order — bitwise.
    double total = 0.0;
    for (size_t i = 0; i < plan.stops.size(); ++i) {
      SCOPED_TRACE("re-score stop " + std::to_string(i));
      const eval::RecommendRequest step =
          ItineraryPlanner::StepRequestFor(request, plan, i, *dataset_, options);
      const eval::RecommendResponse rescored = model_->Recommend(step);
      bool found = false;
      for (const eval::ScoredPoi& item : rescored.items) {
        if (item.poi_id != plan.stops[i].poi_id) continue;
        found = true;
        EXPECT_EQ(item.score, plan.stops[i].model_score);
        break;
      }
      EXPECT_TRUE(found) << "planned stop " << plan.stops[i].poi_id
                         << " missing from its re-scored step response";
      total += static_cast<double>(plan.stops[i].model_score);
    }
    EXPECT_EQ(plan.total_score, total);
  }

  static void ExpectSameResponse(const ItineraryResponse& a,
                                 const ItineraryResponse& b) {
    ASSERT_EQ(a.plans.size(), b.plans.size());
    for (size_t p = 0; p < a.plans.size(); ++p) {
      ASSERT_EQ(a.plans[p].stops.size(), b.plans[p].stops.size());
      for (size_t s = 0; s < a.plans[p].stops.size(); ++s) {
        EXPECT_EQ(a.plans[p].stops[s].poi_id, b.plans[p].stops[s].poi_id);
        EXPECT_EQ(a.plans[p].stops[s].model_score,
                  b.plans[p].stops[s].model_score);
        EXPECT_EQ(a.plans[p].stops[s].arrive_hours,
                  b.plans[p].stops[s].arrive_hours);
        EXPECT_EQ(a.plans[p].stops[s].depart_hours,
                  b.plans[p].stops[s].depart_hours);
        EXPECT_EQ(a.plans[p].stops[s].travel_km, b.plans[p].stops[s].travel_km);
      }
      EXPECT_EQ(a.plans[p].total_score, b.plans[p].total_score);
      EXPECT_EQ(a.plans[p].total_hours, b.plans[p].total_hours);
      EXPECT_EQ(a.plans[p].total_km, b.plans[p].total_km);
    }
    EXPECT_EQ(a.expansions, b.expansions);
    EXPECT_EQ(a.rollouts_scored, b.rollouts_scored);
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::unique_ptr<eval::NextPoiModel> model_;
  static std::vector<data::SampleRef> samples_;
};

std::shared_ptr<data::CityDataset> ItineraryPropertyTest::dataset_;
std::unique_ptr<eval::NextPoiModel> ItineraryPropertyTest::model_;
std::vector<data::SampleRef> ItineraryPropertyTest::samples_;

TEST_F(ItineraryPropertyTest, EveryPlanIsFeasibleDeterministicAndScoreExact) {
  const int64_t scenarios =
      std::max<int64_t>(1, common::EnvInt("TSPN_PLAN_PROPERTY_SCENARIOS", 200));
  std::mt19937 rng(20240731u);  // fixed seed: the suite is reproducible

  int64_t plans_checked = 0;
  for (int64_t scenario = 0; scenario < scenarios; ++scenario) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));

    ItineraryRequest request;
    request.start = samples_[rng() % samples_.size()];
    request.k_stops = 1 + static_cast<int32_t>(rng() % 3);
    request.time_budget_hours = 0.5 + (rng() % 200) / 20.0;  // 0.5 .. 10.45h
    request.travel_speed_kmh = 5.0 + (rng() % 56);           // 5 .. 60 km/h
    request.dwell_hours = (rng() % 4) / 4.0;                 // 0 .. 0.75h
    request.return_to_start = (rng() % 2) == 0;
    request.max_stops_per_category = static_cast<int32_t>(rng() % 3);  // 0..2
    request.enforce_open_hours = (rng() % 2) == 0;
    if (rng() % 4 == 0) {
      request.start_time = 1700000000 + static_cast<int64_t>(rng() % 86400);
    }

    // Constraint axes, drawn independently.
    if (rng() % 3 == 0) {
      const data::Trajectory& traj = dataset_->trajectory(request.start);
      const int64_t anchor =
          traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1]
              .poi_id;
      request.constraints.geo_center = dataset_->poi(anchor).loc;
      request.constraints.geo_radius_km = 1.0 + (rng() % 20);
    }
    if (rng() % 4 == 0) {
      const int32_t num_categories =
          static_cast<int32_t>(dataset_->categories().size());
      request.constraints.blocked_categories = {
          static_cast<int32_t>(rng() % num_categories)};
    }
    if (rng() % 4 == 0) request.constraints.exclude_visited = true;
    if (rng() % 8 == 0) {
      request.constraints.open_at =
          1700000000 + static_cast<int64_t>(rng() % 86400);
      request.constraints.min_open_weight = 0.5;
    }

    PlannerOptions options;
    options.beam_width = 2 + static_cast<int32_t>(rng() % 2);
    options.candidates_per_expansion = 3 + static_cast<int32_t>(rng() % 3);
    options.max_plans = 1 + static_cast<int32_t>(rng() % 3);

    ItineraryPlanner planner(*model_, dataset_, options);
    ItineraryResponse response;
    std::string error;
    ASSERT_TRUE(planner.Plan(request, &response, &error)) << error;
    ASSERT_LE(static_cast<int32_t>(response.plans.size()), options.max_plans);

    for (size_t p = 0; p < response.plans.size(); ++p) {
      SCOPED_TRACE("plan " + std::to_string(p));
      CheckPlanFeasible(request, options, response.plans[p]);
      if (p > 0) {
        // Best-first ordering.
        EXPECT_GE(response.plans[p - 1].total_score,
                  response.plans[p].total_score);
      }
      ++plans_checked;
    }

    // Determinism: planning the same request again is bit-identical.
    ItineraryResponse again;
    ASSERT_TRUE(planner.Plan(request, &again, &error)) << error;
    ExpectSameResponse(response, again);

    // Batched/serial parity: a scorer that serves each wave one query at a
    // time must reproduce the batched search bit for bit, counters
    // included.
    ItineraryPlanner serial(*model_, dataset_, options);
    serial.set_scorer(OneAtATimeScorer(*model_));
    ItineraryResponse serial_response;
    ASSERT_TRUE(serial.Plan(request, &serial_response, &error)) << error;
    ExpectSameResponse(response, serial_response);
  }

  // The harness is vacuous if nothing ever planned; the tiny city must
  // yield feasible itineraries across the draw distribution.
  EXPECT_GT(plans_checked, scenarios / 2);
}

}  // namespace
}  // namespace tspn::plan
