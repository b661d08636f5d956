// Itinerary-planner unit tests. A synthetic scorer gives the tests total
// control over the model's ranked candidates, so each feasibility rule is
// pinned in isolation: the query-time open-hour check (the
// POI-closes-mid-itinerary regression the once-per-request constraint mask
// used to miss), the per-category quota, the return-to-start fence, the
// request validation surface and the leaf-adjacency gate.

#include "plan/itinerary.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/constraints.h"
#include "geo/geometry.h"

namespace tspn::plan {
namespace {

/// A no-op model: every test installs a synthetic scorer, so the planner's
/// default RecommendBatch path is never taken.
class NullModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "null"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    return {};
  }
};

/// Scorer returning the same fixed ranking for every step request.
BatchScoreFn FixedRanking(std::vector<eval::ScoredPoi> items) {
  return [items = std::move(items)](
             common::Span<eval::RecommendRequest> requests) {
    std::vector<eval::RecommendResponse> responses(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      for (const eval::ScoredPoi& item : items) {
        if (static_cast<int64_t>(responses[i].items.size()) >=
            requests[i].top_n) {
          break;
        }
        responses[i].items.push_back(item);
      }
    }
    return responses;
  };
}

class ItineraryPlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }

  void SetUp() override {
    request_.start = dataset_->Samples(data::Split::kTest).at(0);
    const data::Trajectory& traj = dataset_->trajectory(request_.start);
    anchor_ = traj.checkins[static_cast<size_t>(request_.start.prefix_len) - 1]
                  .poi_id;
  }

  /// A POI of the given category that is not the anchor and not in `taken`.
  int64_t PoiOfCategory(int32_t category,
                        const std::vector<int64_t>& taken = {}) const {
    for (const data::Poi& poi : dataset_->pois()) {
      if (poi.category != category || poi.id == anchor_) continue;
      bool used = false;
      for (int64_t t : taken) used = used || t == poi.id;
      if (!used) return poi.id;
    }
    return -1;
  }

  /// A category whose open window (weight >= `threshold`) differs between
  /// the two day parts; -1 when the generated city has none.
  int32_t CategoryOpenClosed(data::DayPart open_part, data::DayPart closed_part,
                             double threshold) const {
    const auto& categories = dataset_->categories();
    for (size_t c = 0; c < categories.size(); ++c) {
      const auto& w = categories[c].time_weights;
      if (w[static_cast<size_t>(open_part)] >= threshold &&
          w[static_cast<size_t>(closed_part)] < threshold &&
          PoiOfCategory(static_cast<int32_t>(c)) >= 0) {
        return static_cast<int32_t>(c);
      }
    }
    return -1;
  }

  /// A category open (>= threshold) in both parts, with >= `need` POIs.
  int32_t CategoryOpenBoth(data::DayPart a, data::DayPart b, double threshold,
                           int need = 1) const {
    const auto& categories = dataset_->categories();
    for (size_t c = 0; c < categories.size(); ++c) {
      const auto& w = categories[c].time_weights;
      if (w[static_cast<size_t>(a)] < threshold ||
          w[static_cast<size_t>(b)] < threshold) {
        continue;
      }
      std::vector<int64_t> taken;
      for (int i = 0; i < need; ++i) {
        const int64_t poi = PoiOfCategory(static_cast<int32_t>(c), taken);
        if (poi < 0) break;
        taken.push_back(poi);
      }
      if (static_cast<int>(taken.size()) == need) return static_cast<int32_t>(c);
    }
    return -1;
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  NullModel model_;
  ItineraryRequest request_;
  int64_t anchor_ = -1;
};

std::shared_ptr<data::CityDataset> ItineraryPlannerTest::dataset_;

TEST_F(ItineraryPlannerTest, ValidateRejectsOutOfRangeRequests) {
  auto expect_invalid = [&](ItineraryRequest bad) {
    std::string error;
    EXPECT_FALSE(ItineraryPlanner::Validate(bad, *dataset_, &error));
    EXPECT_EQ(error.rfind("invalid request:", 0), 0u) << error;
  };

  std::string error;
  EXPECT_TRUE(ItineraryPlanner::Validate(request_, *dataset_, &error)) << error;

  ItineraryRequest bad = request_;
  bad.k_stops = 0;
  expect_invalid(bad);
  bad = request_;
  bad.k_stops = kMaxItineraryStops + 1;
  expect_invalid(bad);
  bad = request_;
  bad.k_stops = kMaxItineraryStops;  // the cap itself is valid
  EXPECT_TRUE(ItineraryPlanner::Validate(bad, *dataset_, &error));

  bad = request_;
  bad.time_budget_hours = 0.0;
  expect_invalid(bad);
  bad = request_;
  bad.travel_speed_kmh = -1.0;
  expect_invalid(bad);
  bad = request_;
  bad.dwell_hours = -0.5;
  expect_invalid(bad);
  bad = request_;
  bad.max_stops_per_category = -1;
  expect_invalid(bad);
  bad = request_;
  bad.mode = static_cast<SearchMode>(7);
  expect_invalid(bad);

  bad = request_;
  bad.start.user = 1 << 20;
  expect_invalid(bad);
  bad = request_;
  bad.start.traj = -1;
  expect_invalid(bad);
  bad = request_;
  bad.start.prefix_len = 0;
  expect_invalid(bad);
}

TEST_F(ItineraryPlannerTest, ConstraintEvaluatorResolvesOpenHoursPerQueryTime) {
  // Satellite regression for the evaluator itself: the open-time window is
  // a per-call property of AllowsAt, not baked once per request.
  const double threshold = 0.8;
  const int32_t closing = CategoryOpenClosed(data::DayPart::kMidday,
                                             data::DayPart::kEvening, threshold);
  ASSERT_GE(closing, 0) << "generated city has no midday-open/evening-closed "
                           "category; adjust the threshold";
  const int64_t poi = PoiOfCategory(closing);
  ASSERT_GE(poi, 0);

  const int64_t midday = 13 * 3600;   // 13:00 -> kMidday
  const int64_t evening = 19 * 3600;  // 19:00 -> kEvening
  eval::CandidateConstraints constraints;
  constraints.open_at = midday;
  constraints.min_open_weight = threshold;
  eval::ConstraintEvaluator evaluator(*dataset_, constraints, request_.start);

  EXPECT_TRUE(evaluator.Allows(poi));
  // Allows() is AllowsAt at the request's own open_at.
  EXPECT_EQ(evaluator.Allows(poi), evaluator.AllowsAt(poi, midday));
  EXPECT_FALSE(evaluator.AllowsAt(poi, evening));
  // A negative query time skips the open check entirely.
  EXPECT_TRUE(evaluator.AllowsAt(poi, -1));
}

TEST_F(ItineraryPlannerTest, PoiClosingMidItineraryIsNotPlanned) {
  // The regression this PR's constraint fix exists for: category B is open
  // at departure (midday) but closed by the time a second stop would be
  // reached (evening, after a 6h dwell). The old once-per-request open
  // mask — built at the request's open_at — would admit a B stop at any
  // step; the query-time check must reject B exactly at step 2.
  const double threshold = 0.8;
  const int32_t cat_b = CategoryOpenClosed(data::DayPart::kMidday,
                                           data::DayPart::kEvening, threshold);
  const int32_t cat_a = CategoryOpenBoth(data::DayPart::kMidday,
                                         data::DayPart::kEvening, threshold);
  ASSERT_GE(cat_b, 0);
  ASSERT_GE(cat_a, 0);
  const int64_t b = PoiOfCategory(cat_b);
  const int64_t b2 = PoiOfCategory(cat_b, {b});
  const int64_t a = PoiOfCategory(cat_a);
  ASSERT_GE(b, 0);
  ASSERT_GE(a, 0);

  ItineraryRequest request = request_;
  request.k_stops = 2;
  request.start_time = 12 * 3600;     // noon: kMidday
  request.dwell_hours = 6.0;          // step-2 arrivals land in kEvening
  request.travel_speed_kmh = 5000.0;  // travel time negligible
  request.time_budget_hours = 24.0;
  request.enforce_open_hours = true;
  request.constraints.min_open_weight = threshold;

  std::vector<eval::ScoredPoi> ranking = {{b, 2.0f, -1}, {a, 1.0f, -1}};
  if (b2 >= 0) ranking.push_back({b2, 0.5f, -1});

  PlannerOptions options;
  options.beam_width = 4;
  options.candidates_per_expansion = 4;
  options.max_plans = 4;
  ItineraryPlanner planner(model_, dataset_, options);
  planner.set_scorer(FixedRanking(ranking));

  ItineraryResponse response;
  std::string error;
  ASSERT_TRUE(planner.Plan(request, &response, &error)) << error;
  ASSERT_FALSE(response.plans.empty());

  // Best plan: B while it is open, then A. No plan may hold a B-category
  // stop at the evening step — even though B is open at the request's
  // departure time.
  ASSERT_EQ(response.plans[0].stops.size(), 2u);
  EXPECT_EQ(response.plans[0].stops[0].poi_id, b);
  EXPECT_EQ(response.plans[0].stops[1].poi_id, a);
  for (const ItineraryPlan& plan : response.plans) {
    for (const ItineraryStop& stop : plan.stops) {
      const int64_t arrival_ts =
          request.start_time +
          static_cast<int64_t>(std::llround(stop.arrive_hours * 3600.0));
      if (data::DayPartOf(arrival_ts) == data::DayPart::kEvening) {
        EXPECT_NE(dataset_->poi(stop.poi_id).category, cat_b)
            << "closed-category stop planned at POI " << stop.poi_id;
      }
    }
  }
}

TEST_F(ItineraryPlannerTest, CategoryQuotaIsEnforced) {
  const int32_t cat = CategoryOpenBoth(data::DayPart::kMidday,
                                       data::DayPart::kMidday, 0.0, 3);
  ASSERT_GE(cat, 0);
  const int64_t p1 = PoiOfCategory(cat);
  const int64_t p2 = PoiOfCategory(cat, {p1});
  const int64_t p3 = PoiOfCategory(cat, {p1, p2});
  const int32_t other_cat = [&] {
    for (const data::Poi& poi : dataset_->pois()) {
      if (poi.category != cat && poi.id != anchor_) return poi.category;
    }
    return -1;
  }();
  ASSERT_GE(other_cat, 0);
  const int64_t q = PoiOfCategory(other_cat);

  ItineraryRequest request = request_;
  request.k_stops = 3;
  request.time_budget_hours = 1000.0;
  request.max_stops_per_category = 1;

  ItineraryPlanner planner(model_, dataset_, {});
  planner.set_scorer(FixedRanking(
      {{p1, 4.0f, -1}, {p2, 3.0f, -1}, {p3, 2.0f, -1}, {q, 1.0f, -1}}));

  ItineraryResponse response;
  std::string error;
  ASSERT_TRUE(planner.Plan(request, &response, &error)) << error;
  ASSERT_FALSE(response.plans.empty());
  for (const ItineraryPlan& plan : response.plans) {
    int same = 0;
    for (const ItineraryStop& stop : plan.stops) {
      if (dataset_->poi(stop.poi_id).category == cat) ++same;
    }
    EXPECT_LE(same, 1) << "quota violated";
  }
  // The best plan spends the quota slot on the best same-category
  // candidate and must jump category for its other stop ({p1, q} in either
  // order — score ties break on the POI sequence, not insertion order).
  ASSERT_EQ(response.plans[0].stops.size(), 2u);
  const int64_t first = response.plans[0].stops[0].poi_id;
  const int64_t second = response.plans[0].stops[1].poi_id;
  EXPECT_TRUE((first == p1 && second == q) || (first == q && second == p1))
      << first << ", " << second;
  EXPECT_EQ(response.plans[0].total_score, 5.0);
}

TEST_F(ItineraryPlannerTest, ReturnFenceChargesTheReturnLeg) {
  // Budget covers the one-way leg but not the round trip: the fenced
  // request must come back empty while the unfenced one plans the stop.
  const int64_t target = [&] {
    for (const data::Poi& poi : dataset_->pois()) {
      if (poi.id != anchor_ &&
          geo::HaversineKm(dataset_->poi(anchor_).loc, poi.loc) > 0.05) {
        return poi.id;
      }
    }
    return int64_t{-1};
  }();
  ASSERT_GE(target, 0);
  const double leg_km =
      geo::HaversineKm(dataset_->poi(anchor_).loc, dataset_->poi(target).loc);

  ItineraryRequest request = request_;
  request.k_stops = 1;
  request.dwell_hours = 0.0;
  request.travel_speed_kmh = leg_km / 0.4;  // one-way leg = 0.4h exactly
  request.time_budget_hours = 0.5;

  ItineraryPlanner planner(model_, dataset_, {});
  planner.set_scorer(FixedRanking({{target, 1.0f, -1}}));

  ItineraryResponse one_way;
  std::string error;
  ASSERT_TRUE(planner.Plan(request, &one_way, &error)) << error;
  ASSERT_EQ(one_way.plans.size(), 1u);
  EXPECT_EQ(one_way.plans[0].stops[0].poi_id, target);

  request.return_to_start = true;  // 0.8h round trip > 0.5h budget
  ItineraryResponse fenced;
  ASSERT_TRUE(planner.Plan(request, &fenced, &error)) << error;
  EXPECT_TRUE(fenced.plans.empty());

  request.time_budget_hours = 1.0;  // now the round trip fits
  ItineraryResponse roomy;
  ASSERT_TRUE(planner.Plan(request, &roomy, &error)) << error;
  ASSERT_EQ(roomy.plans.size(), 1u);
  EXPECT_EQ(roomy.plans[0].total_km, 2 * leg_km);
}

TEST_F(ItineraryPlannerTest, InfeasibleBudgetYieldsEmptyPlansNotAnError) {
  ItineraryRequest request = request_;
  request.time_budget_hours = 1e-6;  // nothing is reachable
  ItineraryPlanner planner(model_, dataset_, {});
  planner.set_scorer(FixedRanking({{PoiOfCategory(0), 1.0f, -1}}));
  ItineraryResponse response;
  std::string error;
  ASSERT_TRUE(planner.Plan(request, &response, &error)) << error;
  EXPECT_TRUE(response.plans.empty());
  EXPECT_GT(response.expansions, 0);
}

TEST_F(ItineraryPlannerTest, AdjacencyGateRestrictsCandidatesToNearbyLeaves) {
  // With a 0-hop gate every candidate must share the previous stop's leaf
  // tile — a stop in any other leaf proves the gate leaked.
  std::vector<eval::ScoredPoi> ranking;
  for (const data::Poi& poi : dataset_->pois()) {
    if (poi.id == anchor_) continue;
    ranking.push_back({poi.id, 1.0f, -1});
    if (ranking.size() >= 12) break;
  }

  ItineraryRequest request = request_;
  request.k_stops = 2;
  request.time_budget_hours = 1000.0;

  PlannerOptions options;
  options.adjacency_hops = 0;  // 0 disables the gate entirely
  ItineraryPlanner open_planner(model_, dataset_, options);
  open_planner.set_scorer(FixedRanking(ranking));
  ItineraryResponse unrestricted;
  std::string error;
  ASSERT_TRUE(open_planner.Plan(request, &unrestricted, &error)) << error;

  options.adjacency_hops = 1;
  ItineraryPlanner gated(model_, dataset_, options);
  gated.set_scorer(FixedRanking(ranking));
  ItineraryResponse response;
  ASSERT_TRUE(gated.Plan(request, &response, &error)) << error;
  for (const ItineraryPlan& plan : response.plans) {
    int64_t prev = anchor_;
    for (const ItineraryStop& stop : plan.stops) {
      const int64_t from_leaf = dataset_->LeafNodeOfPoi(prev);
      const int64_t to_leaf = dataset_->LeafNodeOfPoi(stop.poi_id);
      bool adjacent = from_leaf == to_leaf;
      for (int64_t n : dataset_->leaf_adjacency().Neighbors(from_leaf)) {
        adjacent = adjacent || n == to_leaf;
      }
      EXPECT_TRUE(adjacent) << "stop " << stop.poi_id
                            << " outside the 1-hop leaf neighbourhood";
      prev = stop.poi_id;
    }
  }
}

}  // namespace
}  // namespace tspn::plan
