// Tests of the v2 recommendation API surface: constraint evaluation
// (including the GridIndex-backed geo prefilter) against brute force, the
// scored single-stage ranking helper, v1/v2 order consistency and
// constraint satisfaction for every registry model, and the registry
// itself.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/constraints.h"
#include "eval/model_registry.h"
#include "eval/recommend.h"

namespace tspn::eval {
namespace {

class RecommendApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }
  static std::shared_ptr<data::CityDataset> dataset_;
};

std::shared_ptr<data::CityDataset> RecommendApiTest::dataset_;

/// Brute-force reference for every constraint the evaluator implements.
bool ReferenceAllows(const data::CityDataset& dataset,
                     const CandidateConstraints& c,
                     const data::SampleRef& sample, int64_t poi_id) {
  const data::Poi& poi = dataset.poi(poi_id);
  if (!c.allowed_categories.empty() &&
      std::find(c.allowed_categories.begin(), c.allowed_categories.end(),
                poi.category) == c.allowed_categories.end()) {
    return false;
  }
  if (std::find(c.blocked_categories.begin(), c.blocked_categories.end(),
                poi.category) != c.blocked_categories.end()) {
    return false;
  }
  if (c.exclude_visited) {
    const data::Trajectory& traj = dataset.trajectory(sample);
    for (int32_t i = 0; i < sample.prefix_len; ++i) {
      if (traj.checkins[static_cast<size_t>(i)].poi_id == poi_id) return false;
    }
  }
  if (c.open_at >= 0) {
    const data::DayPart part = data::DayPartOf(c.open_at);
    if (dataset.categories()[static_cast<size_t>(poi.category)]
            .time_weights[static_cast<size_t>(part)] < c.min_open_weight) {
      return false;
    }
  }
  if (c.geo_radius_km > 0.0 &&
      geo::HaversineKm(poi.loc, c.geo_center) > c.geo_radius_km) {
    return false;
  }
  return true;
}

TEST_F(RecommendApiTest, GeoFenceMatchesBruteForceAtManyRadii) {
  // The grid-prefilter fast path (outside / inside cells skip the haversine)
  // must agree with the per-POI brute force everywhere, including fence
  // centres near the region edge and radii around cell boundaries.
  const auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  const geo::BoundingBox& bbox = dataset_->profile().bbox;
  const std::vector<geo::GeoPoint> centers = {
      bbox.Center(),
      {bbox.min_lat + 0.01 * bbox.LatSpan(), bbox.min_lon + 0.01 * bbox.LonSpan()},
      {bbox.max_lat - 0.001, bbox.max_lon - 0.001},
      dataset_->poi(0).loc,
  };
  for (const geo::GeoPoint& center : centers) {
    for (double radius_km : {0.3, 1.0, 2.7, 6.0, 40.0}) {
      CandidateConstraints c;
      c.geo_center = center;
      c.geo_radius_km = radius_km;
      ConstraintEvaluator evaluator(*dataset_, c, samples[0]);
      for (const data::Poi& poi : dataset_->pois()) {
        EXPECT_EQ(evaluator.Allows(poi.id),
                  ReferenceAllows(*dataset_, c, samples[0], poi.id))
            << "poi " << poi.id << " center (" << center.lat << "," << center.lon
            << ") radius " << radius_km;
      }
    }
  }
}

TEST_F(RecommendApiTest, CategoryVisitedAndOpenTimeMatchBruteForce) {
  const auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  CandidateConstraints c;
  c.allowed_categories = {0, 2, 5};
  c.blocked_categories = {2};  // blocked wins over allowed
  c.exclude_visited = true;
  c.open_at = 12 * 3600;  // midday
  c.min_open_weight = 0.8;
  for (const data::SampleRef& sample :
       {samples[0], samples[samples.size() / 2]}) {
    ConstraintEvaluator evaluator(*dataset_, c, sample);
    EXPECT_TRUE(evaluator.active());
    for (const data::Poi& poi : dataset_->pois()) {
      EXPECT_EQ(evaluator.Allows(poi.id),
                ReferenceAllows(*dataset_, c, sample, poi.id))
          << "poi " << poi.id;
    }
  }
}

TEST_F(RecommendApiTest, InactiveConstraintsAllowEverything) {
  CandidateConstraints c;
  EXPECT_FALSE(c.Active());
  ConstraintEvaluator evaluator(*dataset_, c,
                                dataset_->Samples(data::Split::kTest)[0]);
  EXPECT_FALSE(evaluator.active());
  for (const data::Poi& poi : dataset_->pois()) {
    EXPECT_TRUE(evaluator.Allows(poi.id));
  }
}

TEST_F(RecommendApiTest, RankAllPoisSelectsTopNAllowedWithScores) {
  // Synthetic scores: score(i) = i, so the expected ranking is descending id
  // among allowed POIs.
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  std::vector<float> scores(static_cast<size_t>(num_pois));
  for (int64_t i = 0; i < num_pois; ++i) {
    scores[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  RecommendRequest request;
  request.sample = dataset_->Samples(data::Split::kTest)[0];
  request.top_n = 5;
  const int32_t blocked = dataset_->poi(num_pois - 1).category;
  request.constraints.blocked_categories = {blocked};
  RecommendResponse response =
      RankAllPois(scores.data(), num_pois, request, *dataset_);
  ASSERT_LE(response.items.size(), 5u);
  int64_t expect = num_pois - 1;
  for (const ScoredPoi& item : response.items) {
    while (expect >= 0 && dataset_->poi(expect).category == blocked) --expect;
    ASSERT_GE(expect, 0);
    EXPECT_EQ(item.poi_id, expect);
    EXPECT_EQ(item.score, scores[static_cast<size_t>(expect)]);
    EXPECT_EQ(item.tile_index, -1);
    --expect;
  }
  EXPECT_EQ(response.stages_used, 1);
}

TEST_F(RecommendApiTest, RegistryCoversTspnRaAndAllBaselines) {
  ModelRegistry& registry = ModelRegistry::Global();
  const std::vector<std::string> expected = {
      "TSPN-RA", "MC",      "GRU",     "STRNN",           "DeepMove", "LSTPM",
      "STAN",    "SAE-NAD", "HMT-GRN", "Graph-Flashback", "STiSAN"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_EQ(registry.Names().size(), expected.size());
  EXPECT_FALSE(registry.Contains("NoSuchModel"));
  EXPECT_EQ(registry.Create("NoSuchModel", dataset_), nullptr);
  ModelOptions options;
  options.dm = 16;
  auto model = registry.Create("GRU", dataset_, options);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), "GRU");
}

TEST_F(RecommendApiTest, EveryRegistryModelServesScoredConstrainedRequests) {
  // For each registered model (trained briefly): the response is
  // score-ordered, batch equals single, and a constrained query returns
  // only allowed POIs while filling top_n when enough candidates exist.
  const auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  eval::TrainOptions train;
  train.epochs = 1;
  train.max_samples_per_epoch = 12;
  ModelOptions options;
  options.dm = 16;
  for (const std::string& name : ModelRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto model = ModelRegistry::Global().Create(name, dataset_, options);
    ASSERT_NE(model, nullptr);
    model->Train(train);

    RecommendRequest request;
    request.sample = samples[0];
    request.top_n = 10;
    RecommendResponse response = model->Recommend(request);
    EXPECT_FALSE(response.items.empty());
    // Scores rank the list (HMT-GRN's beam/back-fill boundary exempted: its
    // back-fill intentionally appends lower-priority global scores).
    if (name != "HMT-GRN") {
      for (size_t i = 1; i < response.items.size(); ++i) {
        EXPECT_GE(response.items[i - 1].score, response.items[i].score)
            << "rank " << i;
      }
    }

    // Batched (default serial loop or TSPN-RA's GEMM path) must match.
    std::vector<RecommendRequest> batch(2, request);
    batch[1].sample = samples[1];
    std::vector<RecommendResponse> batched =
        model->RecommendBatch(common::Span<RecommendRequest>(batch));
    ASSERT_EQ(batched.size(), 2u);
    for (size_t b = 0; b < batch.size(); ++b) {
      RecommendResponse single = model->Recommend(batch[b]);
      ASSERT_EQ(batched[b].items.size(), single.items.size());
      for (size_t i = 0; i < single.items.size(); ++i) {
        EXPECT_EQ(batched[b].items[i].poi_id, single.items[i].poi_id);
        EXPECT_EQ(batched[b].items[i].score, single.items[i].score);
      }
    }

    // Constrained query: block the unconstrained winner's category and
    // exclude visited POIs.
    request.constraints.blocked_categories = {
        dataset_->poi(response.items[0].poi_id).category};
    request.constraints.exclude_visited = true;
    RecommendResponse constrained = model->Recommend(request);
    ConstraintEvaluator evaluator(*dataset_, request.constraints,
                                  request.sample);
    int64_t allowed_total = 0;
    for (const data::Poi& poi : dataset_->pois()) {
      if (evaluator.Allows(poi.id)) ++allowed_total;
    }
    EXPECT_EQ(static_cast<int64_t>(constrained.items.size()),
              std::min<int64_t>(request.top_n, allowed_total));
    std::set<int64_t> seen;
    for (const ScoredPoi& item : constrained.items) {
      EXPECT_TRUE(evaluator.Allows(item.poi_id)) << "poi " << item.poi_id;
      EXPECT_TRUE(seen.insert(item.poi_id).second) << "duplicate";
    }
  }
}

}  // namespace
}  // namespace tspn::eval
