// Tests of the v2 recommendation API surface: constraint evaluation
// (including the tile-level geo-fence relation) against brute force, the
// scored single-stage ranking helper, v1/v2 order consistency and
// constraint satisfaction for every registry model, and the registry
// itself.

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/constraints.h"
#include "eval/model_registry.h"
#include "eval/recommend.h"
#include "spatial/grid_index.h"

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

/// Fence centres of the fence tests: the region's centre, points near two
/// of its corners, and a POI.
std::vector<geo::GeoPoint> FenceCenters(const data::CityDataset& dataset) {
  const geo::BoundingBox& bbox = dataset.profile().bbox;
  return {
      bbox.Center(),
      {bbox.min_lat + 0.01 * bbox.LatSpan(), bbox.min_lon + 0.01 * bbox.LonSpan()},
      {bbox.max_lat - 0.001, bbox.max_lon - 0.001},
      dataset.poi(0).loc,
  };
}

constexpr double kFenceRadiiKm[] = {0.3, 1.0, 2.7, 6.0, 40.0};

/// Candidate tiles with the POIs TSPN-RA gathers from each.
struct Tiles {
  std::vector<geo::BoundingBox> bounds;
  std::vector<std::vector<int64_t>> pois;
};

/// The tiles of `partition`, each POI in the tile `tile_of` assigns it.
template <typename TileOf>
Tiles MakeTiles(const spatial::TilePartition& partition,
                const data::CityDataset& dataset, TileOf tile_of) {
  Tiles tiles;
  tiles.pois.resize(static_cast<size_t>(partition.NumTiles()));
  for (int64_t tile = 0; tile < partition.NumTiles(); ++tile) {
    tiles.bounds.push_back(partition.TileBounds(tile));
  }
  for (const data::Poi& poi : dataset.pois()) {
    tiles.pois[static_cast<size_t>(tile_of(poi))].push_back(poi.id);
  }
  return tiles;
}

/// Every partition the fence tests run on, assigned as TSPN-RA assigns
/// POIs: the quad-tree leaves (by the POI's dataset leaf) and the grid
/// ablation at the sizes the model tests use.
std::vector<Tiles> AllTilings(const data::CityDataset& dataset) {
  const spatial::QuadTree& tree = dataset.quadtree();
  std::vector<Tiles> tilings = {
      MakeTiles(tree, dataset, [&](const data::Poi& poi) {
        return tree.LeafIndexOf(dataset.LeafNodeOfPoi(poi.id));
      })};
  for (int32_t cells : {6, 12}) {
    const spatial::GridIndex grid(dataset.profile().bbox, cells);
    tilings.push_back(MakeTiles(grid, dataset, [&](const data::Poi& poi) {
      return grid.TileOf(poi.loc);
    }));
  }
  return tilings;
}

TEST_F(RecommendApiTest, GeoFenceMatchesBruteForceAtManyRadii) {
  // Allows() (a plain haversine per POI) must agree with the per-POI brute
  // force everywhere, including fence centres near the region edge.
  const auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  for (const geo::GeoPoint& center : FenceCenters(*dataset_)) {
    for (double radius_km : kFenceRadiiKm) {
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

TEST_F(RecommendApiTest, TileRelationIsExactForTheTilesPois) {
  // The tile-level shortcuts (skip an outside tile, no distance test in an
  // inside one) hold only if each tile's POIs lie inside its bounds, every
  // POI of an outside tile is beyond the fence and every POI of an inside
  // tile within it. AllowsInTile() must then agree with the brute force,
  // with and without the other constraints alongside the fence.
  const auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  const data::SampleRef& sample = samples[samples.size() / 2];
  int64_t relations[3] = {0, 0, 0};
  for (const Tiles& tiles : AllTilings(*dataset_)) {
    for (size_t tile = 0; tile < tiles.bounds.size(); ++tile) {
      const geo::BoundingBox& b = tiles.bounds[tile];
      for (int64_t pid : tiles.pois[tile]) {
        const geo::GeoPoint& loc = dataset_->poi(pid).loc;
        ASSERT_TRUE(loc.lat >= b.min_lat && loc.lat <= b.max_lat &&
                    loc.lon >= b.min_lon && loc.lon <= b.max_lon)
            << "poi " << pid << " outside tile " << tile;
      }
    }
    for (const geo::GeoPoint& center : FenceCenters(*dataset_)) {
      for (double radius_km : kFenceRadiiKm) {
        for (bool others : {false, true}) {
          CandidateConstraints c;
          c.geo_center = center;
          c.geo_radius_km = radius_km;
          if (others) {
            c.blocked_categories = {1};
            c.exclude_visited = true;
          }
          ConstraintEvaluator evaluator(*dataset_, c, sample);
          for (size_t tile = 0; tile < tiles.bounds.size(); ++tile) {
            const FenceRelation relation =
                evaluator.TileRelation(tiles.bounds[tile]);
            ++relations[static_cast<int>(relation)];
            for (int64_t pid : tiles.pois[tile]) {
              const double d =
                  geo::HaversineKm(dataset_->poi(pid).loc, center);
              if (relation == FenceRelation::kOutside) {
                EXPECT_GT(d, radius_km) << "poi " << pid;
              } else if (relation == FenceRelation::kInside) {
                EXPECT_LE(d, radius_km) << "poi " << pid;
              }
              EXPECT_EQ(evaluator.AllowsInTile(pid, relation),
                        ReferenceAllows(*dataset_, c, sample, pid))
                  << "poi " << pid << " center (" << center.lat << ","
                  << center.lon << ") radius " << radius_km;
            }
          }
        }
      }
    }
  }
  // The cases exercise all three relations.
  EXPECT_GT(relations[static_cast<int>(FenceRelation::kOutside)], 0);
  EXPECT_GT(relations[static_cast<int>(FenceRelation::kBoundary)], 0);
  EXPECT_GT(relations[static_cast<int>(FenceRelation::kInside)], 0);
}

TEST_F(RecommendApiTest, NonFiniteFenceAllowsAllOrNone) {
  // The gateway rejects such fences before they reach a model; the library
  // still gives them a defined meaning. A radius beyond any distance allows
  // every POI and puts every tile inside; a NaN centre allows no POI and
  // puts every tile outside.
  const data::SampleRef sample = dataset_->Samples(data::Split::kTest)[0];
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const geo::GeoPoint center = dataset_->profile().bbox.Center();
  struct Case {
    geo::GeoPoint center;
    double radius_km;
    bool allows;
  };
  for (const Case& fence : {Case{center, 1e300, true}, Case{center, inf, true},
                            Case{{nan, center.lon}, 2.0, false},
                            Case{{center.lat, nan}, 2.0, false},
                            Case{{nan, center.lon}, inf, false}}) {
    CandidateConstraints c;
    c.geo_center = fence.center;
    c.geo_radius_km = fence.radius_km;
    ConstraintEvaluator evaluator(*dataset_, c, sample);
    const FenceRelation expected =
        fence.allows ? FenceRelation::kInside : FenceRelation::kOutside;
    for (const Tiles& tiles : AllTilings(*dataset_)) {
      for (const geo::BoundingBox& bounds : tiles.bounds) {
        EXPECT_EQ(evaluator.TileRelation(bounds), expected)
            << "radius " << fence.radius_km;
      }
    }
    for (const data::Poi& poi : dataset_->pois()) {
      EXPECT_EQ(evaluator.Allows(poi.id), fence.allows)
          << "poi " << poi.id << " radius " << fence.radius_km;
      EXPECT_EQ(evaluator.AllowsAt(poi.id, 12 * 3600), fence.allows)
          << "poi " << poi.id << " radius " << fence.radius_km;
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
