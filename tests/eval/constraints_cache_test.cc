// Fence-classification cache tests: a recurring geo fence must be compiled
// once and shared (hits counted), cached and fresh evaluations must agree
// on every POI, and full model rankings must be bit-identical whether the
// fence was compiled for the request or read from the cache. A fresh
// compilation is forced by clearing the cache first.

#include "eval/constraints.h"

#include <gtest/gtest.h>

#include "core/tspn_ra.h"
#include "data/dataset.h"

namespace tspn::eval {
namespace {

class ConstraintsCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }
  void SetUp() override { ClearFenceClassificationCache(); }
  void TearDown() override { ClearFenceClassificationCache(); }

  static CandidateConstraints Fence(double radius_km) {
    CandidateConstraints c;
    c.geo_center = dataset_->profile().bbox.Center();
    c.geo_radius_km = radius_km;
    return c;
  }

  static std::shared_ptr<data::CityDataset> dataset_;
};

std::shared_ptr<data::CityDataset> ConstraintsCacheTest::dataset_;

TEST_F(ConstraintsCacheTest, RecurringFenceCompilesOnceAndHits) {
  const CandidateConstraints fence = Fence(2.0);
  const data::SampleRef sample{0, 0, 1};

  ConstraintEvaluator first(*dataset_, fence, sample);
  FenceCacheStats stats = FenceClassificationCacheStats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);

  // Same fence again — and again with extra non-geo constraints, which must
  // not change the fence key.
  ConstraintEvaluator second(*dataset_, fence, sample);
  CandidateConstraints fence_plus = fence;
  fence_plus.exclude_visited = true;
  ConstraintEvaluator third(*dataset_, fence_plus, sample);
  stats = FenceClassificationCacheStats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 2);

  // A different radius is a different fence.
  const CandidateConstraints other = Fence(1.0);
  ConstraintEvaluator fourth(*dataset_, other, sample);
  stats = FenceClassificationCacheStats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 2);
}

TEST_F(ConstraintsCacheTest, CachedAndFreshEvaluationAgreeOnEveryPoi) {
  const data::SampleRef sample{0, 0, 1};
  for (double radius_km : {0.8, 2.0, 5.0}) {
    const CandidateConstraints fence = Fence(radius_km);

    // Fresh compilation: the cache is empty, so this evaluator compiles.
    ClearFenceClassificationCache();
    ConstraintEvaluator fresh(*dataset_, fence, sample);
    ASSERT_EQ(FenceClassificationCacheStats().misses, 1);

    // Cached: the next evaluator reads what the first one compiled.
    ConstraintEvaluator cached(*dataset_, fence, sample);
    ASSERT_EQ(FenceClassificationCacheStats().hits, 1);

    for (int64_t poi = 0; poi < static_cast<int64_t>(dataset_->pois().size());
         ++poi) {
      ASSERT_EQ(cached.Allows(poi), fresh.Allows(poi))
          << "radius " << radius_km << " POI " << poi;
    }
  }
}

TEST_F(ConstraintsCacheTest, ModelRankingsAreBitIdenticalCachedVsFresh) {
  core::TspnRaConfig config;
  config.dm = 16;
  config.image_resolution = 16;
  config.num_fusion_layers = 1;
  config.num_hgat_layers = 1;
  config.max_seq_len = 8;
  config.top_k_tiles = 5;
  config.seed = 3;
  core::TspnRa model(dataset_, config);
  TrainOptions train;
  train.epochs = 1;
  train.max_samples_per_epoch = 16;
  model.Train(train);

  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    RecommendRequest request;
    request.sample = samples[i];
    request.top_n = 10;
    request.constraints = Fence(2.5);
    request.constraints.exclude_visited = (i % 2 == 1);

    ClearFenceClassificationCache();
    const RecommendResponse fresh = model.Recommend(request);
    ASSERT_EQ(FenceClassificationCacheStats().hits, 0) << "sample " << i;
    const RecommendResponse cached = model.Recommend(request);
    const RecommendResponse cached_again = model.Recommend(request);

    for (const RecommendResponse* got : {&cached, &cached_again}) {
      ASSERT_EQ(got->items.size(), fresh.items.size()) << "sample " << i;
      for (size_t r = 0; r < fresh.items.size(); ++r) {
        EXPECT_EQ(got->items[r].poi_id, fresh.items[r].poi_id);
        EXPECT_EQ(got->items[r].score, fresh.items[r].score);
        EXPECT_EQ(got->items[r].tile_index, fresh.items[r].tile_index);
      }
      EXPECT_EQ(got->tiles_screened, fresh.tiles_screened);
    }
  }
  EXPECT_GT(FenceClassificationCacheStats().hits, 0);
}

}  // namespace
}  // namespace tspn::eval
