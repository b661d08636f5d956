// Smoke + behaviour tests for every baseline model on the tiny city.

#include "baselines/base.h"

#include <set>

#include <gtest/gtest.h>

#include "baselines/markov_chain.h"
#include "eval/metrics.h"
#include "eval/model_registry.h"

namespace tspn::baselines {
namespace {

/// Ranked POI ids of an unconstrained top-`top_n` request.
std::vector<int64_t> TopIds(const eval::NextPoiModel& model,
                            const data::SampleRef& sample, int64_t top_n) {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = top_n;
  return model.Recommend(request).PoiIds();
}

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }

  /// Builds a baseline through the model registry at dm 16.
  static std::unique_ptr<eval::NextPoiModel> Create(const std::string& name,
                                                    uint64_t seed) {
    eval::ModelOptions options;
    options.dm = 16;
    options.seed = seed;
    return eval::ModelRegistry::Global().Create(name, dataset_, options);
  }

  static std::shared_ptr<data::CityDataset> dataset_;
};

std::shared_ptr<data::CityDataset> BaselinesTest::dataset_;

TEST_F(BaselinesTest, AllNamesConstruct) {
  for (const std::string& name : BaselineNames()) {
    auto model = Create(name, /*seed=*/3);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
}

TEST_F(BaselinesTest, TenBaselinesAsInPaper) {
  EXPECT_EQ(BaselineNames().size(), 10u);
}

class BaselineParamTest : public BaselinesTest,
                          public ::testing::WithParamInterface<std::string> {};

TEST_P(BaselineParamTest, RecommendationsAreValidAndUnique) {
  auto model = Create(GetParam(), /*seed=*/3);
  ASSERT_NE(model, nullptr) << GetParam();
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 32;
  model->Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  for (size_t s = 0; s < std::min<size_t>(3, samples.size()); ++s) {
    std::vector<int64_t> ranked = TopIds(*model, samples[s], 20);
    EXPECT_EQ(ranked.size(), 20u);
    std::set<int64_t> unique(ranked.begin(), ranked.end());
    EXPECT_EQ(unique.size(), ranked.size());
    for (int64_t id : ranked) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, static_cast<int64_t>(dataset_->pois().size()));
    }
  }
}

TEST_P(BaselineParamTest, TrainingBeatsRandomRanking) {
  auto model = Create(GetParam(), /*seed=*/5);
  ASSERT_NE(model, nullptr) << GetParam();
  eval::TrainOptions options;
  options.epochs = 3;
  options.max_samples_per_epoch = 128;
  options.lr = 5e-3f;
  model->Train(options);
  eval::RankingMetrics metrics =
      eval::EvaluateModel(*model, *dataset_, data::Split::kTest, 60, 7);
  // Random Recall@20 over 120 POIs is ~0.167; every trained baseline should
  // beat a weak multiple of it (STRNN is genuinely poor, hence the low bar).
  EXPECT_GT(metrics.RecallAt(20), 0.10) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineParamTest, ::testing::ValuesIn(BaselineNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_F(BaselinesTest, MarkovChainLearnsTransitions) {
  MarkovChain model(dataset_);
  model.Train({});
  // Feed it a train transition and check the observed successor ranks first
  // among successors of that POI.
  auto samples = dataset_->Samples(data::Split::kTrain);
  ASSERT_FALSE(samples.empty());
  std::vector<int64_t> ranked = TopIds(model, samples[0], 10);
  EXPECT_FALSE(ranked.empty());
}

TEST_F(BaselinesTest, MarkovChainDeterministic) {
  MarkovChain a(dataset_), b(dataset_);
  a.Train({});
  b.Train({});
  auto samples = dataset_->Samples(data::Split::kTest);
  EXPECT_EQ(TopIds(a, samples[0], 20), TopIds(b, samples[0], 20));
}

}  // namespace
}  // namespace tspn::baselines
