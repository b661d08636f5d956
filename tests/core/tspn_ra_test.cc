// End-to-end tests of the TSPN-RA model on the tiny synthetic city.

#include "core/tspn_ra.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "eval/metrics.h"

namespace tspn::core {
namespace {

/// Ranked POI ids of an unconstrained top-`top_n` request.
std::vector<int64_t> TopIds(const eval::NextPoiModel& model,
                            const data::SampleRef& sample, int64_t top_n) {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = top_n;
  return model.Recommend(request).PoiIds();
}

TspnRaConfig TinyConfig() {
  TspnRaConfig config;
  config.dm = 16;
  config.image_resolution = 16;
  config.num_fusion_layers = 1;
  config.num_hgat_layers = 1;
  config.max_seq_len = 8;
  config.top_k_tiles = 5;
  config.seed = 3;
  return config;
}

class TspnRaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }

  /// What a freshly constructed model restored from `checkpoint` answers to
  /// `request` alone: every cache, the history cache included, starts cold.
  static eval::RecommendResponse ColdReply(
      const TspnRaConfig& config, const std::string& checkpoint,
      const eval::RecommendRequest& request) {
    TspnRa fresh(dataset_, config);
    EXPECT_TRUE(fresh.LoadCheckpoint(checkpoint));
    return fresh.Recommend(request);
  }

  /// `count` test samples cycling over the distinct (user, traj) history
  /// keys, each visit to a key taking its next prefix: batches built from a
  /// prefix of the list mix keys and repeat them.
  static std::vector<data::SampleRef> SamplesAcrossKeys(size_t count) {
    std::vector<std::vector<data::SampleRef>> by_key;
    for (const data::SampleRef& sample :
         dataset_->Samples(data::Split::kTest)) {
      if (by_key.empty() || by_key.back()[0].user != sample.user ||
          by_key.back()[0].traj != sample.traj) {
        by_key.emplace_back();
      }
      by_key.back().push_back(sample);
    }
    std::vector<data::SampleRef> out;
    for (size_t i = 0; i < count; ++i) {
      const std::vector<data::SampleRef>& key = by_key[i % by_key.size()];
      out.push_back(key[(i / by_key.size()) % key.size()]);
    }
    return out;
  }

  static std::shared_ptr<data::CityDataset> dataset_;
};

/// Bitwise equality of two replies: items, scores, tiles and screen stats.
void ExpectSameReply(const eval::RecommendResponse& got,
                     const eval::RecommendResponse& want,
                     const std::string& where) {
  ASSERT_EQ(got.items.size(), want.items.size()) << where;
  EXPECT_EQ(got.stages_used, want.stages_used) << where;
  EXPECT_EQ(got.tiles_screened, want.tiles_screened) << where;
  for (size_t r = 0; r < want.items.size(); ++r) {
    const std::string at = where + " rank " + std::to_string(r);
    EXPECT_EQ(got.items[r].poi_id, want.items[r].poi_id) << at;
    EXPECT_EQ(got.items[r].score, want.items[r].score) << at;
    EXPECT_EQ(got.items[r].tile_index, want.items[r].tile_index) << at;
  }
}

std::shared_ptr<data::CityDataset> TspnRaTest::dataset_;

TEST_F(TspnRaTest, UntrainedRecommendReturnsValidPois) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  std::vector<int64_t> ranked = TopIds(model, samples[0], 20);
  EXPECT_FALSE(ranked.empty());
  std::set<int64_t> unique(ranked.begin(), ranked.end());
  EXPECT_EQ(unique.size(), ranked.size()) << "no duplicate recommendations";
  for (int64_t id : ranked) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, static_cast<int64_t>(dataset_->pois().size()));
  }
}

TEST_F(TspnRaTest, RankTilesIsPermutationOfCandidates) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<int64_t> ranked = model.RankTiles(samples[0]);
  EXPECT_EQ(static_cast<int64_t>(ranked.size()), model.NumCandidateTiles());
  std::set<int64_t> unique(ranked.begin(), ranked.end());
  EXPECT_EQ(static_cast<int64_t>(unique.size()), model.NumCandidateTiles());
}

TEST_F(TspnRaTest, RankTilesTopKMatchesFullSortPrefix) {
  // The partial top-k selection must reproduce the full-sort ordering
  // exactly (ties broken by ascending tile index in both paths).
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  for (size_t s = 0; s < std::min<size_t>(3, samples.size()); ++s) {
    std::vector<int64_t> full = model.RankTiles(samples[s]);
    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}, model.NumCandidateTiles()}) {
      std::vector<int64_t> topk = model.RankTilesTopK(samples[s], k);
      ASSERT_EQ(static_cast<int64_t>(topk.size()),
                std::min<int64_t>(k, model.NumCandidateTiles()));
      for (size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i], full[i]) << "k=" << k << " position " << i;
      }
    }
  }
}

TEST_F(TspnRaTest, RecommendBatchMatchesSingleQuery) {
  // Batch composition: a query in a batch of N must get exactly what it
  // gets alone (Recommend is a batch of one), at several batch sizes
  // (including the 4-row GEMM tile boundary and a non-multiple-of-4 tail).
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  for (size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{9}}) {
    std::vector<eval::RecommendRequest> query(batch);
    for (size_t i = 0; i < batch; ++i) {
      query[i].sample = samples[i % samples.size()];
      query[i].top_n = 10;
    }
    std::vector<eval::RecommendResponse> batched =
        model.RecommendBatch(common::Span<eval::RecommendRequest>(query));
    ASSERT_EQ(batched.size(), batch);
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(batched[i].PoiIds(), model.Recommend(query[i]).PoiIds())
          << "batch=" << batch << " query " << i;
    }
  }
}

TEST_F(TspnRaTest, RecommendBatchParityAfterTrainingAndOnAblations) {
  // Parity must survive a trained model (non-degenerate scores) and the
  // structurally different ablations: grid partition and no-two-step.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<TspnRaConfig> configs;
  configs.push_back(TinyConfig());
  {
    TspnRaConfig c = TinyConfig();
    c.use_quadtree = false;
    c.grid_cells_per_side = 6;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_two_step = false;
    configs.push_back(c);
  }
  std::vector<eval::RecommendRequest> query(
      std::min<size_t>(6, samples.size()));
  for (size_t i = 0; i < query.size(); ++i) {
    query[i].sample = samples[i];
    query[i].top_n = 10;
  }
  for (const TspnRaConfig& config : configs) {
    TspnRa model(dataset_, config);
    model.Train(options);
    std::vector<eval::RecommendResponse> batched =
        model.RecommendBatch(common::Span<eval::RecommendRequest>(query));
    for (size_t i = 0; i < query.size(); ++i) {
      EXPECT_EQ(batched[i].PoiIds(), model.Recommend(query[i]).PoiIds())
          << "query " << i;
    }
  }
}

TEST_F(TspnRaTest, BatchedEvaluationMatchesSerialEvaluation) {
  TspnRa model(dataset_, TinyConfig());
  eval::RankingMetrics serial =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 40, 5);
  eval::RankingMetrics batched = eval::EvaluateModelBatched(
      model, *dataset_, data::Split::kTest, 40, 5, /*batch_size=*/8);
  EXPECT_EQ(serial.count(), batched.count());
  EXPECT_DOUBLE_EQ(serial.RecallAt(10), batched.RecallAt(10));
  EXPECT_DOUBLE_EQ(serial.NdcgAt(10), batched.NdcgAt(10));
  EXPECT_DOUBLE_EQ(serial.Mrr(), batched.Mrr());
}

TEST_F(TspnRaTest, CandidateCountMonotonicInK) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  int64_t prev = 0;
  for (int32_t k = 1; k <= model.NumCandidateTiles(); k *= 2) {
    int64_t count = model.CandidatePoiCount(samples[0], k);
    EXPECT_GE(count, prev);
    prev = count;
  }
  // All tiles -> all POIs.
  EXPECT_EQ(model.CandidatePoiCount(
                samples[0], static_cast<int32_t>(model.NumCandidateTiles())),
            static_cast<int64_t>(dataset_->pois().size()));
}

TEST_F(TspnRaTest, RecommendWithFullKCoversTargetEventually) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  // With K = all tiles, the candidate set is every POI, so the target must
  // appear somewhere in a full-length ranking.
  std::vector<int64_t> ranked = model.RecommendWithK(
      samples[0], static_cast<int64_t>(dataset_->pois().size()),
      static_cast<int32_t>(model.NumCandidateTiles()));
  int64_t target = dataset_->Target(samples[0]).poi_id;
  EXPECT_NE(std::find(ranked.begin(), ranked.end(), target), ranked.end());
}

TEST_F(TspnRaTest, TargetTileIndexInRange) {
  TspnRa model(dataset_, TinyConfig());
  for (const auto& sample : dataset_->Samples(data::Split::kTest)) {
    int64_t idx = model.TargetTileIndex(sample);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, model.NumCandidateTiles());
  }
}

TEST_F(TspnRaTest, TrainingImprovesOverUntrained) {
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 3;
  options.max_samples_per_epoch = 96;
  options.lr = 3e-3f;
  options.seed = 11;
  eval::RankingMetrics before =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 60, 5);
  model.Train(options);
  eval::RankingMetrics after =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 60, 5);
  EXPECT_GT(after.RecallAt(10) + 1e-9, before.RecallAt(10));
  // Trained model must comfortably beat popularity-free random ranking:
  // random Recall@10 over ~120 POIs is ~0.08.
  EXPECT_GT(after.RecallAt(10), 0.12);
}

TEST_F(TspnRaTest, AblationConfigsConstructAndRun) {
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<TspnRaConfig> configs;
  {
    TspnRaConfig c = TinyConfig();
    c.use_quadtree = false;
    c.grid_cells_per_side = 6;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_two_step = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_graph = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_road_edges = false;
    c.use_contain_edges = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_imagery = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_st_encoder = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_category = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.image_noise_fraction = 0.2;
    configs.push_back(c);
  }
  for (const TspnRaConfig& config : configs) {
    TspnRa model(dataset_, config);
    std::vector<int64_t> ranked = TopIds(model, samples[0], 10);
    EXPECT_FALSE(ranked.empty());
  }
}

TEST_F(TspnRaTest, ShortTrainingRunsOnAblations) {
  // One gradient step on each structurally different ablation to catch
  // autograd wiring bugs.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 8;
  for (bool quadtree : {true, false}) {
    for (bool two_step : {true, false}) {
      TspnRaConfig config = TinyConfig();
      config.use_quadtree = quadtree;
      config.grid_cells_per_side = 6;
      config.use_two_step = two_step;
      TspnRa model(dataset_, config);
      model.Train(options);
      EXPECT_FALSE(TopIds(model, dataset_->Samples(data::Split::kTest)[0], 5)
                       .empty());
    }
  }
}

TEST_F(TspnRaTest, ParameterCountPositiveAndStable) {
  TspnRa a(dataset_, TinyConfig());
  TspnRa b(dataset_, TinyConfig());
  EXPECT_GT(a.ParameterCount(), 0);
  EXPECT_EQ(a.ParameterCount(), b.ParameterCount());
  EXPECT_EQ(a.Parameters().size(), b.Parameters().size());
}

TEST_F(TspnRaTest, BatchScoresBitwiseMatchSingleQuery) {
  // Batch composition, bitwise: the packed encoder forward, the stage-1
  // GEMM and the stage-2 scoring of the screened candidates must give each
  // request of a batch its batch-of-one scores, for plain and constrained
  // requests alike (a fence that forces the screen to widen, novelty, a
  // category allow-list, a degraded-mode screen cap), at batch sizes
  // straddling the 4-row GEMM tile, on fresh and trained weights, and with
  // the two-step screen ablated. The history cache must not show either:
  // every reply also equals a cold model's (same weights, empty caches) on
  // the first batch, where every history key misses, on later batches and
  // single queries, which hit, and on a batch that repeats one key.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  const std::string checkpoint = ::testing::TempDir() + "/tspn_parity.ckpt";
  TspnRaConfig one_step = TinyConfig();
  one_step.use_two_step = false;
  // Request i is the same in every batch, so one cold reply per request
  // serves all batch sizes. Batches of 3 and more mix history keys.
  constexpr size_t kMaxBatch = 9;
  const std::vector<data::SampleRef> spread = SamplesAcrossKeys(kMaxBatch);
  std::vector<eval::RecommendRequest> requests(kMaxBatch);
  for (size_t i = 0; i < kMaxBatch; ++i) {
    requests[i].sample = spread[i];
    requests[i].top_n = 5 + static_cast<int64_t>(i % 3) * 5;  // mixed
    eval::CandidateConstraints& c = requests[i].constraints;
    switch (i % 5) {
      case 1:  // a wide fence and novelty
        c.geo_center = dataset_->profile().bbox.Center();
        c.geo_radius_km = 5.0;
        c.exclude_visited = true;
        break;
      case 2: {  // a tight fence around the last stop: the screen widens
        const data::Trajectory& traj = dataset_->trajectory(spread[i]);
        c.geo_center =
            dataset_->poi(traj.checkins[spread[i].prefix_len - 1].poi_id).loc;
        c.geo_radius_km = 1.0;
        break;
      }
      case 3:  // a category allow-list
        c.allowed_categories = {0, 2};
        break;
      case 4:  // novelty under a degraded-mode screen cap
        c.exclude_visited = true;
        requests[i].max_tiles_screened = 2;
        break;
      default:
        break;
    }
  }
  // One history key several times: three prefixes of samples[0]'s
  // trajectory, plain and constrained, then samples[0] again.
  std::vector<eval::RecommendRequest> one_key;
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(samples[s].traj, samples[0].traj);
    ASSERT_EQ(samples[s].user, samples[0].user);
    for (size_t variant : {size_t{0}, size_t{1}}) {
      eval::RecommendRequest request = requests[variant];
      request.sample = samples[s];
      one_key.push_back(request);
    }
  }
  one_key.push_back(one_key[0]);
  for (bool trained : {false, true}) {
    for (const TspnRaConfig& config : {TinyConfig(), one_step}) {
      const std::string what = "trained=" + std::to_string(trained) +
                               " two_step=" +
                               std::to_string(config.use_two_step);
      TspnRa model(dataset_, config);
      if (trained) model.Train(options);
      model.SaveCheckpoint(checkpoint);
      std::vector<eval::RecommendResponse> cold;
      for (const eval::RecommendRequest& request : requests) {
        cold.push_back(ColdReply(config, checkpoint, request));
      }
      if (config.use_two_step) {
        // The constrained paths really run: the tight fence widens the
        // screen past top_k, and the cap holds it to two tiles.
        EXPECT_GT(cold[2].tiles_screened, config.top_k_tiles) << what;
        EXPECT_EQ(cold[4].tiles_screened, 2) << what;
      }
      for (size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                           kMaxBatch}) {
        std::vector<eval::RecommendResponse> batched = model.RecommendBatch(
            common::Span<eval::RecommendRequest>(requests.data(), batch));
        ASSERT_EQ(batched.size(), batch);
        for (size_t i = 0; i < batch; ++i) {
          const std::string where = what + " batch=" + std::to_string(batch) +
                                    " query " + std::to_string(i);
          ExpectSameReply(batched[i], model.Recommend(requests[i]), where);
          ExpectSameReply(batched[i], cold[i], where + " vs cold");
        }
      }
      // The repeated key, on a cold model (one encode, reused in the batch)
      // and on the warm one.
      TspnRa fresh(dataset_, config);
      ASSERT_TRUE(fresh.LoadCheckpoint(checkpoint));
      std::vector<eval::RecommendResponse> fresh_batch = fresh.RecommendBatch(
          common::Span<eval::RecommendRequest>(one_key));
      std::vector<eval::RecommendResponse> warm_batch = model.RecommendBatch(
          common::Span<eval::RecommendRequest>(one_key));
      for (size_t i = 0; i < one_key.size(); ++i) {
        const std::string where = what + " one key, query " + std::to_string(i);
        const eval::RecommendResponse want =
            ColdReply(config, checkpoint, one_key[i]);
        ExpectSameReply(fresh_batch[i], want, where + " cold batch");
        ExpectSameReply(warm_batch[i], want, where + " warm batch");
      }
    }
  }
}

TEST_F(TspnRaTest, NoStaleHistoryKnowledgeAfterWeightsChange) {
  // The history cache keeps each key's projected HGAT knowledge (every
  // fusion block's cross-attention K/V) across requests. A
  // weight change (loading another checkpoint, one online training step)
  // must retire it: replies then equal a cold model holding the new weights.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  std::vector<eval::RecommendRequest> requests(6);
  const std::vector<data::SampleRef> spread =
      SamplesAcrossKeys(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].sample = spread[i];
    requests[i].top_n = 10;
  }
  common::Span<eval::RecommendRequest> all(requests);
  auto expect_cold_replies = [&](const TspnRa& model,
                                 const std::string& checkpoint,
                                 const std::string& what) {
    std::vector<eval::RecommendResponse> batched = model.RecommendBatch(all);
    for (size_t i = 0; i < requests.size(); ++i) {
      const eval::RecommendResponse want =
          ColdReply(TinyConfig(), checkpoint, requests[i]);
      const std::string where = what + " query " + std::to_string(i);
      ExpectSameReply(batched[i], want, where + " batch");
      ExpectSameReply(model.Recommend(requests[i]), want, where + " single");
    }
  };

  TspnRa served(dataset_, TinyConfig());
  served.Train(options);
  const std::vector<eval::RecommendResponse> before =
      served.RecommendBatch(all);

  TspnRaConfig other = TinyConfig();
  other.seed = 99;
  TspnRa donor(dataset_, other);
  donor.Train(options);
  const std::string donor_path = ::testing::TempDir() + "/tspn_donor.ckpt";
  donor.SaveCheckpoint(donor_path);
  ASSERT_TRUE(served.LoadCheckpoint(donor_path));
  expect_cold_replies(served, donor_path, "after LoadState");
  // The new weights really move the scores, so stale K/V would show.
  EXPECT_NE(served.Recommend(requests[0]).items[0].score,
            before[0].items[0].score);

  const data::SampleRef train = dataset_->Samples(data::Split::kTrain)[0];
  const data::Trajectory& traj = dataset_->trajectory(train);
  eval::OnlineSample online;
  online.user = train.user;
  online.history.assign(traj.checkins.begin(),
                        traj.checkins.begin() + train.prefix_len);
  online.target = dataset_->Target(train);
  ASSERT_EQ(served.TrainOnline(
                common::Span<const eval::OnlineSample>(&online, 1), options),
            1);
  const std::string online_path = ::testing::TempDir() + "/tspn_online.ckpt";
  served.SaveCheckpoint(online_path);
  expect_cold_replies(served, online_path, "after TrainOnline");
}

TEST_F(TspnRaTest, ConstrainedQueriesSatisfyPredicatesAndFillTopN) {
  // Filter-before-top-k: every returned POI satisfies the constraints, and
  // the list fills top_n whenever enough allowed candidates exist — the
  // stage-1 screen widens past top_k_tiles as needed.
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  model.Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());

  // Geo fence around the sample's last check-in.
  const data::Trajectory& traj = dataset_->trajectory(samples[0]);
  const geo::GeoPoint center =
      dataset_->poi(traj.checkins[samples[0].prefix_len - 1].poi_id).loc;
  eval::RecommendRequest fenced;
  fenced.sample = samples[0];
  fenced.top_n = 10;
  fenced.constraints.geo_center = center;
  fenced.constraints.geo_radius_km = 4.0;
  int64_t in_fence = 0;
  for (const data::Poi& poi : dataset_->pois()) {
    if (geo::HaversineKm(poi.loc, center) <= 4.0) ++in_fence;
  }
  eval::RecommendResponse fenced_response = model.Recommend(fenced);
  EXPECT_EQ(static_cast<int64_t>(fenced_response.items.size()),
            std::min<int64_t>(10, in_fence));
  for (const eval::ScoredPoi& item : fenced_response.items) {
    EXPECT_LE(geo::HaversineKm(dataset_->poi(item.poi_id).loc, center), 4.0);
  }

  // Category block of the unconstrained winner.
  eval::RecommendRequest blocked;
  blocked.sample = samples[0];
  blocked.top_n = 10;
  const int64_t winner = TopIds(model, samples[0], 1)[0];
  const int32_t blocked_cat = dataset_->poi(winner).category;
  blocked.constraints.blocked_categories = {blocked_cat};
  int64_t allowed = 0;
  for (const data::Poi& poi : dataset_->pois()) {
    if (poi.category != blocked_cat) ++allowed;
  }
  eval::RecommendResponse blocked_response = model.Recommend(blocked);
  EXPECT_EQ(static_cast<int64_t>(blocked_response.items.size()),
            std::min<int64_t>(10, allowed));
  for (const eval::ScoredPoi& item : blocked_response.items) {
    EXPECT_NE(dataset_->poi(item.poi_id).category, blocked_cat);
    EXPECT_NE(item.poi_id, winner);
  }

  // Exclude-visited: nothing from the observed prefix comes back.
  eval::RecommendRequest novel;
  novel.sample = samples[0];
  novel.top_n = 10;
  novel.constraints.exclude_visited = true;
  eval::RecommendResponse novel_response = model.Recommend(novel);
  EXPECT_EQ(novel_response.items.size(), 10u);
  for (const eval::ScoredPoi& item : novel_response.items) {
    for (int32_t i = 0; i < samples[0].prefix_len; ++i) {
      EXPECT_NE(item.poi_id, traj.checkins[static_cast<size_t>(i)].poi_id);
    }
  }
}

TEST_F(TspnRaTest, CheckpointRoundTripPreservesRecommendations) {
  TspnRa a(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 32;
  a.Train(options);
  std::string path = ::testing::TempDir() + "/tspn_ckpt.bin";
  a.SaveCheckpoint(path);

  TspnRaConfig other = TinyConfig();
  other.seed = 99;  // different init
  TspnRa b(dataset_, other);
  ASSERT_TRUE(b.LoadCheckpoint(path));
  auto samples = dataset_->Samples(data::Split::kTest);
  for (size_t i = 0; i < std::min<size_t>(3, samples.size()); ++i) {
    EXPECT_EQ(TopIds(a, samples[i], 10), TopIds(b, samples[i], 10));
  }
  // A structurally different model rejects the checkpoint and stays usable.
  TspnRaConfig bigger = TinyConfig();
  bigger.dm = 32;
  TspnRa c(dataset_, bigger);
  EXPECT_FALSE(c.LoadCheckpoint(path));
  EXPECT_FALSE(TopIds(c, samples[0], 5).empty());
}

TEST(RankingMetricsTest, FormulasMatchHandComputation) {
  eval::RankingMetrics metrics;
  // Target at rank 3.
  metrics.Add({10, 20, 30, 40, 50}, 30);
  EXPECT_NEAR(metrics.RecallAt(5), 1.0, 1e-9);
  EXPECT_NEAR(metrics.NdcgAt(5), 1.0 / std::log2(4.0), 1e-9);
  EXPECT_NEAR(metrics.Mrr(), 1.0 / 3.0, 1e-9);
  // A miss halves everything.
  metrics.Add({1, 2, 3}, 99);
  EXPECT_NEAR(metrics.RecallAt(5), 0.5, 1e-9);
  EXPECT_NEAR(metrics.Mrr(), 1.0 / 6.0, 1e-9);
}

TEST(RankingMetricsTest, CutoffBoundaries) {
  eval::RankingMetrics metrics;
  std::vector<int64_t> ranked(20);
  for (int i = 0; i < 20; ++i) ranked[static_cast<size_t>(i)] = i;
  metrics.Add(ranked, 5);  // rank 6: outside top-5, inside top-10
  EXPECT_EQ(metrics.RecallAt(5), 0.0);
  EXPECT_EQ(metrics.RecallAt(10), 1.0);
  EXPECT_EQ(metrics.RecallAt(20), 1.0);
}

TEST(RankingMetricsTest, MergeAccumulates) {
  eval::RankingMetrics a, b;
  a.Add({1, 2}, 1);
  b.Add({1, 2}, 9);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_NEAR(a.RecallAt(5), 0.5, 1e-9);
}

}  // namespace
}  // namespace tspn::core
