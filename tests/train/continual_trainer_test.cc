// The promotion machinery of the continual trainer: the shadow gate must
// block a deliberately broken candidate (and never touch the serving
// deployment), promote a parity candidate through Gateway::Swap, count a
// swap that fails as a promote failure that leaves the endpoint unchanged,
// retain the previous checkpoint for rollback, surface telemetry through
// the gateway stats, and drain/finish cleanly (with the hung-thread signal
// when the stream never closes). After every promote decision and every
// rollback, the trainer's live checkpoint is the one the gateway serves.

#include "train/continual_trainer.h"

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/model_registry.h"
#include "serve/gateway.h"
#include "train/live_feed.h"

namespace tspn::train {
namespace {

/// A candidate with its brain removed: every request yields an empty
/// ranking, so every shadow metric is exactly zero.
class LobotomizedModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Lobotomy"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    return {};
  }
};

class ContinualTrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
    base_checkpoint_ = ::testing::TempDir() + "/trainer_base.tsck";
    auto model =
        eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, Options());
    eval::TrainOptions train;
    train.epochs = 2;
    train.max_samples_per_epoch = 60;
    model->Train(train);
    model->SaveCheckpoint(base_checkpoint_);
  }

  static eval::ModelOptions Options() {
    eval::ModelOptions options;
    options.dm = 16;
    return options;
  }

  static serve::DeployConfig Config() {
    serve::DeployConfig config;
    config.model_name = "TSPN-RA";
    config.dataset = dataset_;
    config.checkpoint_path = base_checkpoint_;
    config.model_options = {{"dm", "16"}};
    return config;
  }

  static TrainerOptions MakeOptions(const std::string& endpoint) {
    TrainerOptions options;
    options.endpoint = endpoint;
    options.checkpoint_dir = ::testing::TempDir();
    options.checkpoint_every = 8;
    options.batch_size = 4;
    options.pop_batch = 32;
    options.pop_wait_ms = 20;
    options.gate.min_window = 4;
    options.gate.epsilon = 0.0;
    options.gate.list_length = 10;
    return options;
  }

  /// Feeds the endpoint's shadow window with the dataset's test instances.
  static void ObserveTestWindow(ContinualTrainer* trainer) {
    for (const data::SampleRef& sample :
         dataset_->Samples(data::Split::kTest)) {
      trainer->Observe(sample);
    }
  }

  /// The trainer's idea of what serves must be what the gateway serves:
  /// the gate compares candidates against it and Rollback restores from
  /// the retention it rotates.
  static void ExpectTrainerAndGatewayAgree(const serve::Gateway& gateway,
                                           const ContinualTrainer& trainer) {
    serve::EndpointStats stats;
    ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
    EXPECT_EQ(stats.checkpoint_path, trainer.Stats().live_checkpoint);
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::string base_checkpoint_;
};

std::shared_ptr<data::CityDataset> ContinualTrainerTest::dataset_;
std::string ContinualTrainerTest::base_checkpoint_;

TEST_F(ContinualTrainerTest, InitRejectsBadDeployConfig) {
  serve::Gateway gateway;
  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("x"));
  std::string error;

  serve::DeployConfig config = Config();
  config.model_name = "NoSuchModel";
  EXPECT_FALSE(trainer.Init(config, &error));
  EXPECT_NE(error.find("NoSuchModel"), std::string::npos) << error;

  config = Config();
  config.model_options = {{"not_a_knob", "1"}};
  EXPECT_FALSE(trainer.Init(config, &error));

  config = Config();
  config.checkpoint_path = ::testing::TempDir() + "/missing.tsck";
  EXPECT_FALSE(trainer.Init(config, &error));
  EXPECT_NE(error.find("candidate"), std::string::npos) << error;
}

TEST_F(ContinualTrainerTest, LobotomizedCandidateIsRejectedAndNeverSwapped) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;

  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  ObserveTestWindow(&trainer);

  LobotomizedModel lobotomy;
  EXPECT_FALSE(trainer.GateAndMaybePromote(lobotomy, base_checkpoint_));

  GateReport report = trainer.LastGateReport();
  EXPECT_FALSE(report.pass);
  EXPECT_FALSE(report.reason.empty());
  // The rejection is metric-driven, not a window technicality: the live
  // model actually ranks targets, the lobotomized candidate ranks nothing.
  EXPECT_GT(report.live_mrr, 0.0);
  EXPECT_EQ(report.candidate_mrr, 0.0);
  EXPECT_EQ(report.candidate_recall10, 0.0);

  // The serving deployment was never touched: no swap, same checkpoint, no
  // promotion recorded, and the gate verdict is an explicit reject.
  serve::EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 0);
  EXPECT_EQ(stats.checkpoint_path, base_checkpoint_);
  TrainerStats trainer_stats = trainer.Stats();
  EXPECT_EQ(trainer_stats.gate_rejects, 1);
  EXPECT_EQ(trainer_stats.gate_passes, 0);
  EXPECT_EQ(trainer_stats.promotions, 0);
  ExpectTrainerAndGatewayAgree(gateway, trainer);
}

TEST_F(ContinualTrainerTest, GateRequiresMinimumWindow) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;
  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;

  // No Observe() calls: even a perfect candidate must not promote over an
  // empty window.
  auto candidate =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, Options());
  ASSERT_TRUE(candidate->LoadCheckpoint(base_checkpoint_));
  EXPECT_FALSE(trainer.GateAndMaybePromote(*candidate, base_checkpoint_));
  GateReport report = trainer.LastGateReport();
  EXPECT_NE(report.reason.find("window"), std::string::npos) << report.reason;
  serve::EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 0);
}

TEST_F(ContinualTrainerTest, ParityCandidatePromotesAndRollbackRestores) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;
  CheckinStream stream(64);
  TrainerOptions options = MakeOptions("city");
  ContinualTrainer trainer(dataset_, &stream, &gateway, options);
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  ObserveTestWindow(&trainer);

  // A candidate with the live weights is parity by construction; the gate
  // must pass it and Swap it onto the endpoint before returning.
  auto candidate =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, Options());
  ASSERT_TRUE(candidate->LoadCheckpoint(base_checkpoint_));
  const std::string promoted = ::testing::TempDir() + "/trainer_promoted.tsck";
  candidate->SaveCheckpoint(promoted);
  EXPECT_TRUE(trainer.GateAndMaybePromote(*candidate, promoted));

  serve::EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_EQ(stats.checkpoint_path, promoted);
  TrainerStats trainer_stats = trainer.Stats();
  EXPECT_EQ(trainer_stats.promotions, 1);
  EXPECT_EQ(trainer_stats.gate_passes, 1);
  // Retention rotated: the promoted checkpoint serves, the base is the
  // rollback target.
  EXPECT_EQ(trainer_stats.live_checkpoint, promoted);
  EXPECT_EQ(trainer_stats.last_good_checkpoint, base_checkpoint_);
  ExpectTrainerAndGatewayAgree(gateway, trainer);

  // One-command rollback swaps the base back in.
  ASSERT_TRUE(trainer.Rollback(&error)) << error;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 2);
  EXPECT_EQ(stats.checkpoint_path, base_checkpoint_);
  trainer_stats = trainer.Stats();
  EXPECT_EQ(trainer_stats.rollbacks, 1);
  EXPECT_EQ(trainer_stats.live_checkpoint, base_checkpoint_);
  ExpectTrainerAndGatewayAgree(gateway, trainer);
}

TEST_F(ContinualTrainerTest, FailedSwapAfterGatePassChangesNothing) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;
  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  ObserveTestWindow(&trainer);

  // A parity candidate passes the gate, but its checkpoint path does not
  // exist, so the Swap fails: the failure is counted, and the endpoint and
  // the trainer's retention both stay on the base checkpoint.
  auto candidate =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, Options());
  ASSERT_TRUE(candidate->LoadCheckpoint(base_checkpoint_));
  EXPECT_FALSE(trainer.GateAndMaybePromote(
      *candidate, ::testing::TempDir() + "/never_written.tsck"));

  serve::EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 0);
  EXPECT_EQ(stats.checkpoint_path, base_checkpoint_);
  const TrainerStats trainer_stats = trainer.Stats();
  EXPECT_EQ(trainer_stats.gate_passes, 1);
  EXPECT_EQ(trainer_stats.promote_failures, 1);
  EXPECT_EQ(trainer_stats.promotions, 0);
  EXPECT_EQ(trainer_stats.live_checkpoint, base_checkpoint_);
  EXPECT_TRUE(trainer_stats.last_good_checkpoint.empty());
  ExpectTrainerAndGatewayAgree(gateway, trainer);
}

TEST_F(ContinualTrainerTest, RollbackWithoutRetentionFails) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;
  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  EXPECT_FALSE(trainer.Rollback(&error));
  EXPECT_NE(error.find("last-good"), std::string::npos) << error;
}

TEST_F(ContinualTrainerTest, DrainsStreamTrainsAndCheckpoints) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;

  CheckinStream stream(1024);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  trainer.Start();

  // Replay a short burst of fresh traffic (with cold-start arrivals) while
  // the trainer consumes concurrently.
  LiveFeed::Options feed_options;
  feed_options.seed = 303;
  feed_options.checkins_per_user = 12;
  feed_options.novel_poi_count = 2;
  feed_options.novel_visit_every = 12;
  LiveFeed feed(dataset_, feed_options);
  const int64_t total = feed.Remaining();
  ASSERT_GT(total, 32);
  while (feed.PumpInto(stream, 16) > 0) {
  }
  stream.Close();
  ASSERT_TRUE(trainer.Finish(/*timeout_ms=*/60000)) << "trainer thread hung";

  TrainerStats stats = trainer.Stats();
  EXPECT_EQ(stats.events_consumed, total);
  EXPECT_GT(stats.samples_assembled, 0);
  EXPECT_GT(stats.samples_trained, 0);
  EXPECT_GE(stats.checkpoints, 1);
  EXPECT_FALSE(stats.last_checkpoint.empty());
  // Novel POIs entered the priors (cold-start path exercised)...
  EXPECT_GT(stats.cold_pois_seen, 0);
  EXPECT_GT(trainer.priors().NumColdPois(), 0);
  // ...and with an empty shadow window every gate pass was a reject, so the
  // serving deployment never moved.
  EXPECT_EQ(stats.promotions, 0);
  EXPECT_EQ(stats.gate_rejects, stats.checkpoints);
  serve::EndpointStats endpoint_stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &endpoint_stats));
  EXPECT_EQ(endpoint_stats.swaps, 0);
  // The written candidate checkpoints restore into a fresh model.
  auto restored =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, Options());
  EXPECT_TRUE(restored->LoadCheckpoint(stats.last_checkpoint));
}

TEST_F(ContinualTrainerTest, FinishReportsHungThreadOnOpenStream) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;
  CheckinStream stream(64);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  trainer.Start();
  // The stream never closes: Finish must time out rather than block.
  EXPECT_FALSE(trainer.Finish(/*timeout_ms=*/100));
  stream.Close();
  EXPECT_TRUE(trainer.Finish(/*timeout_ms=*/60000));
}

TEST_F(ContinualTrainerTest, TelemetryRidesGatewayStats) {
  serve::Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("city", Config(), &error)) << error;

  CheckinStream stream(256);
  ContinualTrainer trainer(dataset_, &stream, &gateway, MakeOptions("city"));
  ASSERT_TRUE(trainer.Init(Config(), &error)) << error;
  gateway.AttachTrainer("city", [&trainer] { return trainer.Telemetry(); });

  serve::EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_TRUE(stats.trainer.attached);
  EXPECT_EQ(stats.trainer.events_consumed, 0);

  trainer.Start();
  LiveFeed feed(dataset_, {.seed = 404, .checkins_per_user = 6});
  const int64_t total = feed.Remaining();
  feed.PumpInto(stream, 0);
  stream.Close();
  ASSERT_TRUE(trainer.Finish(/*timeout_ms=*/60000));

  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.trainer.events_consumed, total);
  EXPECT_GT(stats.trainer.samples_trained, 0);
  // The aggregate snapshot carries the same counters.
  serve::GatewayStats snapshot = gateway.Snapshot();
  ASSERT_EQ(snapshot.per_endpoint.size(), 1u);
  EXPECT_TRUE(snapshot.per_endpoint[0].trainer.attached);
  EXPECT_EQ(snapshot.per_endpoint[0].trainer.events_consumed, total);

  gateway.DetachTrainer("city");
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_FALSE(stats.trainer.attached);
}

}  // namespace
}  // namespace tspn::train
