// Gateway tests: endpoint lifecycle (deploy/swap/undeploy with loud
// failures), routing parity with direct model calls, hot-swap
// bit-identical responses under concurrent clients, lifetime stats that
// survive swaps, wire-frame serving, the plan-worker cap, and a
// deploy/swap/undeploy-vs-request race that the TSan CI job runs. Every
// request enters the gateway as a wire frame, as it does in production.

#include "serve/gateway.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "serve/codec.h"

namespace tspn::serve {
namespace {

EngineOptions SmallEngine(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.max_queue_depth = 64;
  options.max_batch = 8;
  options.coalesce_window_us = 200;
  return options;
}

/// Holds every inference of a GatedModel until Open().
class Gate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// The gate registry-built GatedModels wait on; it outlives every gateway.
Gate& PlanGate() {
  static Gate gate;
  return gate;
}

/// A model whose inference blocks on PlanGate(), so a test can hold plans
/// inside their first rollout wave.
class GatedModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Gated"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    PlanGate().Wait();
    return {};
  }
};

/// Shared fixture state: one tiny city, one trained TSPN-RA checkpoint and
/// one trained MC checkpoint — training runs once for the whole suite.
class GatewayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
    tspn_checkpoint_ = testing::TempDir() + "/gateway_tspn.ckpt";
    mc_checkpoint_ = testing::TempDir() + "/gateway_mc.ckpt";

    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;

    {
      auto trained = eval::ModelRegistry::Global().Create("TSPN-RA", dataset_,
                                                          TinyOptions());
      trained->Train(train);
      trained->SaveCheckpoint(tspn_checkpoint_);
    }
    // The parity reference restores from the checkpoint exactly like the
    // gateway's deployments do.
    reference_ = eval::ModelRegistry::Global().Create("TSPN-RA", dataset_,
                                                      TinyOptions());
    ASSERT_TRUE(reference_->LoadCheckpoint(tspn_checkpoint_));

    auto mc = eval::ModelRegistry::Global().Create("MC", dataset_, {});
    mc->Train(train);
    mc->SaveCheckpoint(mc_checkpoint_);
  }
  static void TearDownTestSuite() {
    reference_.reset();
    std::remove(tspn_checkpoint_.c_str());
    std::remove(mc_checkpoint_.c_str());
  }

  static eval::ModelOptions TinyOptions() {
    eval::ModelOptions options;
    options.dm = 16;
    options.seed = 3;
    options.image_resolution = 16;
    return options;
  }

  static DeployConfig TspnConfig(int threads = 2) {
    DeployConfig config;
    config.model_name = "TSPN-RA";
    config.dataset = dataset_;
    config.checkpoint_path = tspn_checkpoint_;
    config.model_options = TinyOptions().ToKeyValues();
    config.engine_options = SmallEngine(threads);
    return config;
  }

  static DeployConfig McConfig() {
    DeployConfig config;
    config.model_name = "MC";
    config.dataset = dataset_;
    config.checkpoint_path = mc_checkpoint_;
    config.engine_options = SmallEngine(1);
    return config;
  }

  static void ExpectBitIdentical(const eval::RecommendResponse& a,
                                 const eval::RecommendResponse& b) {
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].poi_id, b.items[i].poi_id) << "rank " << i;
      EXPECT_EQ(a.items[i].score, b.items[i].score) << "rank " << i;
      EXPECT_EQ(a.items[i].tile_index, b.items[i].tile_index) << "rank " << i;
    }
    EXPECT_EQ(a.stages_used, b.stages_used);
    EXPECT_EQ(a.tiles_screened, b.tiles_screened);
  }

  /// A recommend reply frame as a client sees it.
  struct Reply {
    bool ok = false;  ///< a response frame came back
    eval::RecommendResponse response;
    ErrorCode code = ErrorCode::kGeneric;  ///< the error frame's, when !ok
    std::string message;
  };

  static Reply Decode(const std::vector<uint8_t>& frame) {
    Reply reply;
    reply.ok =
        DecodeRecommendResponse(frame, &reply.response) == DecodeStatus::kOk;
    if (!reply.ok) {
      EXPECT_EQ(DecodeErrorFrame(frame, &reply.message, &reply.code),
                DecodeStatus::kOk)
          << "reply is neither a response nor an error frame";
    }
    return reply;
  }

  /// One request through the wire path: encode, ServeFrame, decode.
  static Reply Serve(Gateway& gateway, const std::string& endpoint,
                     const eval::RecommendRequest& request,
                     const AdmissionClass& admission = {}) {
    return Decode(gateway.ServeFrame(
        EncodeRecommendRequest(endpoint, request, admission)));
  }

  /// Serve() for a request that must be answered: an error frame fails the
  /// test (and yields an empty response).
  static eval::RecommendResponse Served(Gateway& gateway,
                                        const std::string& endpoint,
                                        const eval::RecommendRequest& request,
                                        const AdmissionClass& admission = {}) {
    Reply reply = Serve(gateway, endpoint, request, admission);
    EXPECT_TRUE(reply.ok) << reply.message;
    return std::move(reply.response);
  }

  /// Serves `count` top-5 requests one at a time; returns how many came
  /// back with 5 items.
  static int64_t ServeRound(Gateway& gateway, const std::string& endpoint,
                            size_t count) {
    const auto samples = dataset_->Samples(data::Split::kTest);
    int64_t served = 0;
    for (size_t i = 0; i < count; ++i) {
      eval::RecommendRequest request;
      request.sample = samples[i % samples.size()];
      request.top_n = 5;
      if (Served(gateway, endpoint, request).items.size() == 5) ++served;
    }
    return served;
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::unique_ptr<eval::NextPoiModel> reference_;
  static std::string tspn_checkpoint_;
  static std::string mc_checkpoint_;
};

std::shared_ptr<data::CityDataset> GatewayTest::dataset_;
std::unique_ptr<eval::NextPoiModel> GatewayTest::reference_;
std::string GatewayTest::tspn_checkpoint_;
std::string GatewayTest::mc_checkpoint_;

TEST_F(GatewayTest, DeployFailuresAreLoudAndLeaveNoEndpoint) {
  Gateway gateway;
  std::string error;

  DeployConfig config = TspnConfig();
  config.model_name = "NoSuchModel";
  EXPECT_FALSE(gateway.Deploy("a", config, &error));
  EXPECT_NE(error.find("NoSuchModel"), std::string::npos);

  config = TspnConfig();
  config.model_options["not_a_knob"] = "1";
  EXPECT_FALSE(gateway.Deploy("a", config, &error));
  EXPECT_NE(error.find("not_a_knob"), std::string::npos)
      << "unknown keys must be named in the error: " << error;

  config = TspnConfig();
  config.model_options["dm"] = "sixteen";
  EXPECT_FALSE(gateway.Deploy("a", config, &error));
  EXPECT_NE(error.find("dm"), std::string::npos);

  config = TspnConfig();
  config.checkpoint_path = testing::TempDir() + "/does_not_exist.ckpt";
  EXPECT_FALSE(gateway.Deploy("a", config, &error));
  EXPECT_NE(error.find("does_not_exist"), std::string::npos);

  config = TspnConfig();
  config.dataset = nullptr;
  EXPECT_FALSE(gateway.Deploy("a", config, &error));

  EXPECT_FALSE(gateway.Deploy("", TspnConfig(), &error));

  // Names the wire decoder could never address are refused at deploy time.
  EXPECT_FALSE(
      gateway.Deploy(std::string(kMaxEndpointNameLen + 1, 'x'), TspnConfig(),
                     &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos);

  EXPECT_TRUE(gateway.Endpoints().empty());
  const Reply absent = Serve(gateway, "a", eval::RecommendRequest{});
  EXPECT_FALSE(absent.ok);
  EXPECT_EQ(absent.code, ErrorCode::kUnknownEndpoint);
}

TEST_F(GatewayTest, OptionsRoundTripThroughDeploy) {
  // dm/seed/image_resolution must reach the registry factory: a checkpoint
  // saved at dm=16 loads only into a dm=16 model, so a deploy carrying the
  // options as strings succeeds exactly when they round-tripped.
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("ok", TspnConfig(), &error)) << error;

  DeployConfig mismatched = TspnConfig();
  mismatched.model_options["dm"] = "24";  // checkpoint was written at dm=16
  EXPECT_FALSE(gateway.Deploy("mismatched", mismatched, &error));
  EXPECT_NE(error.find("checkpoint"), std::string::npos);

  // Pure ModelOptions round-trip, independent of the gateway.
  eval::ModelOptions parsed;
  ASSERT_TRUE(eval::ModelOptions::FromKeyValues(TinyOptions().ToKeyValues(),
                                                &parsed, &error));
  EXPECT_EQ(parsed.dm, 16);
  EXPECT_EQ(parsed.seed, 3u);
  EXPECT_EQ(parsed.image_resolution, 16);
}

TEST_F(GatewayTest, TwoEndpointsRouteToTheirOwnModels) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("tspn", TspnConfig(), &error)) << error;
  ASSERT_TRUE(gateway.Deploy("mc", McConfig(), &error)) << error;
  EXPECT_TRUE(gateway.Has("tspn"));
  EXPECT_TRUE(gateway.Has("mc"));
  EXPECT_EQ(gateway.Endpoints(), (std::vector<std::string>{"mc", "tspn"}));

  // Duplicate deploys are refused.
  EXPECT_FALSE(gateway.Deploy("tspn", TspnConfig(), &error));
  EXPECT_NE(error.find("already deployed"), std::string::npos);

  auto mc = eval::ModelRegistry::Global().Create("MC", dataset_, {});
  ASSERT_TRUE(mc->LoadCheckpoint(mc_checkpoint_));

  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    eval::RecommendRequest request;
    request.sample = samples[i];
    request.top_n = 10;
    if (i % 2 == 1) request.constraints.exclude_visited = true;
    ExpectBitIdentical(Served(gateway, "tspn", request),
                       reference_->Recommend(request));
    ExpectBitIdentical(Served(gateway, "mc", request), mc->Recommend(request));
  }

  GatewayStats snapshot = gateway.Snapshot();
  EXPECT_EQ(snapshot.endpoints, 2);
  EXPECT_EQ(snapshot.total_completed, 8);
  EXPECT_EQ(snapshot.total_submitted, 8);
  ASSERT_EQ(snapshot.per_endpoint.size(), 2u);
  EXPECT_EQ(snapshot.per_endpoint[0].endpoint, "mc");
  EXPECT_EQ(snapshot.per_endpoint[0].model_name, "MC");
  EXPECT_EQ(snapshot.per_endpoint[1].endpoint, "tspn");
  EXPECT_EQ(snapshot.per_endpoint[1].engine.completed, 4);

  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("tspn", &stats));
  EXPECT_EQ(stats.checkpoint_path, tspn_checkpoint_);
  EXPECT_FALSE(gateway.GetEndpointStats("absent", &stats));
}

TEST_F(GatewayTest, HotSwapSameCheckpointIsBitIdenticalUnderLoad) {
  // The acceptance criterion: swapping an endpoint to the same checkpoint
  // while clients hammer it yields bit-identical rankings before/during/
  // after the swap, with zero dropped or errored requests.
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("live", TspnConfig(4), &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> mismatches{0};
  std::atomic<int> errored{0};
  std::atomic<bool> swap_done{false};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        eval::RecommendRequest request;
        request.sample =
            samples[static_cast<size_t>(c * kPerClient + i) % samples.size()];
        request.top_n = 10;
        if (i % 3 == 1) {
          request.constraints.geo_center = dataset_->profile().bbox.Center();
          request.constraints.geo_radius_km = 3.0;
        }
        const Reply reply = Serve(gateway, "live", request);
        if (!reply.ok) {
          errored.fetch_add(1);
          continue;
        }
        const eval::RecommendResponse& served = reply.response;
        const eval::RecommendResponse direct = reference_->Recommend(request);
        if (served.items.size() != direct.items.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < served.items.size(); ++r) {
          if (served.items[r].poi_id != direct.items[r].poi_id ||
              served.items[r].score != direct.items[r].score) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  // Mid-run hot swaps to the same checkpoint, racing the clients.
  std::thread swapper([&] {
    for (int s = 0; s < 3; ++s) {
      std::string swap_error;
      EXPECT_TRUE(gateway.Swap("live", tspn_checkpoint_, &swap_error))
          << swap_error;
    }
    swap_done.store(true);
  });

  for (std::thread& t : clients) t.join();
  swapper.join();

  EXPECT_TRUE(swap_done.load());
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errored.load(), 0) << "hot swap dropped or errored requests";

  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("live", &stats));
  EXPECT_EQ(stats.swaps, 3);
  // The current deployment's engine only counts post-swap traffic; the
  // fleet never lost a request (none errored), so the swap was transparent.
  GatewayStats snapshot = gateway.Snapshot();
  EXPECT_EQ(snapshot.total_swaps, 3);
}

TEST_F(GatewayTest, SwapFailuresKeepTheOldDeploymentServing) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("live", TspnConfig(), &error)) << error;

  EXPECT_FALSE(gateway.Swap("absent", tspn_checkpoint_, &error));
  EXPECT_NE(error.find("not deployed"), std::string::npos) << error;
  EXPECT_FALSE(
      gateway.Swap("live", testing::TempDir() + "/missing.ckpt", &error));
  EXPECT_NE(error.find("missing.ckpt"), std::string::npos);

  // Still serving on the original weights.
  auto samples = dataset_->Samples(data::Split::kTest);
  eval::RecommendRequest request;
  request.sample = samples[0];
  request.top_n = 5;
  ExpectBitIdentical(Served(gateway, "live", request),
                     reference_->Recommend(request));
  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("live", &stats));
  EXPECT_EQ(stats.swaps, 0);
}

TEST_F(GatewayTest, UndeployDrainsAndRefusesNewTraffic) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("gone-soon", TspnConfig(1), &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  eval::RecommendRequest request;
  request.sample = samples[0];
  request.top_n = 5;
  std::promise<std::vector<uint8_t>> pending;
  gateway.HandleFrameAsync(EncodeRecommendRequest("gone-soon", request),
                           [&pending](std::vector<uint8_t> reply) {
                             pending.set_value(std::move(reply));
                           });
  ASSERT_TRUE(gateway.Undeploy("gone-soon", &error)) << error;

  // The queued request was served before teardown finished.
  const Reply drained = Decode(pending.get_future().get());
  ASSERT_TRUE(drained.ok) << drained.message;
  ExpectBitIdentical(drained.response, reference_->Recommend(request));
  EXPECT_FALSE(gateway.Has("gone-soon"));
  const Reply refused = Serve(gateway, "gone-soon", request);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kUnknownEndpoint);
  EXPECT_FALSE(gateway.Undeploy("gone-soon", &error));
}

TEST_F(GatewayTest, ServeFrameRoundTripsTheWireProtocol) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("wire", TspnConfig(), &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  eval::RecommendRequest request;
  request.sample = samples[0];
  request.top_n = 7;
  request.constraints.exclude_visited = true;

  const std::vector<uint8_t> reply =
      gateway.ServeFrame(EncodeRecommendRequest("wire", request));
  eval::RecommendResponse response;
  ASSERT_EQ(DecodeRecommendResponse(reply, &response), DecodeStatus::kOk)
      << "reply was not a response frame";
  ExpectBitIdentical(response, reference_->Recommend(request));

  // Admission fields do not change the reply bytes.
  AdmissionClass bulk;
  bulk.deadline_ms = 60000;
  bulk.priority = Priority::kBulk;
  EXPECT_EQ(gateway.ServeFrame(EncodeRecommendRequest("wire", request, bulk)),
            reply)
      << "admission fields changed the response";

  // Unknown endpoint -> typed error frame naming the endpoint.
  const std::vector<uint8_t> unknown =
      gateway.ServeFrame(EncodeRecommendRequest("nope", request));
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(unknown, &message, &code), DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kUnknownEndpoint);
  EXPECT_NE(message.find("nope"), std::string::npos);

  // Corrupt request -> kBadFrame error naming the decode failure, not a
  // crash.
  std::vector<uint8_t> corrupt = EncodeRecommendRequest("wire", request);
  corrupt.resize(corrupt.size() / 2);
  ASSERT_EQ(DecodeErrorFrame(gateway.ServeFrame(corrupt), &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kBadFrame);
  EXPECT_NE(message.find("kTruncated"), std::string::npos);

  // A response frame submitted as a request is rejected: it is neither a
  // request nor one of the control frames a server answers.
  ASSERT_EQ(DecodeErrorFrame(gateway.ServeFrame(reply), &message),
            DecodeStatus::kOk);
  EXPECT_NE(message.find("not servable"), std::string::npos);

  // A well-formed frame carrying out-of-range sample indices must come
  // back as an error frame — dataset bounds checks abort the process, so
  // these must never reach a worker thread.
  const std::vector<data::SampleRef> bogus_samples = {
      {100000, 0, 1}, {0, 100000, 1}, {0, 0, 100000}, {-1, 0, 1}, {0, 0, 0}};
  for (const data::SampleRef& sample : bogus_samples) {
    eval::RecommendRequest bogus;
    bogus.sample = sample;
    bogus.top_n = 5;
    ASSERT_EQ(DecodeErrorFrame(
                  gateway.ServeFrame(EncodeRecommendRequest("wire", bogus)),
                  &message),
              DecodeStatus::kOk)
        << sample.user << "/" << sample.traj << "/" << sample.prefix_len;
    EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  }
  eval::RecommendRequest negative_topn;
  negative_topn.sample = samples[0];
  negative_topn.top_n = -1;
  ASSERT_EQ(
      DecodeErrorFrame(
          gateway.ServeFrame(EncodeRecommendRequest("wire", negative_topn)),
          &message),
      DecodeStatus::kOk);
  EXPECT_NE(message.find("top_n"), std::string::npos);

  // The endpoint survived all of it.
  ASSERT_EQ(DecodeRecommendResponse(
                gateway.ServeFrame(EncodeRecommendRequest("wire", request)),
                &response),
            DecodeStatus::kOk);
}

TEST_F(GatewayTest, DeadlineBeyondTheClockIsServedNotShed) {
  // The codec accepts any non-negative deadline_ms; one too far ahead for
  // the serving clock to represent is no deadline, not an instant expiry.
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("wire", TspnConfig(1), &error)) << error;
  eval::RecommendRequest request;
  request.sample = dataset_->Samples(data::Split::kTest).at(0);
  request.top_n = 5;
  for (const int64_t deadline_ms :
       {std::numeric_limits<int64_t>::max(), int64_t{1} << 62}) {
    AdmissionClass admission;
    admission.deadline_ms = deadline_ms;
    const Reply reply = Serve(gateway, "wire", request, admission);
    ASSERT_TRUE(reply.ok) << "deadline_ms " << deadline_ms << ": "
                          << reply.message;
    ExpectBitIdentical(reply.response, reference_->Recommend(request));
  }
}

TEST_F(GatewayTest, NonFiniteFenceGetsInvalidRequestFrame) {
  // The codec accepts any double for the fence fields; a NaN center or an
  // infinite radius must come back as a typed invalid-request error frame
  // instead of reaching the fence compiler, and the endpoint keeps serving.
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("wire", TspnConfig(), &error)) << error;

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  eval::RecommendRequest request;
  request.sample = dataset_->Samples(data::Split::kTest).at(0);
  request.top_n = 5;
  request.constraints.geo_center = dataset_->profile().bbox.Center();
  request.constraints.geo_radius_km = 3.0;

  std::vector<eval::CandidateConstraints> bad_fences(4, request.constraints);
  bad_fences[0].geo_center.lat = nan;
  bad_fences[1].geo_center.lon = nan;
  bad_fences[2].geo_radius_km = inf;
  bad_fences[3].geo_radius_km = nan;
  for (size_t i = 0; i < bad_fences.size(); ++i) {
    eval::RecommendRequest bad = request;
    bad.constraints = bad_fences[i];
    std::string message;
    ErrorCode code = ErrorCode::kGeneric;
    ASSERT_EQ(DecodeErrorFrame(
                  gateway.ServeFrame(EncodeRecommendRequest("wire", bad)),
                  &message, &code),
              DecodeStatus::kOk)
        << "fence " << i;
    EXPECT_EQ(code, ErrorCode::kInvalidRequest) << "fence " << i;
    EXPECT_NE(message.find("finite"), std::string::npos) << message;
  }

  // Itineraries carry the same constraints and the same check.
  plan::ItineraryRequest itinerary;
  itinerary.start = request.sample;
  itinerary.constraints = bad_fences[2];
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(
                gateway.ServeFrame(EncodeItineraryRequest("wire", itinerary)),
                &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kInvalidRequest);
  EXPECT_NE(message.find("finite"), std::string::npos) << message;

  // The endpoint survived, and a finite fence still serves.
  eval::RecommendResponse response;
  ASSERT_EQ(DecodeRecommendResponse(
                gateway.ServeFrame(EncodeRecommendRequest("wire", request)),
                &response),
            DecodeStatus::kOk);
  ExpectBitIdentical(response, reference_->Recommend(request));
}

TEST_F(GatewayTest, LifecycleRacesSubmittersWithoutCrashOrHang) {
  // Deploy/swap/undeploy cycling on two endpoints while client threads
  // fire at both names the whole time: every request must be answered
  // (response or typed error frame), the gateway must never crash. This is
  // the TSan-gated concurrency test.
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("a", TspnConfig(2), &error)) << error;
  ASSERT_TRUE(gateway.Deploy("b", McConfig(), &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  std::atomic<bool> stop{false};
  std::atomic<int> resolved{0};
  std::atomic<int> clean_errors{0};

  std::vector<std::thread> submitters;
  for (int c = 0; c < 3; ++c) {
    submitters.emplace_back([&, c] {
      int i = 0;
      while (!stop.load()) {
        eval::RecommendRequest request;
        request.sample = samples[static_cast<size_t>(i++) % samples.size()];
        request.top_n = 5;
        const char* endpoint = (c + i) % 2 == 0 ? "a" : "b";
        if (Serve(gateway, endpoint, request).ok) {
          resolved.fetch_add(1);
        } else {
          clean_errors.fetch_add(1);  // undeployed window: acceptable
        }
      }
    });
  }

  std::thread lifecycle([&] {
    for (int cycle = 0; cycle < 4; ++cycle) {
      std::string e;
      EXPECT_TRUE(gateway.Swap("a", tspn_checkpoint_, &e)) << e;
      EXPECT_TRUE(gateway.Undeploy("b", &e)) << e;
      EXPECT_TRUE(gateway.Deploy("b", McConfig(), &e)) << e;
    }
  });

  lifecycle.join();
  stop.store(true);
  for (std::thread& t : submitters) t.join();

  EXPECT_GT(resolved.load(), 0);
  // Undeploy drains accepted requests, so errors can only come from frames
  // that arrived while "b" was absent — never from dropped requests.
  GatewayStats snapshot = gateway.Snapshot();
  EXPECT_EQ(snapshot.endpoints, 2);
}

TEST_F(GatewayTest, SwapFoldsRetiringCountersExactlyOnce) {
  // The retiring generation folds twice — eagerly at swap time, finally
  // from its destructor — and the lifetime totals must come out exact:
  // neither double-counted (both folds adding the same delta) nor lagging
  // (a generation's history lost until teardown).
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("fold", TspnConfig(1), &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  auto serve_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      eval::RecommendRequest request;
      request.sample = samples[static_cast<size_t>(i) % samples.size()];
      request.top_n = 5;
      Served(gateway, "fold", request);
    }
  };

  serve_n(2);
  ASSERT_TRUE(gateway.Swap("fold", tspn_checkpoint_, &error)) << error;
  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("fold", &stats));
  EXPECT_EQ(stats.lifetime_completed, 2);
  EXPECT_EQ(stats.lifetime_submitted, 2);
  EXPECT_EQ(stats.engine.completed, 0) << "window counters must reset on swap";

  serve_n(3);
  ASSERT_TRUE(gateway.Swap("fold", tspn_checkpoint_, &error)) << error;
  serve_n(1);
  ASSERT_TRUE(gateway.GetEndpointStats("fold", &stats));
  EXPECT_EQ(stats.lifetime_completed, 6);
  EXPECT_EQ(stats.lifetime_submitted, 6);
  EXPECT_EQ(stats.swaps, 2);

  GatewayStats snapshot = gateway.Snapshot();
  EXPECT_EQ(snapshot.total_completed, 6);
  EXPECT_EQ(snapshot.total_submitted, 6);
}

TEST_F(GatewayTest, CumulativeStatsSurviveSwapsAndQpsDoesNotReset) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", TspnConfig()));
  constexpr int64_t kFirst = 12;
  constexpr int64_t kSecond = 8;
  ASSERT_EQ(ServeRound(gateway, "city", kFirst), kFirst);

  EndpointStats before;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &before));
  EXPECT_EQ(before.engine.completed, kFirst);
  EXPECT_EQ(before.lifetime_completed, kFirst);

  // With no in-flight traffic, the old deployment drains and folds its
  // counters before Swap returns.
  std::string error;
  ASSERT_TRUE(gateway.Swap("city", tspn_checkpoint_, &error)) << error;
  ASSERT_EQ(ServeRound(gateway, "city", kSecond), kSecond);

  EndpointStats after;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &after));
  // Window: the fresh deployment only.
  EXPECT_EQ(after.engine.completed, kSecond);
  EXPECT_LT(after.window_uptime_seconds, after.uptime_seconds);
  // Lifetime: both generations — the ROADMAP qps fix.
  EXPECT_EQ(after.lifetime_completed, kFirst + kSecond);
  EXPECT_EQ(after.lifetime_submitted, kFirst + kSecond);
  EXPECT_GE(after.lifetime_batches, after.engine.batches);
  EXPECT_GT(after.qps, 0.0);
  EXPECT_GE(after.uptime_seconds, before.uptime_seconds);

  // Fleet totals are lifetime-scoped: they must not dip below the
  // pre-swap completed count.
  GatewayStats snapshot = gateway.Snapshot();
  EXPECT_EQ(snapshot.total_completed, kFirst + kSecond);
  EXPECT_EQ(snapshot.total_swaps, 1);

  // Undeploy ends the lifetime; a fresh deploy of the name starts over.
  ASSERT_TRUE(gateway.Undeploy("city"));
  ASSERT_TRUE(gateway.Deploy("city", TspnConfig()));
  ASSERT_EQ(ServeRound(gateway, "city", 2), 2);
  EndpointStats fresh;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &fresh));
  EXPECT_EQ(fresh.lifetime_completed, 2);
  EXPECT_EQ(fresh.swaps, 0);
}

TEST_F(GatewayTest, DegradedEndpointShedsLowClassesAndServesShallower) {
  // Force the degraded state on from the first request: enter at depth 0
  // (high-water 0%) and never leave (negative low-water). Background
  // traffic is shed by class; interactive traffic is served with the
  // ranking depth clamped and the stage-1 screen capped.
  Gateway gateway;
  std::string error;
  DeployConfig config = TspnConfig(1);
  config.overload.degrade_high_pct = 0;
  config.overload.degrade_low_pct = -1;
  config.overload.degraded_top_n = 2;
  config.overload.degraded_max_tiles = 4;
  config.overload.shed_priority_at_or_below = 0;  // shed background only
  ASSERT_TRUE(gateway.Deploy("hot", config, &error)) << error;

  auto samples = dataset_->Samples(data::Split::kTest);
  eval::RecommendRequest request;
  request.sample = samples[0];
  request.top_n = 10;

  AdmissionClass background;
  background.priority = Priority::kBackground;
  const Reply shed = Serve(gateway, "hot", request, background);
  EXPECT_FALSE(shed.ok) << "background request served on a degraded endpoint";
  EXPECT_EQ(shed.code, ErrorCode::kShedCapacity);
  EXPECT_NE(shed.message.find("degraded"), std::string::npos);

  const eval::RecommendResponse shallow =
      Served(gateway, "hot", request, AdmissionClass{});
  EXPECT_LE(shallow.items.size(), 2u) << "degraded top_n clamp not applied";
  EXPECT_LE(shallow.tiles_screened, 4) << "degraded stage-1 cap not applied";

  // Bulk sits above the shed threshold: shaped, not shed.
  AdmissionClass bulk;
  bulk.priority = Priority::kBulk;
  EXPECT_LE(Served(gateway, "hot", request, bulk).items.size(), 2u);

  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("hot", &stats));
  EXPECT_TRUE(stats.degraded_now);
  EXPECT_EQ(stats.degraded, 2);       // the two shaped-and-served requests
  EXPECT_EQ(stats.shed_capacity, 1);  // the class shed
  EXPECT_EQ(stats.lifetime_rejected, 1);
  EXPECT_EQ(stats.lifetime_completed, 2);

  // The class shed folds into the lifetime totals across a swap, too.
  ASSERT_TRUE(gateway.Swap("hot", tspn_checkpoint_, &error)) << error;
  ASSERT_TRUE(gateway.GetEndpointStats("hot", &stats));
  EXPECT_EQ(stats.shed_capacity, 1);
  EXPECT_EQ(stats.degraded, 2);
}

TEST_F(GatewayTest, ItineraryFramesServeEndToEnd) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("wire", TspnConfig(), &error)) << error;

  plan::ItineraryRequest request;
  request.start = dataset_->Samples(data::Split::kTest).at(0);
  request.k_stops = 2;
  request.time_budget_hours = 12.0;

  const std::vector<uint8_t> frame = EncodeItineraryRequest("wire", request);
  const std::vector<uint8_t> reply = gateway.ServeFrame(frame);
  FrameType reply_type = FrameType::kRequest;
  ASSERT_EQ(PeekFrameType(reply, &reply_type), DecodeStatus::kOk);
  ASSERT_EQ(reply_type, FrameType::kItineraryResponse);

  plan::ItineraryResponse wired;
  ASSERT_EQ(DecodeItineraryResponse(reply, &wired), DecodeStatus::kOk);
  ASSERT_FALSE(wired.plans.empty());
  EXPECT_GT(wired.expansions, 0);

  // Parity: the gateway's planner (scoring through the inference engine)
  // must match a reference planner scoring the restored checkpoint via
  // RecommendBatch directly.
  plan::ItineraryPlanner reference_planner(*reference_, dataset_,
                                           plan::PlannerOptions{});
  plan::ItineraryResponse expected;
  ASSERT_TRUE(reference_planner.Plan(request, &expected, &error)) << error;
  ASSERT_EQ(wired.plans.size(), expected.plans.size());
  for (size_t p = 0; p < expected.plans.size(); ++p) {
    ASSERT_EQ(wired.plans[p].stops.size(), expected.plans[p].stops.size());
    for (size_t s = 0; s < expected.plans[p].stops.size(); ++s) {
      EXPECT_EQ(wired.plans[p].stops[s].poi_id,
                expected.plans[p].stops[s].poi_id);
      EXPECT_EQ(wired.plans[p].stops[s].model_score,
                expected.plans[p].stops[s].model_score);
    }
    EXPECT_EQ(wired.plans[p].total_score, expected.plans[p].total_score);
    EXPECT_EQ(wired.plans[p].total_km, expected.plans[p].total_km);
  }

  // The async transport path must produce the identical reply frame.
  std::promise<std::vector<uint8_t>> async_reply;
  gateway.HandleFrameAsync(frame, [&async_reply](std::vector<uint8_t> bytes) {
    async_reply.set_value(std::move(bytes));
  });
  EXPECT_EQ(async_reply.get_future().get(), reply);
}

TEST_F(GatewayTest, ItineraryFrameErrorsCarryTypedCodes) {
  Gateway gateway;
  std::string error;
  ASSERT_TRUE(gateway.Deploy("wire", TspnConfig(), &error)) << error;

  plan::ItineraryRequest request;
  request.start = dataset_->Samples(data::Split::kTest).at(0);

  std::string message;
  ErrorCode code = ErrorCode::kGeneric;

  // Unknown endpoint.
  ASSERT_EQ(
      DecodeErrorFrame(
          gateway.ServeFrame(EncodeItineraryRequest("nope", request)),
          &message, &code),
      DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kUnknownEndpoint);

  // Valid frame, unservable request (k_stops out of range is caught by the
  // codec, so use a sample index outside the dataset instead).
  plan::ItineraryRequest bogus = request;
  bogus.start.user = 1 << 20;
  ASSERT_EQ(DecodeErrorFrame(
                gateway.ServeFrame(EncodeItineraryRequest("wire", bogus)),
                &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kInvalidRequest);
  EXPECT_EQ(message.rfind("invalid request:", 0), 0u) << message;

  // A truncated itinerary frame cannot even be typed (the header length no
  // longer matches), so it gets the recommend path's bad-frame reply.
  std::vector<uint8_t> corrupt = EncodeItineraryRequest("wire", request);
  corrupt.resize(corrupt.size() - 3);
  ASSERT_EQ(DecodeErrorFrame(gateway.ServeFrame(corrupt), &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kBadFrame);
  EXPECT_EQ(message.rfind("bad request frame:", 0), 0u) << message;

  // An itinerary frame whose *payload* is malformed (bad flag byte) is
  // typed fine and gets the itinerary-specific bad-frame code.
  std::vector<uint8_t> bad_flag = EncodeItineraryRequest("wire", request);
  const size_t k_stops_offset = 13 + 4 + 4 + 3 * 4;  // header, len, "wire"
  const size_t return_flag_offset = k_stops_offset + 4 + 3 * 8 + 8;
  bad_flag[return_flag_offset] = 7;
  ASSERT_EQ(DecodeErrorFrame(gateway.ServeFrame(bad_flag), &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kBadFrame);
  EXPECT_EQ(message.rfind("bad itinerary request frame:", 0), 0u) << message;

  // Undeployed gateway behaves like unknown endpoint, not a crash.
  ASSERT_TRUE(gateway.Undeploy("wire", &error)) << error;
  ASSERT_EQ(
      DecodeErrorFrame(
          gateway.ServeFrame(EncodeItineraryRequest("wire", request)),
          &message, &code),
      DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kUnknownEndpoint);
}

TEST_F(GatewayTest, ItineraryPlanWorkersAreCapped) {
  // Each itinerary frame holds a plan worker thread until its plan ends. A
  // client pipelining itinerary frames must meet a shed at the cap instead
  // of making the gateway start a thread per frame. The gated model holds
  // every plan in its first rollout wave; this test makes the gateway start
  // kMaxPlanWorkers + 1 plan threads in all.
  PlanGate().Close();
  eval::ModelRegistry::Global().Register(
      "GatewayTestGated",
      [](std::shared_ptr<const data::CityDataset>, const eval::ModelOptions&) {
        return std::make_unique<GatedModel>();
      });
  Gateway gateway;
  DeployConfig config;
  config.model_name = "GatewayTestGated";
  config.dataset = dataset_;
  config.engine_options = SmallEngine(1);
  std::string error;
  ASSERT_TRUE(gateway.Deploy("gated", config, &error)) << error;
  // Destroyed before the gateway: a failed assertion must not leave its
  // destructor joining plans that wait on a closed gate.
  struct OpenGateOnExit {
    ~OpenGateOnExit() { PlanGate().Open(); }
  } open_gate_on_exit;

  plan::ItineraryRequest request;
  request.start = dataset_->Samples(data::Split::kTest).at(0);
  request.k_stops = 2;
  request.time_budget_hours = 12.0;
  const std::vector<uint8_t> frame = EncodeItineraryRequest("gated", request);

  auto mutex = std::make_shared<std::mutex>();
  auto replies = std::make_shared<std::vector<std::vector<uint8_t>>>();
  auto replied = std::make_shared<std::condition_variable>();
  for (size_t i = 0; i < Gateway::kMaxPlanWorkers; ++i) {
    gateway.HandleFrameAsync(frame, [=](std::vector<uint8_t> reply) {
      std::lock_guard<std::mutex> lock(*mutex);
      replies->push_back(std::move(reply));
      replied->notify_all();
    });
  }

  // At the cap: the next frame is shed on the calling thread.
  std::vector<uint8_t> shed_reply;
  gateway.HandleFrameAsync(frame, [&shed_reply](std::vector<uint8_t> reply) {
    shed_reply = std::move(reply);
  });
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(shed_reply, &message, &code), DecodeStatus::kOk)
      << "the frame past the cap was not shed synchronously";
  EXPECT_EQ(code, ErrorCode::kShedCapacity);
  {
    std::lock_guard<std::mutex> lock(*mutex);
    EXPECT_TRUE(replies->empty()) << "a gated plan finished early";
  }

  PlanGate().Open();
  {
    std::unique_lock<std::mutex> lock(*mutex);
    ASSERT_TRUE(replied->wait_for(lock, std::chrono::seconds(60), [&] {
      return replies->size() == Gateway::kMaxPlanWorkers;
    }));
    for (const std::vector<uint8_t>& reply : *replies) {
      FrameType type = FrameType::kRequest;
      ASSERT_EQ(PeekFrameType(reply, &type), DecodeStatus::kOk);
      EXPECT_EQ(type, FrameType::kItineraryResponse);
    }
  }

  // Released, the same frame is planned again. A worker marks itself
  // finished just after its reply, so a shed here can only mean the
  // workers are still returning: retry (a shed starts no thread).
  FrameType type = FrameType::kError;
  for (int attempt = 0; attempt < 5000 && type != FrameType::kItineraryResponse;
       ++attempt) {
    const std::vector<uint8_t> reply = gateway.ServeFrame(frame);
    ASSERT_EQ(PeekFrameType(reply, &type), DecodeStatus::kOk);
    if (type == FrameType::kError) {
      ASSERT_EQ(DecodeErrorFrame(reply, &message, &code), DecodeStatus::kOk);
      ASSERT_EQ(code, ErrorCode::kShedCapacity) << message;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(type, FrameType::kItineraryResponse);
}

}  // namespace
}  // namespace tspn::serve
