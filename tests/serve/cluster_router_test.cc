// ShardRouter integration tests over real shard processes-in-miniature
// (Gateway + FrameServer on unix-domain sockets): bit-identical parity with
// direct shard access, local ping/stats answering, per-endpoint rate
// limiting, failover past a dead shard, typed kShardUnavailable when every
// replica is down, FrameClient auto-reconnect, and the shard-death
// mid-pipeline suite the TSan CI job runs (every caller answered, no hangs).

#include "serve/cluster/shard_router.h"

#include <atomic>
#include <cstdio>
#include <unistd.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"

namespace tspn::serve::cluster {
namespace {

EngineOptions SmallEngine() {
  EngineOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 256;
  options.max_batch = 32;
  options.coalesce_window_us = 100;
  return options;
}

class ClusterRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
    checkpoint_ = testing::TempDir() + "/cluster_router_tspn.ckpt";
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;
    auto trained =
        eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, TinyOptions());
    trained->Train(train);
    trained->SaveCheckpoint(checkpoint_);
    samples_ = dataset_->Samples(data::Split::kTest);
    ASSERT_FALSE(samples_.empty());
  }
  static void TearDownTestSuite() { std::remove(checkpoint_.c_str()); }

  static eval::ModelOptions TinyOptions() {
    eval::ModelOptions options;
    options.dm = 16;
    options.seed = 3;
    options.image_resolution = 16;
    return options;
  }

  static DeployConfig Config() {
    DeployConfig config;
    config.model_name = "TSPN-RA";
    config.dataset = dataset_;
    config.checkpoint_path = checkpoint_;
    config.model_options = TinyOptions().ToKeyValues();
    config.engine_options = SmallEngine();
    return config;
  }

  /// One shard-in-miniature: a gateway plus its frame server listening on a
  /// unix-domain socket — process isolation is the demo's job
  /// (examples/cluster_demo.cpp); the routing logic is identical.
  struct Shard {
    Gateway gateway;
    std::unique_ptr<FrameServer> server;

    bool Start(const std::string& uds_path) {
      if (!gateway.Deploy("city", Config())) return false;
      FrameServerOptions options;
      options.io_threads = 1;
      options.unix_path = uds_path;
      server = std::make_unique<FrameServer>(gateway, options);
      return server->Start();
    }
  };

  static std::string UdsPath(const std::string& tag) {
    return testing::TempDir() + "/crt_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
  }

  static std::vector<std::unique_ptr<Shard>> StartShards(
      size_t count, const std::string& tag) {
    std::vector<std::unique_ptr<Shard>> shards;
    for (size_t i = 0; i < count; ++i) {
      auto shard = std::make_unique<Shard>();
      EXPECT_TRUE(shard->Start(UdsPath(tag + std::to_string(i))));
      shards.push_back(std::move(shard));
    }
    return shards;
  }

  static RouterOptions RouterFor(
      const std::vector<std::unique_ptr<Shard>>& shards, int replication) {
    RouterOptions options;
    for (size_t i = 0; i < shards.size(); ++i) {
      options.shards.push_back(
          ShardConfig{"shard" + std::to_string(i), shards[i]->server->address()});
    }
    options.replication = replication;
    options.ping_interval_ms = 0;  // deterministic: breaker driven by traffic
    options.call_timeout_ms = 10000;
    options.breaker.failure_threshold = 1;
    options.breaker.open_cooldown_ms = 50;
    options.reconnect_attempts = 0;
    return options;
  }

  static std::vector<uint8_t> RequestFrame(size_t sample_index, int64_t top_n) {
    eval::RecommendRequest request;
    request.sample = samples_[sample_index % samples_.size()];
    request.top_n = top_n;
    return EncodeRecommendRequest("city", request);
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::string checkpoint_;
  static std::vector<data::SampleRef> samples_;
};

std::shared_ptr<data::CityDataset> ClusterRouterTest::dataset_;
std::string ClusterRouterTest::checkpoint_;
std::vector<data::SampleRef> ClusterRouterTest::samples_;

TEST_F(ClusterRouterTest, RoutedResponsesAreBitIdenticalToDirectShardAccess) {
  auto shards = StartShards(1, "parity");
  ShardRouter router(RouterFor(shards, 1));
  ASSERT_TRUE(router.Start());

  // The acceptance bar: a frame without a deadline is forwarded verbatim
  // and its reply returned verbatim — byte-for-byte what the shard itself would serve.
  for (size_t i = 0; i < 6; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(i, 10);
    EXPECT_EQ(router.Route(frame), shards[0]->gateway.ServeFrame(frame))
        << "request " << i;
  }

  // Same parity through the router's own socket front-end.
  FrameServerOptions front_options;
  front_options.io_threads = 1;
  FrameServer front(router, front_options);
  ASSERT_TRUE(front.Start());
  FrameClient client;
  ASSERT_TRUE(client.Connect(front.address()));
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(i, 5);
    EXPECT_EQ(client.Call(frame), shards[0]->gateway.ServeFrame(frame))
        << "request " << i;
  }
  front.Stop();
  router.Stop();
}

TEST_F(ClusterRouterTest, ItineraryFramesForwardVerbatimWithBitIdenticalReplies) {
  auto shards = StartShards(2, "itin");
  ShardRouter router(RouterFor(shards, 1));
  ASSERT_TRUE(router.Start());

  // An itinerary frame rides the same (endpoint, user) routing key as
  // recommendations: forwarded verbatim, reply returned verbatim. With
  // identical checkpoints on every shard, whichever shard the ring picks
  // serves the same bytes — compare against both.
  for (size_t i = 0; i < 4; ++i) {
    plan::ItineraryRequest request;
    request.start = samples_[i % samples_.size()];
    request.k_stops = 2;
    request.time_budget_hours = 10.0;
    const std::vector<uint8_t> frame = EncodeItineraryRequest("city", request);

    const std::vector<uint8_t> routed = router.Route(frame);
    FrameType type = FrameType::kRequest;
    ASSERT_EQ(PeekFrameType(routed, &type), DecodeStatus::kOk);
    EXPECT_EQ(type, FrameType::kItineraryResponse);
    EXPECT_EQ(routed, shards[0]->gateway.ServeFrame(frame)) << "request " << i;
  }

  // Typed error replies (unknown endpoint) also pass through verbatim
  // instead of tripping the failover loop.
  plan::ItineraryRequest request;
  request.start = samples_[0];
  const std::vector<uint8_t> bad_endpoint =
      EncodeItineraryRequest("nope", request);
  const std::vector<uint8_t> reply = router.Route(bad_endpoint);
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(reply, &message, &code), DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kUnknownEndpoint);
  EXPECT_EQ(reply, shards[0]->gateway.ServeFrame(bad_endpoint));

  const ClusterStats stats = router.Snapshot();
  EXPECT_EQ(stats.frames_routed, 5);
  router.Stop();
}

TEST_F(ClusterRouterTest, DeadlineCarryingRequestsAreServed) {
  auto shards = StartShards(1, "deadline");
  ShardRouter router(RouterFor(shards, 1));
  ASSERT_TRUE(router.Start());

  eval::RecommendRequest request;
  request.sample = samples_[0];
  request.top_n = 5;
  AdmissionClass admission;
  admission.deadline_ms = 5000;
  const std::vector<uint8_t> reply =
      router.Route(EncodeRecommendRequest("city", request, admission));
  eval::RecommendResponse response;
  ASSERT_EQ(DecodeRecommendResponse(reply, &response), DecodeStatus::kOk);
  EXPECT_EQ(response.items.size(), 5u);
  router.Stop();
}

TEST_F(ClusterRouterTest, PingAndStatsAreAnsweredByTheRouter) {
  auto shards = StartShards(2, "stats");
  ShardRouter router(RouterFor(shards, 1));
  ASSERT_TRUE(router.Start());

  uint64_t nonce = 0;
  ASSERT_EQ(DecodePongFrame(router.Route(EncodePingFrame(77)), &nonce),
            DecodeStatus::kOk);
  EXPECT_EQ(nonce, 77u);

  // Drive some traffic so the roll-up has something to count.
  constexpr size_t kRequests = 8;
  for (size_t i = 0; i < kRequests; ++i) {
    eval::RecommendResponse response;
    ASSERT_EQ(DecodeRecommendResponse(router.Route(RequestFrame(i, 3)),
                                      &response),
              DecodeStatus::kOk);
  }

  WireStatsSnapshot rollup;
  ASSERT_EQ(DecodeStatsResponse(router.Route(EncodeStatsRequest()), &rollup),
            DecodeStatus::kOk);
  ASSERT_EQ(rollup.endpoints.size(), 1u);  // "city" merged across both shards
  EXPECT_EQ(rollup.endpoints[0].endpoint, "city");
  EXPECT_EQ(rollup.endpoints[0].lifetime_completed,
            static_cast<int64_t>(kRequests));

  const ClusterStats stats = router.Snapshot();
  EXPECT_EQ(stats.frames_routed, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.responses_ok, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.shards.size(), 2u);
  router.Stop();
}

TEST_F(ClusterRouterTest, EndpointTokenBucketRefusesWithTypedRateLimited) {
  auto shards = StartShards(1, "rate");
  RouterOptions options = RouterFor(shards, 1);
  options.rate_limit_qps = 0.001;  // refill negligible within the test
  options.rate_limit_burst = 2;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  eval::RecommendRequest request;
  request.sample = samples_[0];
  request.top_n = 3;
  const std::vector<uint8_t> frame = EncodeRecommendRequest("city", request);

  for (int i = 0; i < 2; ++i) {
    eval::RecommendResponse response;
    EXPECT_EQ(DecodeRecommendResponse(router.Route(frame), &response),
              DecodeStatus::kOk)
        << "burst request " << i;
  }
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(router.Route(frame), &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kRateLimited);
  EXPECT_EQ(router.Snapshot().rate_limited, 1);
  router.Stop();
}

TEST_F(ClusterRouterTest, FailoverMasksADeadShardWithReplication) {
  auto shards = StartShards(2, "failover");
  ShardRouter router(RouterFor(shards, /*replication=*/2));
  ASSERT_TRUE(router.Start());

  constexpr size_t kUsers = 8;
  for (size_t i = 0; i < kUsers; ++i) {
    eval::RecommendResponse response;
    ASSERT_EQ(
        DecodeRecommendResponse(router.Route(RequestFrame(i, 4)), &response),
        DecodeStatus::kOk)
        << "warm request " << i;
  }

  // Kill shard 0 (its listener goes away and pooled connections die).
  shards[0]->server->Stop();

  // Every user keeps being served: keys owned by shard0 fail over to the
  // replica, bit-identical to what the survivor would serve directly.
  for (size_t i = 0; i < kUsers; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(i, 4);
    EXPECT_EQ(router.Route(frame), shards[1]->gateway.ServeFrame(frame))
        << "post-death request " << i;
  }
  const ClusterStats stats = router.Snapshot();
  EXPECT_GT(stats.failovers, 0);
  EXPECT_EQ(stats.responses_ok, static_cast<int64_t>(2 * kUsers));
  router.Stop();
}

TEST_F(ClusterRouterTest, AllReplicasDownYieldsTypedShardUnavailable) {
  RouterOptions options;
  options.shards.push_back(ShardConfig{
      "ghost", common::SocketAddress::Unix(UdsPath("nonexistent"))});
  options.ping_interval_ms = 0;
  options.breaker.failure_threshold = 100;  // keep the breaker out of the way
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(router.Route(RequestFrame(0, 3)), &message, &code),
            DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kShardUnavailable);
  EXPECT_NE(message.find("unavailable"), std::string::npos);
  EXPECT_GE(router.Snapshot().shard_unavailable, 1);
  router.Stop();
}

TEST_F(ClusterRouterTest, StoppedRouterAnswersInsteadOfHanging) {
  auto shards = StartShards(1, "stopped");
  ShardRouter router(RouterFor(shards, 1));
  ASSERT_TRUE(router.Start());
  router.Stop();

  std::vector<uint8_t> reply;
  router.HandleFrameAsync(RequestFrame(0, 3),
                          [&](std::vector<uint8_t> bytes) { reply = bytes; });
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(reply, &message, &code), DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kShardUnavailable);
}

TEST_F(ClusterRouterTest, FrameClientAutoReconnectsAfterServerRestart) {
  const std::string path = UdsPath("reconnect");
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config()));
  FrameServerOptions options;
  options.io_threads = 1;
  options.unix_path = path;
  auto server = std::make_unique<FrameServer>(gateway, options);
  ASSERT_TRUE(server->Start());

  FrameClient client;
  client.set_auto_reconnect(/*max_attempts=*/5, /*initial_backoff_ms=*/10);
  client.set_recv_timeout_ms(10000);
  ASSERT_TRUE(client.Connect(common::SocketAddress::Unix(path)));
  const std::vector<uint8_t> frame = RequestFrame(0, 3);
  ASSERT_FALSE(client.Call(frame).empty());

  // Bounce the server on the same path. The client's next sends hit the
  // dead connection, redial, and retry — at most one call is lost to an
  // in-flight reply that died with the old connection.
  server->Stop();
  server = std::make_unique<FrameServer>(gateway, options);
  ASSERT_TRUE(server->Start());

  bool recovered = false;
  for (int attempt = 0; attempt < 3 && !recovered; ++attempt) {
    recovered = !client.Call(frame).empty();
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client.reconnects(), 1);
  server->Stop();
}

// The shard-death satellite the TSan job runs: pipelining callers keep
// hammering the router's socket front-end while a shard dies mid-run.
// Replication 2 masks the death; the bar is that EVERY request gets a
// reply frame (response or typed error) — zero hung callers.
TEST_F(ClusterRouterTest, ShardDeathMidPipelineLeavesNoCallerHanging) {
  auto shards = StartShards(2, "midpipe");
  RouterOptions options = RouterFor(shards, /*replication=*/2);
  options.worker_threads = 4;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  FrameServerOptions front_options;
  front_options.io_threads = 2;
  FrameServer front(router, front_options);
  ASSERT_TRUE(front.Start());

  constexpr int kThreads = 4;
  constexpr int kBatches = 6;
  constexpr int kPipeline = 4;  // frames in flight per batch
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> typed_errors{0};
  std::atomic<int64_t> failures{0};

  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      FrameClient client;
      client.set_recv_timeout_ms(20000);  // a hang, not a slow reply, fails
      if (!client.Connect(front.address())) {
        failures.fetch_add(kBatches * kPipeline);
        return;
      }
      for (int batch = 0; batch < kBatches; ++batch) {
        int sent = 0;
        for (int i = 0; i < kPipeline; ++i) {
          if (client.SendFrame(RequestFrame(
                  static_cast<size_t>(t * 100 + batch * kPipeline + i), 3))) {
            ++sent;
          } else {
            failures.fetch_add(1);
          }
        }
        for (int i = 0; i < sent; ++i) {
          const FrameClient::Reply reply = client.ReceiveTyped();
          switch (reply.kind) {
            case FrameClient::Reply::Kind::kResponse:
              responses.fetch_add(1);
              break;
            case FrameClient::Reply::Kind::kServerError:
              typed_errors.fetch_add(1);
              break;
            default:
              failures.fetch_add(1);
              break;
          }
        }
      }
    });
  }

  // Let the pipeline get going, then kill a shard under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  shards[0]->server->Stop();

  for (std::thread& caller : callers) caller.join();

  // Reconciliation: every frame sent got exactly one reply; none hung and
  // none died on transport (the router synthesizes typed errors instead).
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(responses.load() + typed_errors.load(),
            static_cast<int64_t>(kThreads * kBatches * kPipeline));
  // Replication 2 should mask the death entirely for steady-state traffic;
  // allow typed errors (a request caught exactly at the kill) but require
  // the overwhelming majority to be served.
  EXPECT_GT(responses.load(),
            static_cast<int64_t>(kThreads * kBatches * kPipeline) / 2);

  front.Stop();
  router.Stop();
}

}  // namespace
}  // namespace tspn::serve::cluster
