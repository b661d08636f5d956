// ShardRouter integration tests over real shard processes-in-miniature
// (Gateway + FrameServer on unix-domain sockets): bit-identical parity with
// direct shard access (one frame at a time and pipelined), frames pipelined
// onto one shard connection, local ping/stats answering, per-endpoint rate
// limiting, failover past a dead shard, typed kShardUnavailable when every
// replica is down, redial after a shard restart, the "no caller ever hangs"
// suite over a stalled shard (health pings and a hanging dial included),
// and the shard-death mid-pipeline suite the TSan CI job runs (every caller
// answered, no hangs).
#include "serve/cluster/shard_router.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <dirent.h>
#include <future>
#include <memory>
#include <mutex>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/net.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"

namespace tspn::serve::cluster {
namespace {

EngineOptions SmallEngine(int64_t coalesce_window_us = 100) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 256;
  options.max_batch = 32;
  options.coalesce_window_us = coalesce_window_us;
  return options;
}

using Clock = std::chrono::steady_clock;

/// The blocking form of HandleFrameAsync, for tests that route one frame
/// at a time.
std::vector<uint8_t> Route(ShardRouter& router,
                           const std::vector<uint8_t>& frame) {
  auto reply = std::make_shared<std::promise<std::vector<uint8_t>>>();
  std::future<std::vector<uint8_t>> ready = reply->get_future();
  router.HandleFrameAsync(frame, [reply](std::vector<uint8_t> bytes) {
    reply->set_value(std::move(bytes));
  });
  return ready.get();
}

ErrorCode ErrorCodeOf(const std::vector<uint8_t>& reply) {
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  EXPECT_EQ(DecodeErrorFrame(reply, &message, &code), DecodeStatus::kOk);
  return code;
}

/// Threads of this process, from /proc/self/task.
int ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// A stalled shard: a FrameHandler that holds every request frame's
/// callback until Release, and answers pings and stats polls at once.
class HoldingHandler : public FrameHandler {
 public:
  ~HoldingHandler() override { Release(); }

  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override {
    FrameType type = FrameType::kRequest;
    PeekFrameType(frame, &type);
    if (type == FrameType::kPing) {
      uint64_t nonce = 0;
      DecodePingFrame(frame, &nonce);
      done(EncodePongFrame(nonce));
      return;
    }
    if (type == FrameType::kStatsRequest) {
      done(EncodeStatsResponse(WireStatsSnapshot{}));
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    held_.push_back(std::move(done));
    cv_.notify_all();
  }

  /// Waits until `count` frames are held; false after `timeout`.
  bool AwaitHeld(size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout,
                        [&] { return held_.size() >= count; });
  }

  /// Answers every held frame late (to a connection the router has
  /// usually closed by then).
  void Release() {
    std::vector<FrameCallback> held;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      held.swap(held_);
    }
    for (FrameCallback& done : held) {
      done(EncodeErrorFrame("released", ErrorCode::kGeneric));
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<FrameCallback> held_;
};

/// Collects the replies of frames routed asynchronously.
class Replies {
 public:
  FrameHandler::FrameCallback Slot(size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (replies_.size() <= index) replies_.resize(index + 1);
    return [this, index](std::vector<uint8_t> reply) {
      std::lock_guard<std::mutex> lock(mutex_);
      replies_[index] = std::move(reply);
      ++answered_;
      cv_.notify_all();
    };
  }

  size_t answered() {
    std::lock_guard<std::mutex> lock(mutex_);
    return answered_;
  }

  /// Waits until `count` replies arrived; false after `timeout`.
  bool Await(size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return answered_ >= count; });
  }

  std::vector<uint8_t> at(size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_[index];
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<uint8_t>> replies_;
  size_t answered_ = 0;
};

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

  static DeployConfig Config(EngineOptions engine = SmallEngine()) {
    DeployConfig config;
    config.model_name = "TSPN-RA";
    config.dataset = dataset_;
    config.checkpoint_path = checkpoint_;
    config.model_options = TinyOptions().ToKeyValues();
    config.engine_options = engine;
    return config;
  }

  /// One shard-in-miniature: a gateway plus its frame server listening on a
  /// unix-domain socket — process isolation is the demo's job
  /// (examples/cluster_demo.cpp); the routing logic is identical.
  struct Shard {
    Gateway gateway;
    std::unique_ptr<FrameServer> server;

    bool Start(const std::string& uds_path,
               EngineOptions engine = SmallEngine()) {
      if (!gateway.Deploy("city", Config(engine))) return false;
      return Listen(uds_path);
    }

    /// (Re)starts the frame server on the path, over the same gateway.
    bool Listen(const std::string& uds_path) {
      if (server) server->Stop();
      FrameServerOptions options;
      options.io_threads = 1;
      options.unix_path = uds_path;
      server = std::make_unique<FrameServer>(gateway, options);
      return server->Start();
    }
  };

  /// A shard that accepts frames and never answers them.
  struct StalledShard {
    HoldingHandler handler;
    std::unique_ptr<FrameServer> server;

    bool Start(const std::string& uds_path) {
      FrameServerOptions options;
      options.io_threads = 1;
      options.unix_path = uds_path;
      server = std::make_unique<FrameServer>(handler, options);
      return server->Start();
    }
  };

  /// Test-sample indices whose key's primary, on a ring of `shard_count`
  /// shards named as RouterFor names them, is `owner`.
  static std::vector<size_t> SamplesOwnedBy(size_t shard_count,
                                            const std::string& owner,
                                            size_t count) {
    HashRing ring(64);
    for (size_t i = 0; i < shard_count; ++i) {
      ring.AddShard("shard" + std::to_string(i));
    }
    std::vector<size_t> owned;
    for (size_t i = 0; i < samples_.size() && owned.size() < count; ++i) {
      if (ring.ShardsFor(RoutingKey("city", samples_[i].user), 1)[0] == owner) {
        owned.push_back(i);
      }
    }
    EXPECT_EQ(owned.size(), count) << "too few samples owned by " << owner;
    return owned;
  }

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
    std::vector<common::SocketAddress> addresses;
    for (const auto& shard : shards) {
      addresses.push_back(shard->server->address());
    }
    return RouterFor(addresses, replication);
  }

  /// Shard i is "shard<i>" at addresses[i].
  static RouterOptions RouterFor(
      const std::vector<common::SocketAddress>& addresses, int replication) {
    RouterOptions options;
    for (size_t i = 0; i < addresses.size(); ++i) {
      options.shards.push_back(
          ShardConfig{"shard" + std::to_string(i), addresses[i]});
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
    EXPECT_EQ(Route(router, frame), shards[0]->gateway.ServeFrame(frame))
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

  // And with many frames in flight on the router's shard connections at
  // once: every reply still comes back to its own frame, verbatim.
  constexpr size_t kPipelined = 16;
  for (size_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.SendFrame(RequestFrame(i, 1 + i % 10)));
  }
  for (size_t i = 0; i < kPipelined; ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(client.RecvFrame(&reply)) << "pipelined request " << i;
    EXPECT_EQ(reply, shards[0]->gateway.ServeFrame(RequestFrame(i, 1 + i % 10)))
        << "pipelined request " << i;
  }
  front.Stop();
  router.Stop();
}

TEST_F(ClusterRouterTest, PipelinedFramesShareOneShardConnection) {
  // A coalescing window far longer than the test sends for: the shard
  // batches everything that arrived and no reply leaves early, so its
  // FrameServer sees how many frames the router had in flight at once.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<Shard>());
  ASSERT_TRUE(shards[0]->Start(UdsPath("depth"),
                               SmallEngine(/*coalesce_window_us=*/300000)));
  RouterOptions options = RouterFor(shards, 1);
  options.worker_threads = 1;
  options.pool_size_per_shard = 1;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());
  FrameServerOptions front_options;
  front_options.io_threads = 1;
  FrameServer front(router, front_options);
  ASSERT_TRUE(front.Start());

  FrameClient client;
  client.set_recv_timeout_ms(20000);
  ASSERT_TRUE(client.Connect(front.address()));
  constexpr size_t kPipelined = 16;
  for (size_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.SendFrame(RequestFrame(i, 5)));
  }
  for (size_t i = 0; i < kPipelined; ++i) {
    const FrameClient::Reply reply = client.ReceiveTyped();
    EXPECT_EQ(reply.kind, FrameClient::Reply::Kind::kResponse)
        << "request " << i;
  }
  // One router loop and one connection, yet the shard held them together.
  EXPECT_GE(shards[0]->server->GetStats().max_in_flight_observed, 8);
  EXPECT_EQ(router.Snapshot().responses_ok, static_cast<int64_t>(kPipelined));
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

    const std::vector<uint8_t> routed = Route(router, frame);
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
  const std::vector<uint8_t> reply = Route(router, bad_endpoint);
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
      Route(router, EncodeRecommendRequest("city", request, admission));
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
  ASSERT_EQ(DecodePongFrame(Route(router, EncodePingFrame(77)), &nonce),
            DecodeStatus::kOk);
  EXPECT_EQ(nonce, 77u);

  // Drive some traffic so the roll-up has something to count.
  constexpr size_t kRequests = 8;
  for (size_t i = 0; i < kRequests; ++i) {
    eval::RecommendResponse response;
    ASSERT_EQ(DecodeRecommendResponse(Route(router, RequestFrame(i, 3)),
                                      &response),
              DecodeStatus::kOk);
  }

  WireStatsSnapshot rollup;
  ASSERT_EQ(DecodeStatsResponse(Route(router, EncodeStatsRequest()), &rollup),
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
    EXPECT_EQ(DecodeRecommendResponse(Route(router, frame), &response),
              DecodeStatus::kOk)
        << "burst request " << i;
  }
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(Route(router, frame), &message, &code),
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
        DecodeRecommendResponse(Route(router, RequestFrame(i, 4)), &response),
        DecodeStatus::kOk)
        << "warm request " << i;
  }

  // Kill shard 0 (its listener goes away and pooled connections die).
  shards[0]->server->Stop();

  // Every user keeps being served: keys owned by shard0 fail over to the
  // replica, bit-identical to what the survivor would serve directly.
  for (size_t i = 0; i < kUsers; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(i, 4);
    EXPECT_EQ(Route(router, frame), shards[1]->gateway.ServeFrame(frame))
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
  ASSERT_EQ(DecodeErrorFrame(Route(router, RequestFrame(0, 3)), &message, &code),
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

TEST_F(ClusterRouterTest, RoutedFramesAreServedAgainAfterTheShardRestarts) {
  const std::string path = UdsPath("restart");
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<Shard>());
  ASSERT_TRUE(shards[0]->Start(path));
  RouterOptions options = RouterFor(shards, 1);
  options.reconnect_attempts = 3;
  options.reconnect_backoff_ms = 5;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  const std::vector<uint8_t> frame = RequestFrame(0, 3);
  const std::vector<uint8_t> served = shards[0]->gateway.ServeFrame(frame);
  ASSERT_EQ(Route(router, frame), served);

  // While the shard is down its connection cannot be redialed: the frame
  // gets a typed error, not a hang.
  shards[0]->server->Stop();
  EXPECT_EQ(ErrorCodeOf(Route(router, frame)), ErrorCode::kShardUnavailable);

  // Back on the same path: once the breaker's cooldown admits a probe, the
  // router dials a fresh connection and serves again.
  ASSERT_TRUE(shards[0]->Listen(path));
  std::this_thread::sleep_for(std::chrono::milliseconds(
      2 * options.breaker.open_cooldown_ms));
  EXPECT_EQ(Route(router, frame), served);
  EXPECT_EQ(Route(router, frame), served);
  router.Stop();
}

TEST_F(ClusterRouterTest, StalledShardAnswersEveryFrameWithinTheCallTimeout) {
  StalledShard stalled;
  ASSERT_TRUE(stalled.Start(UdsPath("stall")));
  RouterOptions options = RouterFor({stalled.server->address()}, 1);
  options.call_timeout_ms = 300;
  options.worker_threads = 1;
  options.pool_size_per_shard = 2;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  constexpr size_t kFrames = 8;
  Replies replies;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < kFrames; ++i) {
    router.HandleFrameAsync(RequestFrame(i, 3), replies.Slot(i));
  }
  ASSERT_TRUE(replies.Await(kFrames, std::chrono::seconds(20)));
  const auto elapsed = Clock::now() - start;
  // Each frame was answered when its own timeout struck, not later: the
  // generous slack is for sanitizer builds.
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.call_timeout_ms + 1500));
  for (size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(ErrorCodeOf(replies.at(i)), ErrorCode::kShardUnavailable)
        << "frame " << i;
  }
  EXPECT_EQ(router.Snapshot().shard_unavailable, static_cast<int64_t>(kFrames));
  router.Stop();
}

TEST_F(ClusterRouterTest, TimedOutConnectionFailsItsOtherFramesOverToTheReplica) {
  // shard0 stalls; shard1 serves. Every frame below is owned by shard0 and
  // rides its single connection behind a frame with a short deadline.
  StalledShard stalled;
  ASSERT_TRUE(stalled.Start(UdsPath("collat0")));
  std::vector<std::unique_ptr<Shard>> live = StartShards(1, "collat1");
  RouterOptions options =
      RouterFor({stalled.server->address(), live[0]->server->address()}, 2);
  options.call_timeout_ms = 10000;
  options.worker_threads = 1;
  options.pool_size_per_shard = 1;
  options.breaker.failure_threshold = 2;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  constexpr size_t kCollateral = 5;
  const std::vector<size_t> owned = SamplesOwnedBy(2, "shard0", 1 + kCollateral);
  ASSERT_EQ(owned.size(), 1 + kCollateral);
  eval::RecommendRequest hurried;
  hurried.sample = samples_[owned[0]];
  hurried.top_n = 3;
  AdmissionClass admission;
  admission.deadline_ms = 200;

  Replies replies;
  const Clock::time_point start = Clock::now();
  router.HandleFrameAsync(EncodeRecommendRequest("city", hurried, admission),
                          replies.Slot(0));
  for (size_t i = 1; i <= kCollateral; ++i) {
    router.HandleFrameAsync(RequestFrame(owned[i], 3), replies.Slot(i));
  }
  ASSERT_TRUE(replies.Await(1 + kCollateral, std::chrono::seconds(20)));
  // The collateral frames did not wait out their own 10 s timeouts.
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));

  // The frame that timed out has no budget left; the others, written on
  // the same connection, were served by the replica verbatim.
  EXPECT_EQ(ErrorCodeOf(replies.at(0)), ErrorCode::kShedDeadline);
  for (size_t i = 1; i <= kCollateral; ++i) {
    EXPECT_EQ(replies.at(i),
              live[0]->gateway.ServeFrame(RequestFrame(owned[i], 3)))
        << "collateral frame " << i;
  }
  const ClusterStats stats = router.Snapshot();
  EXPECT_EQ(stats.failovers, static_cast<int64_t>(kCollateral));
  EXPECT_EQ(stats.responses_ok, static_cast<int64_t>(kCollateral));
  EXPECT_EQ(stats.deadline_exhausted, 1);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].requests_failed,
            static_cast<int64_t>(1 + kCollateral));
  // One failed connection is one breaker failure, below the threshold of 2.
  EXPECT_EQ(stats.shards[0].breaker, CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.shards[0].breaker_trips, 0);
  router.Stop();
}

TEST_F(ClusterRouterTest, StalledShardDoesNotDelayAnotherShardsFrames) {
  StalledShard stalled;
  ASSERT_TRUE(stalled.Start(UdsPath("hol0")));
  std::vector<std::unique_ptr<Shard>> live = StartShards(1, "hol1");
  RouterOptions options =
      RouterFor({stalled.server->address(), live[0]->server->address()}, 1);
  options.call_timeout_ms = 30000;
  options.worker_threads = 1;  // one loop owns both shards' connections
  options.pool_size_per_shard = 1;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  const std::vector<size_t> stuck = SamplesOwnedBy(2, "shard0", 4);
  const std::vector<size_t> free = SamplesOwnedBy(2, "shard1", 4);
  Replies replies;
  for (size_t i = 0; i < stuck.size(); ++i) {
    router.HandleFrameAsync(RequestFrame(stuck[i], 3), replies.Slot(i));
  }
  ASSERT_TRUE(stalled.handler.AwaitHeld(stuck.size(), std::chrono::seconds(20)));

  const Clock::time_point start = Clock::now();
  for (size_t index : free) {
    const std::vector<uint8_t> frame = RequestFrame(index, 3);
    EXPECT_EQ(Route(router, frame), live[0]->gateway.ServeFrame(frame));
  }
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(replies.answered(), 0u);  // still waiting on the stalled shard

  router.Stop();
  EXPECT_EQ(replies.answered(), stuck.size());
}

TEST_F(ClusterRouterTest, HangingDialDoesNotDelayAnotherShardsFrames) {
  // A TCP listener that never accepts, its backlog of one already taken: a
  // connect to it hangs in SYN_SENT for as long as the kernel retries.
  uint16_t port = 0;
  common::UniqueFd listener =
      common::ListenTcp("127.0.0.1", 0, /*backlog=*/0, &port);
  ASSERT_TRUE(listener.valid());
  const common::SocketAddress hanging =
      common::SocketAddress::Tcp("127.0.0.1", port);
  std::vector<common::UniqueFd> fillers;
  bool hangs = false;
  for (int i = 0; i < 8 && !hangs; ++i) {
    bool in_progress = false;
    common::UniqueFd fd = common::StartConnect(hanging, &in_progress);
    ASSERT_TRUE(fd.valid());
    if (in_progress) {
      pollfd connect_done{fd.get(), POLLOUT, 0};
      hangs = ::poll(&connect_done, 1, 200) == 0;
    }
    fillers.push_back(std::move(fd));
  }
  ASSERT_TRUE(hangs) << "a connect to the full listener did not hang";

  std::vector<std::unique_ptr<Shard>> live = StartShards(1, "dial1");
  RouterOptions options =
      RouterFor({hanging, live[0]->server->address()}, 1);
  options.call_timeout_ms = 2000;
  options.worker_threads = 1;  // one loop owns both shards' connections
  options.pool_size_per_shard = 1;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  const std::vector<size_t> stuck = SamplesOwnedBy(2, "shard0", 2);
  const std::vector<size_t> free = SamplesOwnedBy(2, "shard1", 4);
  std::vector<std::vector<uint8_t>> served;
  for (size_t index : free) {
    served.push_back(live[0]->gateway.ServeFrame(RequestFrame(index, 3)));
  }
  Replies replies;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < stuck.size(); ++i) {
    router.HandleFrameAsync(RequestFrame(stuck[i], 3), replies.Slot(i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // dialing
  for (size_t i = 0; i < free.size(); ++i) {
    EXPECT_EQ(Route(router, RequestFrame(free[i], 3)), served[i]);
  }
  // Served while shard0's dial was still under way.
  EXPECT_EQ(replies.answered(), 0u);
  EXPECT_LT(Clock::now() - start,
            std::chrono::milliseconds(options.call_timeout_ms));

  // The dial is bounded by the frames' own timeout.
  ASSERT_TRUE(replies.Await(stuck.size(), std::chrono::seconds(20)));
  EXPECT_LT(Clock::now() - start,
            std::chrono::milliseconds(options.call_timeout_ms + 1500));
  for (size_t i = 0; i < stuck.size(); ++i) {
    EXPECT_EQ(ErrorCodeOf(replies.at(i)), ErrorCode::kShardUnavailable)
        << "frame " << i;
  }
  router.Stop();
}

TEST_F(ClusterRouterTest, HealthPingsNeverFailABusyShardsFrames) {
  // A live shard whose engine holds every frame for its coalescing window,
  // far longer than the ping interval: a ping queued behind those frames
  // must not time the connection out and fail them.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<Shard>());
  ASSERT_TRUE(shards[0]->Start(UdsPath("busyping"),
                               SmallEngine(/*coalesce_window_us=*/400000)));
  RouterOptions options = RouterFor(shards, 1);
  options.ping_interval_ms = 20;
  options.call_timeout_ms = 10000;
  options.worker_threads = 1;
  options.pool_size_per_shard = 1;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  constexpr size_t kRounds = 3;
  constexpr size_t kFrames = 4;
  for (size_t round = 0; round < kRounds; ++round) {
    Replies replies;
    for (size_t i = 0; i < kFrames; ++i) {
      router.HandleFrameAsync(RequestFrame(round * kFrames + i, 5),
                              replies.Slot(i));
    }
    ASSERT_TRUE(replies.Await(kFrames, std::chrono::seconds(20)));
    for (size_t i = 0; i < kFrames; ++i) {
      eval::RecommendResponse response;
      ASSERT_EQ(DecodeRecommendResponse(replies.at(i), &response),
                DecodeStatus::kOk)
          << "round " << round << " frame " << i;
      EXPECT_EQ(response.items.size(), 5u);
    }
  }
  // Idle again, the shard is pinged and answers.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (router.Snapshot().shards[0].pings_ok == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const ClusterStats stats = router.Snapshot();
  EXPECT_EQ(stats.responses_ok, static_cast<int64_t>(kRounds * kFrames));
  EXPECT_EQ(stats.failovers, 0);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].requests_failed, 0);
  EXPECT_EQ(stats.shards[0].pings_failed, 0);
  EXPECT_GT(stats.shards[0].pings_ok, 0);
  EXPECT_EQ(stats.shards[0].breaker, CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.shards[0].breaker_trips, 0);
  router.Stop();
}

TEST_F(ClusterRouterTest, StopAnswersEveryFrameInFlightWithBoundedThreads) {
  StalledShard stalled;
  ASSERT_TRUE(stalled.Start(UdsPath("stop")));
  RouterOptions options = RouterFor({stalled.server->address()}, 1);
  options.call_timeout_ms = 30000;
  options.worker_threads = 2;
  options.pool_size_per_shard = 2;
  options.ping_interval_ms = 60000;  // the pinger runs, but pings only once
  ShardRouter router(options);
  const int threads_before = ThreadCount();
  ASSERT_TRUE(router.Start());

  constexpr size_t kFrames = 32;
  Replies replies;
  for (size_t i = 0; i < kFrames; ++i) {
    router.HandleFrameAsync(RequestFrame(i, 3), replies.Slot(i));
  }
  ASSERT_TRUE(stalled.handler.AwaitHeld(kFrames, std::chrono::seconds(20)));
  // No thread per frame: the poll loops and the pinger, nothing more.
  EXPECT_EQ(ThreadCount(), threads_before + options.worker_threads + 1);
  EXPECT_EQ(replies.answered(), 0u);

  router.Stop();
  ASSERT_EQ(replies.answered(), kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(ErrorCodeOf(replies.at(i)), ErrorCode::kShardUnavailable)
        << "frame " << i;
  }
}

TEST_F(ClusterRouterTest, FramesPastQueueDepthAreShed) {
  StalledShard stalled;
  ASSERT_TRUE(stalled.Start(UdsPath("depthcap")));
  RouterOptions options = RouterFor({stalled.server->address()}, 1);
  options.call_timeout_ms = 30000;
  options.queue_depth = 4;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start());

  Replies replies;
  for (size_t i = 0; i < 6; ++i) {
    router.HandleFrameAsync(RequestFrame(i, 3), replies.Slot(i));
  }
  // The two frames past the bound were answered on the calling thread.
  ASSERT_EQ(replies.answered(), 2u);
  EXPECT_EQ(ErrorCodeOf(replies.at(4)), ErrorCode::kShedCapacity);
  EXPECT_EQ(ErrorCodeOf(replies.at(5)), ErrorCode::kShedCapacity);

  router.Stop();
  ASSERT_EQ(replies.answered(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ErrorCodeOf(replies.at(i)), ErrorCode::kShardUnavailable)
        << "frame " << i;
  }
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
