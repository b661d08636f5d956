// FrameServer loopback tests — the PR's acceptance criteria live here:
// socket round-trips bit-identical to the synchronous ServeFrame path,
// pipelined frames answered strictly in per-connection order, bounded
// server/engine threads while many requests are in flight (no
// thread-per-request), partial-write/short-read robustness, teardown with
// requests still in flight, and a concurrent-clients + mid-run-swap race
// suite the TSan CI job runs.

#include "serve/frame_server.h"
#include "serve/gateway.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sys/socket.h>
#include <thread>

#include <gtest/gtest.h>

#include "common/net.h"
#include "serve/codec.h"
#include "serve/frame_client.h"

namespace tspn::serve {
namespace {

EngineOptions SmallEngine(int threads, int64_t coalesce_us = 200) {
  EngineOptions options;
  options.num_threads = threads;
  options.max_queue_depth = 256;
  options.max_batch = 32;
  options.coalesce_window_us = coalesce_us;
  return options;
}

class FrameServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
    checkpoint_ = testing::TempDir() + "/frame_server_tspn.ckpt";
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

  static DeployConfig Config(int engine_threads, int64_t coalesce_us = 200) {
    DeployConfig config;
    config.model_name = "TSPN-RA";
    config.dataset = dataset_;
    config.checkpoint_path = checkpoint_;
    config.model_options = TinyOptions().ToKeyValues();
    config.engine_options = SmallEngine(engine_threads, coalesce_us);
    return config;
  }

  static FrameServerOptions ServerOptions(int io_threads) {
    FrameServerOptions options;
    options.io_threads = io_threads;
    return options;
  }

  static std::vector<uint8_t> RequestFrame(size_t sample_index,
                                           int64_t top_n) {
    eval::RecommendRequest request;
    request.sample = samples_[sample_index % samples_.size()];
    request.top_n = top_n;
    return EncodeRecommendRequest("city", request);
  }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::string checkpoint_;
  static std::vector<data::SampleRef> samples_;
};

std::shared_ptr<data::CityDataset> FrameServerTest::dataset_;
std::string FrameServerTest::checkpoint_;
std::vector<data::SampleRef> FrameServerTest::samples_;

TEST_F(FrameServerTest, RoundTripIsBitIdenticalToServeFrame) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(2)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());
  ASSERT_GT(server.port(), 0);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(i, 10);
    const std::vector<uint8_t> socket_reply = client.Call(frame);
    ASSERT_FALSE(socket_reply.empty()) << "request " << i;
    // The acceptance bar: byte-for-byte what the synchronous path returns.
    EXPECT_EQ(socket_reply, gateway.ServeFrame(frame)) << "request " << i;
    eval::RecommendResponse response;
    EXPECT_EQ(DecodeRecommendResponse(socket_reply, &response),
              DecodeStatus::kOk);
    EXPECT_EQ(response.items.size(), 10u);
  }
  const FrameServerStats stats = server.GetStats();
  EXPECT_EQ(stats.frames_received, 4);
  EXPECT_EQ(stats.frames_sent, 4);
  EXPECT_EQ(stats.transport_errors, 0);
  server.Stop();
}

TEST_F(FrameServerTest, StartRefusesZeroIoThreads) {
  // With no IO loop the acceptor would deal a connection modulo zero.
  Gateway gateway;
  FrameServer server(gateway, ServerOptions(0));
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("io_threads"), std::string::npos) << error;
}

TEST_F(FrameServerTest, PipelinedFramesComeBackInRequestOrder) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(2)));
  FrameServer server(gateway, ServerOptions(2));
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // Distinct top_n per position: the reply's item count identifies which
  // request it answers, so any reordering is caught directly.
  constexpr size_t kFrames = 8;
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    frames.push_back(RequestFrame(i, static_cast<int64_t>(1 + i)));
    ASSERT_TRUE(client.SendFrame(frames.back()));
  }
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(client.RecvFrame(&reply)) << "reply " << i;
    EXPECT_EQ(reply, gateway.ServeFrame(frames[i])) << "reply " << i;
    eval::RecommendResponse response;
    ASSERT_EQ(DecodeRecommendResponse(reply, &response), DecodeStatus::kOk);
    EXPECT_EQ(response.items.size(), 1 + i) << "reply " << i;
  }
}

TEST_F(FrameServerTest, ManyInFlightRequestsWithBoundedThreads) {
  // 1 engine worker + 1 IO thread + 1 acceptor = 3 serving threads total.
  // A generous coalesce window holds the batch open so the queue visibly
  // fills: the in-flight high-water mark must far exceed the thread count,
  // which a thread-per-request design could never show.
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1, /*coalesce_us=*/50000)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  constexpr size_t kClients = 6;
  constexpr size_t kFramesPerClient = 4;
  std::vector<FrameClient> clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port()));
    for (size_t i = 0; i < kFramesPerClient; ++i) {
      ASSERT_TRUE(clients[c].SendFrame(
          RequestFrame(c * kFramesPerClient + i,
                       static_cast<int64_t>(1 + i))));
    }
  }
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kFramesPerClient; ++i) {
      std::vector<uint8_t> reply;
      ASSERT_TRUE(clients[c].RecvFrame(&reply))
          << "client " << c << " reply " << i;
      eval::RecommendResponse response;
      ASSERT_EQ(DecodeRecommendResponse(reply, &response), DecodeStatus::kOk)
          << "client " << c << " reply " << i;
      // Per-connection order: the i-th reply answers the i-th request.
      EXPECT_EQ(response.items.size(), 1 + i)
          << "client " << c << " reply " << i;
    }
  }
  // frames_sent is incremented just after the kernel accepts the reply
  // bytes, so the client can observe its last reply a beat before the
  // counter catches up — wait it out instead of racing it.
  const auto expected = static_cast<int64_t>(kClients * kFramesPerClient);
  FrameServerStats stats = server.GetStats();
  for (int spin = 0; spin < 2000 && stats.frames_sent < expected; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.GetStats();
  }
  EXPECT_EQ(stats.frames_received, expected);
  EXPECT_EQ(stats.frames_sent, expected);
  EXPECT_EQ(stats.in_flight, 0);
  // The no-thread-per-request proof: with 3 bounded serving threads, far
  // more requests than threads were simultaneously in flight.
  EXPECT_GE(stats.max_in_flight_observed, 8)
      << "expected the coalescing window to stack requests well past the "
         "3 serving threads";
}

TEST_F(FrameServerTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // Well-delimited transport frame whose payload is not a TSWP frame.
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00};
  const std::vector<uint8_t> reply = client.Call(garbage);
  ASSERT_FALSE(reply.empty());
  std::string message;
  ASSERT_EQ(DecodeErrorFrame(reply, &message), DecodeStatus::kOk);
  EXPECT_NE(message.find("bad request frame"), std::string::npos) << message;

  // The stream stays framed: the same connection keeps serving.
  const std::vector<uint8_t> frame = RequestFrame(0, 5);
  const std::vector<uint8_t> ok_reply = client.Call(frame);
  EXPECT_EQ(ok_reply, gateway.ServeFrame(frame));
}

TEST_F(FrameServerTest, UnknownEndpointComesBackAsErrorFrame) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  eval::RecommendRequest request;
  request.sample = samples_[0];
  request.top_n = 5;
  const std::vector<uint8_t> reply =
      client.Call(EncodeRecommendRequest("nowhere", request));
  std::string message;
  ASSERT_EQ(DecodeErrorFrame(reply, &message), DecodeStatus::kOk);
  EXPECT_NE(message.find("nowhere"), std::string::npos) << message;
}

TEST_F(FrameServerTest, OversizedDeclaredLengthClosesAfterErrorFrame) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1)));
  FrameServerOptions options = ServerOptions(1);
  options.max_frame_bytes = 4096;
  FrameServer server(gateway, options);
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // Declared length of 1 GiB: the stream can never be re-framed, so the
  // server must answer with one error frame and hang up.
  const uint8_t prefix[4] = {0x00, 0x00, 0x00, 0x40};
  ASSERT_TRUE(common::WriteAll(client.fd(), prefix, sizeof(prefix)));
  std::vector<uint8_t> reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  ASSERT_EQ(DecodeErrorFrame(reply, &message, &code), DecodeStatus::kOk);
  EXPECT_EQ(code, ErrorCode::kTransport);
  EXPECT_NE(message.find("transport"), std::string::npos) << message;
  // Connection is closed after the flush: the next read sees EOF.
  EXPECT_FALSE(client.RecvFrame(&reply));
  EXPECT_EQ(server.GetStats().transport_errors, 1);
}

TEST_F(FrameServerTest, DribbledBytesReassembleAcrossReads) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const std::vector<uint8_t> frame = RequestFrame(0, 7);
  std::vector<uint8_t> wire(4);
  common::StoreU32Le(static_cast<uint32_t>(frame.size()), wire.data());
  wire.insert(wire.end(), frame.begin(), frame.end());
  // One byte per write with pauses: the server sees dozens of short reads
  // and must reassemble the frame across poll rounds.
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(common::WriteAll(client.fd(), &wire[i], 1));
    if (i % 7 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<uint8_t> reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  EXPECT_EQ(reply, gateway.ServeFrame(frame));
}

TEST_F(FrameServerTest, HalfCloseStillDeliversPendingResponses) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1, /*coalesce_us=*/20000)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  constexpr size_t kFrames = 3;
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    frames.push_back(RequestFrame(i, static_cast<int64_t>(2 + i)));
    ASSERT_TRUE(client.SendFrame(frames[i]));
  }
  // Client is done sending; the server must still answer everything.
  ::shutdown(client.fd(), SHUT_WR);
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(client.RecvFrame(&reply)) << "reply " << i;
    EXPECT_EQ(reply, gateway.ServeFrame(frames[i])) << "reply " << i;
  }
  std::vector<uint8_t> extra;
  EXPECT_FALSE(client.RecvFrame(&extra));  // server closed after the flush
}

TEST_F(FrameServerTest, ClientVanishingMidRequestIsHarmless) {
  Gateway gateway;
  // Long coalesce window: the disconnect happens while the request is
  // still queued, so the completion must hit a connection that is gone.
  ASSERT_TRUE(gateway.Deploy("city", Config(1, /*coalesce_us=*/100000)));
  FrameServer server(gateway, ServerOptions(1));
  ASSERT_TRUE(server.Start());

  {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.SendFrame(RequestFrame(0, 5)));
    // Half a frame, then gone: exercises both the parse-abandoned path and
    // the completion-into-closed-connection path.
    const uint8_t partial[6] = {0xff, 0x00, 0x00, 0x00, 0x01, 0x02};
    ASSERT_TRUE(common::WriteAll(client.fd(), partial, sizeof(partial)));
    client.Close();
  }
  // Serve a healthy connection afterwards to prove the server survived.
  FrameClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
  const std::vector<uint8_t> frame = RequestFrame(1, 4);
  EXPECT_EQ(probe.Call(frame), gateway.ServeFrame(frame));
  server.Stop();
  EXPECT_EQ(server.GetStats().active_connections, 0);
}

TEST_F(FrameServerTest, StopWithRequestsInFlightShutsDownCleanly) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(1, /*coalesce_us=*/200000)));
  auto server = std::make_unique<FrameServer>(gateway, ServerOptions(2));
  ASSERT_TRUE(server->Start());

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.SendFrame(RequestFrame(i, 5)));
  }
  // Requests are parked in the coalescing window; Stop + destroy must not
  // crash when their completions fire into the dismantled server.
  server->Stop();
  server.reset();
  // The gateway (and its engines) outlives the server and drains cleanly.
}

// The TSan-gated race suite: concurrent pipelined socket clients while the
// endpoint hot-swaps mid-run. Order, parity and clean teardown all hold.
TEST_F(FrameServerTest, ConcurrentClientsWithMidRunSwap) {
  Gateway gateway;
  ASSERT_TRUE(gateway.Deploy("city", Config(2)));
  FrameServer server(gateway, ServerOptions(2));
  ASSERT_TRUE(server.Start());

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  constexpr size_t kFramesPerRound = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FrameClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kFramesPerRound; ++i) {
          if (!client.SendFrame(RequestFrame(
                  static_cast<size_t>(c) * 16 + i,
                  static_cast<int64_t>(1 + i)))) {
            failures.fetch_add(1);
            return;
          }
        }
        for (size_t i = 0; i < kFramesPerRound; ++i) {
          std::vector<uint8_t> reply;
          eval::RecommendResponse response;
          if (!client.RecvFrame(&reply) ||
              DecodeRecommendResponse(reply, &response) != DecodeStatus::kOk ||
              response.items.size() != 1 + i) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  // Same-checkpoint swaps mid-run: responses must stay valid and ordered
  // throughout each handoff.
  for (int s = 0; s < 3; ++s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::string error;
    ASSERT_TRUE(gateway.Swap("city", checkpoint_, &error)) << error;
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  EndpointStats stats;
  ASSERT_TRUE(gateway.GetEndpointStats("city", &stats));
  EXPECT_EQ(stats.swaps, 3);
  // Lifetime counters survived the swaps: every socket frame is in them.
  EXPECT_EQ(stats.lifetime_completed,
            static_cast<int64_t>(kClients * kRounds * kFramesPerRound));
  server.Stop();
}

}  // namespace
}  // namespace tspn::serve
