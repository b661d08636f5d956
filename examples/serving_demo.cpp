// Serving-gateway demo: two cities served side by side from one process
// through serve::Gateway, with wire-encoded traffic and a mid-run hot swap.
//
//   1. Two synthetic cities are generated and a TSPN-RA checkpoint is
//      trained (or restored from a previous run) for each, plus a "v2"
//      checkpoint for the first city (one extra epoch of training).
//   2. The gateway deploys endpoint "uptown" (city A) and "harbor"
//      (city B); each Deploy returns once its model serves.
//   3. Client threads fire frame-encoded requests (serve/codec.h) at both
//      endpoints. Default mode drives Gateway::ServeFrame in-process;
//      `--socket` starts a serve::FrameServer on an ephemeral loopback
//      port and the clients connect over real TCP with serve::FrameClient
//      (length-delimited TSWP frames, pipelined per connection).
//   4. Mid-run, "uptown" is hot-swapped onto the v2 checkpoint with
//      Swap while the clients keep sending: the old weights serve during
//      the build, in-flight requests finish on them, new ones see the new
//      model, and no reply is dropped.
//   5. The aggregate GatewayStats snapshot prints per-endpoint lifetime
//      QPS, latency percentiles, queue depth and swap counts — plus the
//      FrameServer's socket counters in --socket mode.
//
//   ./build/serving_demo [--socket | --storm]
//
// `--storm` runs the overload smoke instead: a deliberately narrow
// deployment takes several times its queue capacity in pipelined
// mixed-priority frames, and the process exits non-zero on any hung
// reply, malformed shed frame, or counter mismatch.
//
// TSPN_CHECKPOINT_DIR overrides where the demo's checkpoints live
// (default ".").

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "data/dataset.h"
#include "eval/model_registry.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"

using namespace tspn;

namespace {

/// Restores `path` into a registry-built model, or trains one and saves it
/// so the next run deploys without retraining. Returns false on failure.
bool EnsureCheckpoint(const std::string& model_name,
                      std::shared_ptr<const data::CityDataset> dataset,
                      const eval::ModelOptions& options, int32_t epochs,
                      const std::string& path) {
  auto model = eval::ModelRegistry::Global().Create(model_name, dataset, options);
  if (model == nullptr) return false;
  if (model->LoadCheckpoint(path)) {
    std::printf("  checkpoint '%s' already usable\n", path.c_str());
    return true;
  }
  std::printf("  training %s (%d epoch%s) -> '%s'\n", model_name.c_str(),
              epochs, epochs == 1 ? "" : "s", path.c_str());
  eval::TrainOptions train;
  train.epochs = epochs;
  train.max_samples_per_epoch = 96;
  model->Train(train);
  model->SaveCheckpoint(path);
  return true;
}

/// `--storm`: the overload smoke. A deliberately narrow deployment (one
/// worker, tiny queue, slow coalescing drain) takes several times its
/// queue capacity in pipelined mixed-priority frames over TCP. Exits
/// non-zero on any hung reply, malformed shed frame, or a client/server
/// counter mismatch — the graceful-degradation contract, checked end to
/// end (docs/operations.md "Overload runbook").
int RunStorm() {
  data::CityProfile profile = data::CityProfile::TestTiny();
  profile.name = "StormSim";
  auto city = data::CityDataset::Generate(profile);

  const char* dir_env = std::getenv("TSPN_CHECKPOINT_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  const std::string checkpoint = dir + "/gateway_storm_v1.ckpt";
  eval::ModelOptions options;
  options.dm = 32;
  std::printf("Preparing checkpoint:\n");
  if (!EnsureCheckpoint("TSPN-RA", city, options, 1, checkpoint)) {
    std::printf("checkpoint preparation failed\n");
    return 1;
  }

  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = city;
  config.checkpoint_path = checkpoint;
  config.model_options = options.ToKeyValues();
  config.engine_options.num_threads = 1;
  config.engine_options.max_queue_depth = 8;
  config.engine_options.max_batch = 4;
  config.engine_options.coalesce_window_us = 20000;

  serve::Gateway gateway;
  std::string error;
  if (!gateway.Deploy("city", config, &error)) {
    std::printf("deploy failed: %s\n", error.c_str());
    return 1;
  }
  serve::FrameServerOptions server_options;
  server_options.max_inflight_per_connection = 4;
  serve::FrameServer server(gateway, server_options);
  if (!server.Start(&error)) {
    std::printf("frame server failed to start: %s\n", error.c_str());
    return 1;
  }
  std::printf("Storm target: queue_depth=8 max_batch=4 coalesce=20ms, "
              "per-connection in-flight cap 4, port %u\n",
              server.port());

  const std::vector<data::SampleRef> samples =
      city->Samples(data::Split::kTest);
  constexpr int kClients = 4;
  constexpr int kFramesPerClient = 32;
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> failed{0};

  common::Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::FrameClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failed.fetch_add(kFramesPerClient);
        return;
      }
      client.set_recv_timeout_ms(20000);  // a hang is a failure, not a wait
      for (int i = 0; i < kFramesPerClient; ++i) {
        eval::RecommendRequest request;
        request.sample =
            samples[static_cast<size_t>(c * kFramesPerClient + i) %
                    samples.size()];
        request.top_n = 10;
        serve::AdmissionClass admission;
        admission.priority = static_cast<serve::Priority>(i % 3);
        if (i % 5 == 4) {
          admission.priority = serve::Priority::kInteractive;
          admission.deadline_ms = 3;  // unmeetable behind the backlog
        }
        if (!client.SendFrame(
                serve::EncodeRecommendRequest("city", request, admission))) {
          failed.fetch_add(kFramesPerClient - i);
          return;
        }
      }
      for (int i = 0; i < kFramesPerClient; ++i) {
        const serve::FrameClient::Reply reply = client.ReceiveTyped();
        if (reply.kind == serve::FrameClient::Reply::Kind::kResponse) {
          accepted.fetch_add(1);
        } else if (reply.kind ==
                       serve::FrameClient::Reply::Kind::kServerError &&
                   (reply.error_code == serve::ErrorCode::kShedCapacity ||
                    reply.error_code == serve::ErrorCode::kShedDeadline ||
                    reply.error_code == serve::ErrorCode::kExpired)) {
          shed.fetch_add(1);
        } else {
          // kTimeout = a hung reply; kTransport = a malformed or dropped
          // frame; a non-shed error code = a mis-typed shed.
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = watch.ElapsedSeconds();

  constexpr int64_t kTotal = kClients * kFramesPerClient;
  serve::EndpointStats stats;
  gateway.GetEndpointStats("city", &stats);
  const int64_t server_sheds =
      stats.shed_capacity + stats.shed_deadline + stats.expired_in_queue;
  std::printf("\nStorm: %lld frames in %.2fs — %lld served, %lld shed "
              "(capacity=%lld deadline=%lld expired=%lld), %lld failed\n",
              static_cast<long long>(kTotal), seconds,
              static_cast<long long>(accepted.load()),
              static_cast<long long>(shed.load()),
              static_cast<long long>(stats.shed_capacity),
              static_cast<long long>(stats.shed_deadline),
              static_cast<long long>(stats.expired_in_queue),
              static_cast<long long>(failed.load()));
  const serve::FrameServerStats fs = server.GetStats();
  std::printf("FrameServer: %lld frames in, %lld read throttles\n",
              static_cast<long long>(fs.frames_received),
              static_cast<long long>(fs.read_throttles));
  server.Stop();
  gateway.Undeploy("city");

  bool ok = true;
  if (failed.load() != 0) {
    std::printf("FAIL: %lld hung/malformed replies\n",
                static_cast<long long>(failed.load()));
    ok = false;
  }
  if (accepted.load() + shed.load() != kTotal) {
    std::printf("FAIL: outcomes do not add up to %lld\n",
                static_cast<long long>(kTotal));
    ok = false;
  }
  if (accepted.load() != stats.lifetime_completed ||
      shed.load() != server_sheds) {
    std::printf("FAIL: client tallies (%lld/%lld) disagree with gateway "
                "counters (%lld/%lld)\n",
                static_cast<long long>(accepted.load()),
                static_cast<long long>(shed.load()),
                static_cast<long long>(stats.lifetime_completed),
                static_cast<long long>(server_sheds));
    ok = false;
  }
  if (shed.load() == 0) {
    std::printf("FAIL: the storm never forced a shed — not an overload\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "Storm smoke PASSED" : "Storm smoke FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool socket_mode = false;
  bool storm_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) socket_mode = true;
    if (std::strcmp(argv[i], "--storm") == 0) storm_mode = true;
  }
  if (storm_mode) return RunStorm();

  // 1. Two cities: a dense "uptown" grid and a second, differently seeded
  // "harbor" city — the multi-tenant case of one process serving several
  // spatially distinct regions.
  data::CityProfile uptown_profile = data::CityProfile::TestTiny();
  uptown_profile.name = "UptownSim";
  data::CityProfile harbor_profile = data::CityProfile::TestTiny();
  harbor_profile.name = "HarborSim";
  harbor_profile.seed = 11;
  harbor_profile.coastal = true;
  auto uptown = data::CityDataset::Generate(uptown_profile);
  auto harbor = data::CityDataset::Generate(harbor_profile);

  const char* dir_env = std::getenv("TSPN_CHECKPOINT_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  const std::string uptown_v1 = dir + "/gateway_uptown_v1.ckpt";
  const std::string uptown_v2 = dir + "/gateway_uptown_v2.ckpt";
  const std::string harbor_v1 = dir + "/gateway_harbor_v1.ckpt";

  eval::ModelOptions options;
  options.dm = 32;

  std::printf("Preparing checkpoints:\n");
  if (!EnsureCheckpoint("TSPN-RA", uptown, options, 1, uptown_v1) ||
      !EnsureCheckpoint("TSPN-RA", uptown, options, 2, uptown_v2) ||
      !EnsureCheckpoint("TSPN-RA", harbor, options, 1, harbor_v1)) {
    std::printf("checkpoint preparation failed\n");
    return 1;
  }

  // 2. Gateway with two named endpoints, one per city.
  serve::Gateway gateway;
  serve::DeployConfig uptown_config;
  uptown_config.model_name = "TSPN-RA";
  uptown_config.dataset = uptown;
  uptown_config.checkpoint_path = uptown_v1;
  uptown_config.model_options = options.ToKeyValues();
  serve::DeployConfig harbor_config = uptown_config;
  harbor_config.dataset = harbor;
  harbor_config.checkpoint_path = harbor_v1;

  std::string error;
  if (!gateway.Deploy("uptown", uptown_config, &error) ||
      !gateway.Deploy("harbor", harbor_config, &error)) {
    std::printf("deploy failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("\nDeployed endpoints:");
  for (const std::string& name : gateway.Endpoints()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  // In --socket mode, the gateway gets its TCP front-end: the same frames
  // now cross a real socket and the server pipelines them through the
  // engines without blocking a thread per request.
  serve::FrameServer server(gateway);
  if (socket_mode) {
    if (!server.Start(&error)) {
      std::printf("frame server failed to start: %s\n", error.c_str());
      return 1;
    }
    std::printf("FrameServer listening on %s:%u (%d io threads)\n",
                server.options().host.c_str(), server.port(),
                server.options().io_threads);
  }

  // 3. Wire traffic: each client encodes requests with the TSWP codec.
  // The harbor clients add a geo fence to show constrained frames.
  const std::vector<data::SampleRef> uptown_samples =
      uptown->Samples(data::Split::kTest);
  const std::vector<data::SampleRef> harbor_samples =
      harbor->Samples(data::Split::kTest);
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> errored{0};

  common::Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool to_uptown = c % 2 == 0;
      const auto& samples = to_uptown ? uptown_samples : harbor_samples;
      const auto& dataset = to_uptown ? uptown : harbor;
      serve::FrameClient socket_client;
      if (socket_mode &&
          !socket_client.Connect("127.0.0.1", server.port())) {
        errored.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = static_cast<size_t>(c) / 2; i < samples.size();
             i += kClients / 2) {
          eval::RecommendRequest request;
          request.sample = samples[i];
          request.top_n = 10;
          if (!to_uptown) {
            request.constraints.geo_center = dataset->profile().bbox.Center();
            request.constraints.geo_radius_km = 3.0;
          }
          const std::vector<uint8_t> frame = serve::EncodeRecommendRequest(
              to_uptown ? "uptown" : "harbor", request);
          const std::vector<uint8_t> reply =
              socket_mode ? socket_client.Call(frame)
                          : gateway.ServeFrame(frame);
          eval::RecommendResponse response;
          if (serve::DecodeRecommendResponse(reply, &response) ==
              serve::DecodeStatus::kOk) {
            answered.fetch_add(1);
          } else {
            errored.fetch_add(1);
          }
        }
      }
    });
  }

  // 4. Mid-run hot swap: "uptown" moves to the v2 weights while the
  // clients keep hammering both endpoints. Swap blocks only this thread:
  // v1 keeps serving while v2 builds, and in-flight requests drain on v1.
  std::string swap_error;
  const bool swapped = gateway.Swap("uptown", uptown_v2, &swap_error);
  if (!swapped) {
    std::printf("hot swap failed: %s\n", swap_error.c_str());
  }

  for (std::thread& t : clients) t.join();
  const double seconds = watch.ElapsedSeconds();

  std::printf("\nServed %lld wire frames in %.2fs (%.1f qps overall) via %s, "
              "%lld error frames, hot swap %s mid-run\n",
              static_cast<long long>(answered.load()), seconds,
              static_cast<double>(answered.load()) / seconds,
              socket_mode ? "TCP loopback" : "in-process ServeFrame",
              static_cast<long long>(errored.load()),
              swapped ? "completed" : "did not complete");

  // 5. Aggregate snapshot: one row per endpoint. qps/uptime are lifetime
  // scoped (they survive the swap); the window columns reset with it.
  serve::GatewayStats snapshot = gateway.Snapshot();
  std::printf("\nGateway snapshot: %lld endpoints, %lld completed, "
              "%lld swaps\n",
              static_cast<long long>(snapshot.endpoints),
              static_cast<long long>(snapshot.total_completed),
              static_cast<long long>(snapshot.total_swaps));
  for (const serve::EndpointStats& ep : snapshot.per_endpoint) {
    std::printf("  %-8s %-8s ckpt=%-28s qps=%7.1f (window %7.1f) "
                "p50=%6.3fms p95=%6.3fms queue=%lld swaps=%lld\n",
                ep.endpoint.c_str(), ep.model_name.c_str(),
                ep.checkpoint_path.c_str(), ep.qps, ep.window_qps,
                ep.engine.p50_latency_ms, ep.engine.p95_latency_ms,
                static_cast<long long>(ep.queue_depth),
                static_cast<long long>(ep.swaps));
  }
  if (socket_mode) {
    const serve::FrameServerStats fs = server.GetStats();
    std::printf("\nFrameServer: %lld conns, %lld frames in, %lld out, "
                "max in-flight %lld, %lld transport errors\n",
                static_cast<long long>(fs.connections_accepted),
                static_cast<long long>(fs.frames_received),
                static_cast<long long>(fs.frames_sent),
                static_cast<long long>(fs.max_in_flight_observed),
                static_cast<long long>(fs.transport_errors));
    server.Stop();
  }

  // One decoded answer per endpoint, to show the payload end to end.
  for (const char* endpoint : {"uptown", "harbor"}) {
    const auto& dataset = endpoint == std::string("uptown") ? uptown : harbor;
    const auto& samples =
        endpoint == std::string("uptown") ? uptown_samples : harbor_samples;
    eval::RecommendRequest request;
    request.sample = samples.front();
    request.top_n = 5;
    eval::RecommendResponse response;
    if (serve::DecodeRecommendResponse(
            gateway.ServeFrame(serve::EncodeRecommendRequest(endpoint, request)),
            &response) != serve::DecodeStatus::kOk) {
      continue;
    }
    const int64_t actual = dataset->Target(request.sample).poi_id;
    std::printf("\nTop-5 on '%s' (user %d):\n", endpoint, request.sample.user);
    for (size_t r = 0; r < response.items.size(); ++r) {
      const eval::ScoredPoi& item = response.items[r];
      std::printf("  %zu. POI#%-4lld score=%+.4f tile=%lld%s\n", r + 1,
                  static_cast<long long>(item.poi_id), item.score,
                  static_cast<long long>(item.tile_index),
                  item.poi_id == actual ? "   <-- actual next visit" : "");
    }
  }

  // Clean teardown: undeploy drains both endpoints.
  gateway.Undeploy("uptown");
  gateway.Undeploy("harbor");
  return errored.load() == 0 && swapped ? 0 : 1;
}
