// Sharded-cluster smoke: a ShardRouter fronting three REAL shard processes,
// one of which is SIGKILLed mid-run while client threads keep the pipeline
// full. Exits non-zero on any hung caller or unreconciled counter — this is
// the CI gate for the router tier (docs/cluster.md).
//
//   1. The parent trains (or restores) one tiny TSPN-RA checkpoint, then
//      re-execs itself three times as `--shard <ckpt> <uds_path>` — each
//      child deploys endpoint "city" behind a serve::FrameServer listening
//      on a unix-domain socket and serves until killed.
//   2. The parent waits for all three shards to answer a kPing frame, then
//      stands up a cluster::ShardRouter (replication 2, health pings on)
//      behind its own TCP FrameServer — the cluster front door.
//   3. Client threads fire pipelined request frames at the router. Mid-run
//      the parent SIGKILLs the shard that OWNS the probe user's key (it
//      predicts the owner with a HashRing mirroring the router's): that
//      keyspace fails over to replicas, the circuit breaker stops paying
//      for the corpse, and every caller still gets a reply frame — a
//      response or a typed error, never a hang.
//   4. The parent reconciles: frames sent == responses + typed errors, no
//      transport failures, a majority actually served, and a post-kill
//      probe for the dead shard's own key answered via failover. Any miss
//      exits 1.
//
//   ./build/cluster_demo
//
// TSPN_CHECKPOINT_DIR overrides where the demo checkpoint lives
// (default ".").

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "data/dataset.h"
#include "eval/model_registry.h"
#include "serve/cluster/shard_router.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"

using namespace tspn;

namespace {

eval::ModelOptions TinyOptions() {
  eval::ModelOptions options;
  options.dm = 16;
  options.seed = 3;
  options.image_resolution = 16;
  return options;
}

std::shared_ptr<const data::CityDataset> DemoDataset() {
  // Deterministic: every shard regenerates the identical city, so any
  // replica serves bit-identical responses for the same frame.
  return data::CityDataset::Generate(data::CityProfile::TestTiny());
}

serve::DeployConfig ShardConfigFor(
    std::shared_ptr<const data::CityDataset> dataset,
    const std::string& checkpoint) {
  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = std::move(dataset);
  config.checkpoint_path = checkpoint;
  config.model_options = TinyOptions().ToKeyValues();
  config.engine_options.num_threads = 2;
  config.engine_options.max_queue_depth = 256;
  config.engine_options.coalesce_window_us = 100;
  return config;
}

/// Child mode: one shard process. Deploys the checkpoint behind a
/// unix-domain FrameServer and serves until the parent kills it.
int RunShard(const std::string& checkpoint, const std::string& uds_path) {
  serve::Gateway gateway;
  if (!gateway.Deploy("city", ShardConfigFor(DemoDataset(), checkpoint))) {
    std::fprintf(stderr, "shard: deploy failed\n");
    return 1;
  }
  serve::FrameServerOptions options;
  options.io_threads = 1;
  options.unix_path = uds_path;
  serve::FrameServer server(gateway, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "shard: listen on %s failed: %s\n", uds_path.c_str(),
                 error.c_str());
    return 1;
  }
  for (;;) pause();  // serve until SIGKILL/SIGTERM
}

bool EnsureCheckpoint(const std::string& path) {
  auto dataset = DemoDataset();
  auto model =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset, TinyOptions());
  if (model == nullptr) return false;
  if (model->LoadCheckpoint(path)) return true;
  std::printf("training TSPN-RA -> '%s'\n", path.c_str());
  eval::TrainOptions train;
  train.epochs = 1;
  train.max_samples_per_epoch = 24;
  model->Train(train);
  model->SaveCheckpoint(path);
  return true;
}

/// Polls a shard's socket until it answers a ping (or the deadline passes).
bool AwaitShardReady(const std::string& uds_path, int64_t deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    serve::FrameClient client;
    if (client.Connect(common::SocketAddress::Unix(uds_path))) {
      client.set_recv_timeout_ms(1000);
      std::vector<uint8_t> reply;
      uint64_t nonce = 0;
      if (client.SendFrame(serve::EncodePingFrame(1)) &&
          client.RecvFrame(&reply) &&
          serve::DecodePongFrame(reply, &nonce) == serve::DecodeStatus::kOk) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--shard") == 0) {
    return RunShard(argv[2], argv[3]);
  }

  const char* dir_env = std::getenv("TSPN_CHECKPOINT_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  const std::string checkpoint = dir + "/cluster_demo_tspn.ckpt";
  if (!EnsureCheckpoint(checkpoint)) {
    std::fprintf(stderr, "checkpoint preparation failed\n");
    return 1;
  }

  // --- Spawn three shard processes -----------------------------------------
  constexpr int kShards = 3;
  std::vector<std::string> uds_paths;
  std::vector<pid_t> pids;
  for (int i = 0; i < kShards; ++i) {
    const std::string path =
        dir + "/cluster_demo_shard" + std::to_string(i) + ".sock";
    ::unlink(path.c_str());
    uds_paths.push_back(path);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(argv[0], argv[0], "--shard", checkpoint.c_str(), path.c_str(),
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "execl failed\n");
      _exit(127);
    }
    if (pid < 0) {
      std::fprintf(stderr, "fork failed\n");
      return 1;
    }
    pids.push_back(pid);
  }
  auto kill_all = [&pids] {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  };

  for (int i = 0; i < kShards; ++i) {
    if (!AwaitShardReady(uds_paths[i], 30000)) {
      std::fprintf(stderr, "shard %d never became ready\n", i);
      kill_all();
      return 1;
    }
    std::printf("shard %d ready on %s\n", i, uds_paths[i].c_str());
  }

  // --- Router tier ----------------------------------------------------------
  serve::cluster::RouterOptions router_options;
  for (int i = 0; i < kShards; ++i) {
    router_options.shards.push_back(serve::cluster::ShardConfig{
        "shard" + std::to_string(i),
        common::SocketAddress::Unix(uds_paths[i])});
  }
  router_options.replication = 2;
  router_options.ping_interval_ms = 100;
  router_options.call_timeout_ms = 10000;
  router_options.breaker.failure_threshold = 2;
  router_options.breaker.open_cooldown_ms = 200;
  serve::cluster::ShardRouter router(router_options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "router start failed: %s\n", error.c_str());
    kill_all();
    return 1;
  }
  serve::FrameServerOptions front_options;
  front_options.io_threads = 2;
  serve::FrameServer front(router, front_options);
  if (!front.Start(&error)) {
    std::fprintf(stderr, "router front-end failed: %s\n", error.c_str());
    kill_all();
    return 1;
  }
  std::printf("router serving %d shards on port %u (replication 2)\n",
              kShards, front.port());

  // --- Pipelined traffic with a mid-run shard kill --------------------------
  const auto samples = DemoDataset()->Samples(data::Split::kTest);
  if (samples.empty()) {
    std::fprintf(stderr, "no test samples\n");
    kill_all();
    return 1;
  }
  constexpr int kThreads = 4;
  constexpr int kBatches = 8;
  constexpr int kPipeline = 4;
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> typed_errors{0};
  std::atomic<int64_t> failures{0};

  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      serve::FrameClient client;
      client.set_recv_timeout_ms(20000);  // a hang, not slowness, is a bug
      if (!client.Connect(front.address())) {
        failures.fetch_add(kBatches * kPipeline);
        return;
      }
      for (int batch = 0; batch < kBatches; ++batch) {
        int sent = 0;
        for (int i = 0; i < kPipeline; ++i) {
          eval::RecommendRequest request;
          request.sample =
              samples[static_cast<size_t>(t * 131 + batch * kPipeline + i) %
                      samples.size()];
          request.top_n = 5;
          if (client.SendFrame(
                  serve::EncodeRecommendRequest("city", request))) {
            ++sent;
          } else {
            failures.fetch_add(1);
          }
        }
        for (int i = 0; i < sent; ++i) {
          const serve::FrameClient::Reply reply = client.ReceiveTyped();
          if (reply.kind == serve::FrameClient::Reply::Kind::kResponse) {
            responses.fetch_add(1);
          } else if (reply.kind ==
                     serve::FrameClient::Reply::Kind::kServerError) {
            typed_errors.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  // Predict which shard owns the probe key with a mirror of the router's
  // ring, so the kill deterministically orphans live keyspace.
  serve::cluster::HashRing mirror(router_options.virtual_nodes);
  for (const auto& shard : router_options.shards) mirror.AddShard(shard.id);
  const std::string probe_key =
      serve::cluster::RoutingKey("city", samples[0].user);
  const std::string victim_id = mirror.ShardsFor(probe_key, 1)[0];
  int victim = 0;
  for (int i = 0; i < kShards; ++i) {
    if (router_options.shards[static_cast<size_t>(i)].id == victim_id) {
      victim = i;
    }
  }

  // Kill once the pipeline is demonstrably mid-flight (a quarter of the
  // traffic answered, more still queued behind it).
  const int64_t total = static_cast<int64_t>(kThreads) * kBatches * kPipeline;
  while (responses.load() + typed_errors.load() + failures.load() < total / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::printf("SIGKILL %s (pid %d) mid-run — it owns key '%s'\n",
              victim_id.c_str(), pids[victim], probe_key.c_str());
  ::kill(pids[victim], SIGKILL);
  ::waitpid(pids[victim], nullptr, 0);
  pids[victim] = -1;

  for (std::thread& caller : callers) caller.join();

  // The dead shard's own keyspace must still be served, via its replica.
  bool probe_ok = false;
  {
    serve::FrameClient probe;
    probe.set_recv_timeout_ms(20000);
    if (probe.Connect(front.address())) {
      eval::RecommendRequest request;
      request.sample = samples[0];
      request.top_n = 5;
      const serve::FrameClient::Reply reply =
          probe.CallTyped(serve::EncodeRecommendRequest("city", request));
      probe_ok = reply.kind == serve::FrameClient::Reply::Kind::kResponse;
    }
  }

  const serve::cluster::ClusterStats stats = router.Snapshot();
  std::printf(
      "\nsent %d  responses %lld  typed-errors %lld  transport-failures %lld\n",
      kThreads * kBatches * kPipeline,
      static_cast<long long>(responses.load()),
      static_cast<long long>(typed_errors.load()),
      static_cast<long long>(failures.load()));
  std::printf("router: routed %lld  failovers %lld  shard-unavailable %lld\n",
              static_cast<long long>(stats.frames_routed),
              static_cast<long long>(stats.failovers),
              static_cast<long long>(stats.shard_unavailable));
  for (const serve::cluster::ShardHealth& shard : stats.shards) {
    std::printf("  %s %s breaker=%s ok=%lld failed=%lld pings=%lld/%lld\n",
                shard.id.c_str(), shard.address.c_str(),
                serve::cluster::CircuitBreaker::StateName(shard.breaker),
                static_cast<long long>(shard.requests_ok),
                static_cast<long long>(shard.requests_failed),
                static_cast<long long>(shard.pings_ok),
                static_cast<long long>(shard.pings_ok + shard.pings_failed));
  }

  front.Stop();
  router.Stop();
  kill_all();
  for (const std::string& path : uds_paths) ::unlink(path.c_str());

  // --- The gate -------------------------------------------------------------
  const int64_t expected = total;
  if (!probe_ok) {
    std::fprintf(stderr,
                 "FAIL: dead shard's keyspace not served via failover\n");
    return 1;
  }
  if (stats.failovers < 1) {
    std::fprintf(stderr, "FAIL: no failover recorded after the kill\n");
    return 1;
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "FAIL: %lld transport failures / hung callers\n",
                 static_cast<long long>(failures.load()));
    return 1;
  }
  if (responses.load() + typed_errors.load() != expected) {
    std::fprintf(stderr, "FAIL: replies do not reconcile with frames sent\n");
    return 1;
  }
  if (responses.load() <= expected / 2) {
    std::fprintf(stderr,
                 "FAIL: replication 2 should mask a single shard death\n");
    return 1;
  }
  std::printf("\ncluster demo OK: shard death masked, every caller answered\n");
  return 0;
}
