// Reproduces Table V: memory cost, training time and inference time of the
// main models on the two urban datasets. Also writes
// BENCH_table5_efficiency.json with per-model ms/query, plus warm and
// cold-history-cache TSPN-RA inference ms/query, plus a throughput mode:
// QPS and p50/p95 latency of the serial per-query loop vs RecommendBatch at
// several batch sizes vs the serve::InferenceEngine worker pool with
// request coalescing.

#include <algorithm>
#include <cstdio>
#include <future>
#include <set>
#include <unistd.h>

#include "bench/bench_common.h"
#include "common/percentile.h"
#include "common/span.h"
#include "eval/efficiency.h"
#include "eval/model_registry.h"
#include "plan/itinerary.h"
#include "serve/cluster/shard_router.h"
#include "serve/frame_client.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"
#include "serve/inference_engine.h"
#include "train/continual_trainer.h"
#include "train/live_feed.h"
#include "train/shadow_eval.h"

namespace {

using namespace tspn;

std::string MsString(double ms) { return common::TablePrinter::Fixed(ms, 3); }

void AddJson(bench::JsonReporter& reporter, const std::string& dataset_name,
             const eval::EfficiencyReport& r) {
  reporter.Add(r.model_name + "/" + dataset_name,
               {{"ms_per_query", r.MsPerQuery()},
                {"train_seconds", r.train_seconds},
                {"peak_train_mb",
                 static_cast<double>(r.peak_train_bytes) / (1 << 20)}});
}

/// Times warm inference passes over the test split and returns ms/query.
/// Assumes the model is trained and one eval pass has already run (so the
/// history cache holds every graph and its HGAT knowledge); takes the
/// fastest of kPasses so the figure isn't drowned by scheduler noise.
double MeasureWarmInference(const core::TspnRa& tspn,
                            const data::CityDataset& dataset,
                            const bench::BenchSettings& settings,
                            int64_t eval_count) {
  constexpr int kPasses = 3;
  double best = 0.0;
  for (int p = 0; p < kPasses; ++p) {
    common::Stopwatch watch;
    eval::EvaluateModel(tspn, dataset, data::Split::kTest, settings.eval_samples,
                        settings.seed);
    const double seconds = watch.ElapsedSeconds();
    if (p == 0 || seconds < best) best = seconds;
  }
  return best * 1000.0 / std::max<double>(1, static_cast<double>(eval_count));
}

/// Times first-visit queries: one test query per distinct (user, traj)
/// history, each answered by a model restored from `tspn`'s weights with a
/// cold history cache, so every query builds its QR-P graph and runs HGAT.
/// The warm rows reuse both. Fastest of kPasses, each on a fresh model.
double MeasureColdHistoryInference(const core::TspnRa& tspn,
                                   std::shared_ptr<data::CityDataset> dataset) {
  std::vector<eval::RecommendRequest> requests;
  std::set<std::pair<int32_t, int32_t>> seen;
  for (const data::SampleRef& sample : dataset->Samples(data::Split::kTest)) {
    if (!seen.insert({sample.user, sample.traj}).second) continue;
    eval::RecommendRequest request;
    request.sample = sample;
    request.top_n = 10;
    requests.push_back(request);
  }
  const std::string checkpoint =
      "/tmp/bench_cold_history_" + std::to_string(::getpid()) + ".ckpt";
  tspn.SaveCheckpoint(checkpoint);
  constexpr int kPasses = 3;
  double best = 0.0;
  for (int p = 0; p < kPasses; ++p) {
    core::TspnRa cold(dataset, tspn.config());
    TSPN_CHECK(cold.LoadCheckpoint(checkpoint));
    cold.DebugTileEmbeddings();  // weight-derived caches, outside the timer
    common::Stopwatch watch;
    for (const eval::RecommendRequest& request : requests) {
      cold.Recommend(request);
    }
    const double seconds = watch.ElapsedSeconds();
    if (p == 0 || seconds < best) best = seconds;
  }
  std::remove(checkpoint.c_str());
  return best * 1000.0 /
         std::max<double>(1, static_cast<double>(requests.size()));
}

void RunEfficiency(const std::string& title,
                   std::shared_ptr<data::CityDataset> dataset,
                   const bench::BenchSettings& settings,
                   bench::JsonReporter& reporter) {
  common::TablePrinter table({"Model", "Peak tensor mem", "Train (mm:ss)",
                              "Infer (mm:ss)", "ms/query"});
  const std::vector<std::string> models = {"STAN",  "HMT-GRN",        "DeepMove",
                                           "LSTPM", "Graph-Flashback", "STiSAN"};
  eval::TrainOptions options = bench::MakeTrainOptions(settings, 5e-3f);

  {
    // TSPN-RA's table row is measured exactly like the baselines below
    // (MeasureEfficiency: train, then one cold evaluation pass) so the
    // cross-model comparison stays apples-to-apples. The warm-pass figure
    // runs afterwards and only feeds the JSON entry.
    core::TspnRa tspn(dataset, bench::MakeTspnConfig(*dataset, settings));
    nn::ResetMemoryStats();
    common::Stopwatch train_watch;
    tspn.Train(bench::MakeTrainOptions(settings, 3e-3f));
    eval::EfficiencyReport r;
    r.model_name = tspn.name();
    r.train_seconds = train_watch.ElapsedSeconds();
    r.peak_train_bytes = nn::PeakTensorBytes();
    common::Stopwatch infer_watch;
    eval::RankingMetrics metrics = eval::EvaluateModel(
        tspn, *dataset, data::Split::kTest, settings.eval_samples, settings.seed);
    r.infer_seconds = infer_watch.ElapsedSeconds();
    r.eval_samples = metrics.count();
    table.AddRow({r.model_name, eval::FormatBytes(r.peak_train_bytes),
                  eval::FormatMinSec(r.train_seconds),
                  eval::FormatMinSec(r.infer_seconds), MsString(r.MsPerQuery())});
    AddJson(reporter, title, r);

    const double warm_ms =
        MeasureWarmInference(tspn, *dataset, settings, r.eval_samples);
    reporter.Add("TSPN-RA-inference/" + title, {{"ms_per_query", warm_ms}});
    std::printf("  [TSPN-RA] warm inference %s ms/query (history cache "
                "%.1f KB)\n",
                MsString(warm_ms).c_str(),
                static_cast<double>(tspn.HistoryCacheBytes()) / 1024.0);
    const double cold_ms = MeasureColdHistoryInference(tspn, dataset);
    reporter.Add("TSPN-RA-inference-cold/" + title,
                 {{"ms_per_query", cold_ms}});
    std::printf("  [TSPN-RA] cold-history inference %s ms/query\n",
                MsString(cold_ms).c_str());
  }
  eval::ModelOptions model_options;
  model_options.dm = settings.dm;
  model_options.seed = settings.seed;
  for (const std::string& name : models) {
    auto factory = [&]() -> std::unique_ptr<eval::NextPoiModel> {
      auto model =
          eval::ModelRegistry::Global().Create(name, dataset, model_options);
      TSPN_CHECK(model != nullptr) << "unknown baseline: " << name;
      return model;
    };
    eval::EfficiencyReport r = eval::MeasureEfficiency(
        factory, *dataset, options, settings.eval_samples, settings.seed);
    table.AddRow({r.model_name, eval::FormatBytes(r.peak_train_bytes),
                  eval::FormatMinSec(r.train_seconds),
                  eval::FormatMinSec(r.infer_seconds), MsString(r.MsPerQuery())});
    AddJson(reporter, title, r);
  }
  std::printf("\n== Efficiency on %s ==\n", title.c_str());
  table.Print();
}

struct ThroughputResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

void ReportThroughput(bench::JsonReporter& reporter, const char* mode,
                      const ThroughputResult& r, double serial_qps) {
  char name[96];
  std::snprintf(name, sizeof(name), "TSPN-RA-throughput/%s", mode);
  reporter.Add(name, {{"qps", r.qps},
                      {"p50_latency_ms", r.p50_ms},
                      {"p95_latency_ms", r.p95_ms},
                      {"speedup_vs_serial",
                       serial_qps > 0.0 ? r.qps / serial_qps : 0.0}});
  std::printf("  [throughput] %-10s %8.1f qps  p50 %7.3f ms  p95 %7.3f ms"
              "  (%.2fx serial)\n",
              mode, r.qps, r.p50_ms, r.p95_ms,
              serial_qps > 0.0 ? r.qps / serial_qps : 0.0);
}

/// Serial per-query loop: the pre-batching serving story. Per-query latency
/// is the query's own wall time.
ThroughputResult MeasureSerial(const core::TspnRa& tspn,
                               const std::vector<data::SampleRef>& samples,
                               int64_t top_n) {
  ThroughputResult r;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  eval::RecommendRequest request;
  request.top_n = top_n;
  common::Stopwatch total;
  for (const data::SampleRef& sample : samples) {
    request.sample = sample;
    common::Stopwatch query;
    tspn.Recommend(request);
    latencies.push_back(query.ElapsedSeconds() * 1000.0);
  }
  const double seconds = total.ElapsedSeconds();
  r.qps = seconds > 0.0 ? static_cast<double>(samples.size()) / seconds : 0.0;
  r.p50_ms = common::PercentileOf(latencies, 0.50);
  r.p95_ms = common::PercentileOf(latencies, 0.95);
  return r;
}

/// RecommendBatch over fixed-size chunks; every query in a chunk shares the
/// chunk's wall time as its latency (it waits for the whole batch).
ThroughputResult MeasureBatched(const core::TspnRa& tspn,
                                const std::vector<data::SampleRef>& samples,
                                int64_t top_n, size_t batch_size) {
  ThroughputResult r;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  std::vector<eval::RecommendRequest> requests(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    requests[i].sample = samples[i];
    requests[i].top_n = top_n;
  }
  common::Span<eval::RecommendRequest> all(requests);
  common::Stopwatch total;
  for (size_t begin = 0; begin < all.size(); begin += batch_size) {
    common::Span<eval::RecommendRequest> chunk = all.subspan(begin, batch_size);
    common::Stopwatch batch_watch;
    tspn.RecommendBatch(chunk);
    const double batch_ms = batch_watch.ElapsedSeconds() * 1000.0;
    for (size_t i = 0; i < chunk.size(); ++i) latencies.push_back(batch_ms);
  }
  const double seconds = total.ElapsedSeconds();
  r.qps = seconds > 0.0 ? static_cast<double>(samples.size()) / seconds : 0.0;
  r.p50_ms = common::PercentileOf(latencies, 0.50);
  r.p95_ms = common::PercentileOf(latencies, 0.95);
  return r;
}

/// The full serving path: queue + worker pool + time/size coalescing.
/// Latencies come from the engine's own submit-to-completion stats.
ThroughputResult MeasureEngine(const core::TspnRa& tspn,
                               const std::vector<data::SampleRef>& samples,
                               int64_t top_n) {
  const serve::EngineOptions options{};
  serve::InferenceEngine engine(tspn, options);
  std::vector<std::future<eval::RecommendResponse>> futures;
  futures.reserve(samples.size());
  common::Stopwatch total;
  for (const data::SampleRef& sample : samples) {
    eval::RecommendRequest request;
    request.sample = sample;
    request.top_n = top_n;
    futures.push_back(engine.Submit(request));
  }
  for (auto& future : futures) future.get();
  const double seconds = total.ElapsedSeconds();
  serve::EngineStats stats = engine.GetStats();
  ThroughputResult r;
  r.qps = seconds > 0.0 ? static_cast<double>(samples.size()) / seconds : 0.0;
  r.p50_ms = stats.p50_latency_ms;
  r.p95_ms = stats.p95_latency_ms;
  std::printf("  [throughput] engine coalesced %lld requests into %lld "
              "batches (mean %.1f, max %lld) on %d thread(s)\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.batches), stats.mean_batch_size,
              static_cast<long long>(stats.max_batch_observed),
              options.num_threads);
  return r;
}

/// Constrained-query row: the same trained model serving geo-fenced,
/// novelty-seeking requests through the batched v2 path. Constraints apply
/// before top-k selection (the screen widens until the allowed pool fills
/// top_n), so this gates the filtering hot path; ms/query is tracked by
/// tools/run_benches.sh next to the unconstrained rows.
void MeasureConstrained(const core::TspnRa& tspn,
                        const data::CityDataset& dataset,
                        const std::vector<data::SampleRef>& samples,
                        int64_t top_n, bench::JsonReporter& reporter) {
  const geo::BoundingBox& bbox = dataset.profile().bbox;
  const double radius_km =
      0.25 * geo::HaversineKm({bbox.min_lat, bbox.min_lon},
                              {bbox.max_lat, bbox.max_lon});
  std::vector<eval::RecommendRequest> requests;
  requests.reserve(samples.size());
  for (const data::SampleRef& sample : samples) {
    eval::RecommendRequest request;
    request.sample = sample;
    request.top_n = top_n;
    request.constraints.geo_center = bbox.Center();
    request.constraints.geo_radius_km = radius_km;
    request.constraints.exclude_visited = true;
    requests.push_back(request);
  }
  // Fastest of kPasses, like MeasureWarmInference: at smoke scale the whole
  // pass is a few tens of ms, well inside scheduler-noise territory.
  constexpr size_t kBatch = 32;
  constexpr int kPasses = 3;
  common::Span<eval::RecommendRequest> all(requests);
  double best_seconds = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    common::Stopwatch watch;
    for (size_t begin = 0; begin < all.size(); begin += kBatch) {
      tspn.RecommendBatch(all.subspan(begin, kBatch));
    }
    const double seconds = watch.ElapsedSeconds();
    if (pass == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  const double ms_per_query =
      requests.empty() ? 0.0
                       : best_seconds * 1000.0 /
                             static_cast<double>(requests.size());
  reporter.Add("TSPN-RA-constrained/geo-fence+novelty",
               {{"ms_per_query", ms_per_query}});
  std::printf("  [constrained] geo fence %.1f km + exclude-visited: %s "
              "ms/query (batch %zu)\n",
              radius_km, MsString(ms_per_query).c_str(), kBatch);
}

/// Throughput mode: the same trained screen-stress model serving the test
/// split through the three serving strategies. Batched must beat serial at
/// batch >= 8 (tracked as speedup_vs_serial in the JSON artifact).
void RunThroughput(const core::TspnRa& tspn,
                   const data::CityDataset& dataset,
                   const bench::BenchSettings& settings,
                   bench::JsonReporter& reporter) {
  std::vector<data::SampleRef> samples = dataset.Samples(data::Split::kTest);
  if (settings.eval_samples > 0 &&
      static_cast<int64_t>(samples.size()) > settings.eval_samples) {
    samples.resize(static_cast<size_t>(settings.eval_samples));
  }
  const int64_t top_n = 10;
  std::printf("\n== Throughput (batched vs serial, %zu queries) ==\n",
              samples.size());
  // Warm-up: caches built, allocator warmed.
  std::vector<eval::RecommendRequest> warmup(std::min<size_t>(8, samples.size()));
  for (size_t i = 0; i < warmup.size(); ++i) {
    warmup[i].sample = samples[i];
    warmup[i].top_n = top_n;
  }
  tspn.RecommendBatch(common::Span<eval::RecommendRequest>(warmup));
  ThroughputResult serial = MeasureSerial(tspn, samples, top_n);
  ReportThroughput(reporter, "serial", serial, serial.qps);
  for (size_t batch_size : {size_t{8}, size_t{32}}) {
    ThroughputResult batched =
        MeasureBatched(tspn, samples, top_n, batch_size);
    char mode[32];
    std::snprintf(mode, sizeof(mode), "batch%zu", batch_size);
    ReportThroughput(reporter, mode, batched, serial.qps);
  }
  ThroughputResult engine = MeasureEngine(tspn, samples, top_n);
  ReportThroughput(reporter, "engine", engine, serial.qps);
  MeasureConstrained(tspn, dataset, samples, top_n, reporter);
}

/// Production-leaning configuration where stage-1 screening dominates: a
/// fine fixed-grid partition (~9.2k candidate tiles vs ~100 quad-tree
/// leaves) and no history-graph module, so the per-query cost is mostly the
/// screen itself.
void RunScreenStress(std::shared_ptr<data::CityDataset> dataset,
                     const bench::BenchSettings& settings,
                     bench::JsonReporter& reporter) {
  core::TspnRaConfig config = bench::MakeTspnConfig(*dataset, settings);
  config.use_quadtree = false;
  config.grid_cells_per_side = 96;
  config.top_k_tiles = 64;
  config.use_graph = false;
  config.image_resolution = 16;  // keep one-time tile rendering cheap
  core::TspnRa tspn(dataset, config);
  eval::TrainOptions options = bench::MakeTrainOptions(settings, 3e-3f);
  options.epochs = 1;
  tspn.Train(options);

  // Warm-up pass, then the shared warm measurement.
  eval::RankingMetrics metrics = eval::EvaluateModel(
      tspn, *dataset, data::Split::kTest, settings.eval_samples, settings.seed);
  const double warm_ms =
      MeasureWarmInference(tspn, *dataset, settings, metrics.count());

  char stress_name[64];
  std::snprintf(stress_name, sizeof(stress_name),
                "TSPN-RA-inference/ScreenStress(%dx%d-grid)",
                config.grid_cells_per_side, config.grid_cells_per_side);
  reporter.Add(stress_name, {{"ms_per_query", warm_ms}});
  std::printf("\n== Screen stress (%lld grid tiles) ==\n",
              static_cast<long long>(tspn.NumCandidateTiles()));
  std::printf("  [TSPN-RA] warm inference %s ms/query\n",
              MsString(warm_ms).c_str());

  // Throughput mode reuses the trained stress model: with ~9.2k candidate
  // tiles the per-query cost is dominated by exactly the stages that batch
  // into shared GEMMs.
  RunThroughput(tspn, *dataset, settings, reporter);
}

/// Sequential wire round-trips through an already-connected client; one
/// latency sample per call.
ThroughputResult MeasureWire(serve::FrameClient& client,
                             const std::vector<std::vector<uint8_t>>& frames) {
  ThroughputResult r;
  std::vector<double> latencies;
  latencies.reserve(frames.size());
  common::Stopwatch total;
  for (const std::vector<uint8_t>& frame : frames) {
    common::Stopwatch call;
    if (client.Call(frame).empty()) return r;  // zeros flag the failure
    latencies.push_back(call.ElapsedSeconds() * 1000.0);
  }
  const double seconds = total.ElapsedSeconds();
  r.qps = seconds > 0.0 ? static_cast<double>(frames.size()) / seconds : 0.0;
  r.p50_ms = common::PercentileOf(latencies, 0.50);
  r.p95_ms = common::PercentileOf(latencies, 0.95);
  return r;
}

/// Router-overhead row: the same shard process serving the same frames
/// directly vs through a ShardRouter hop (both legs on unix-domain
/// sockets), so the qps/percentile delta is exactly the router tier's cost
/// — decode, ring lookup, token bucket, breaker, and one extra socket hop.
void RunRouterOverhead(std::shared_ptr<data::CityDataset> dataset,
                       const bench::BenchSettings& settings,
                       bench::JsonReporter& reporter) {
  eval::ModelOptions model_options;
  model_options.dm = 16;
  model_options.seed = settings.seed;
  model_options.image_resolution = 16;
  const std::string checkpoint =
      "/tmp/bench_router_" + std::to_string(::getpid()) + ".ckpt";
  {
    auto model =
        eval::ModelRegistry::Global().Create("TSPN-RA", dataset, model_options);
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;
    model->Train(train);
    model->SaveCheckpoint(checkpoint);
  }

  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = dataset;
  config.checkpoint_path = checkpoint;
  config.model_options = model_options.ToKeyValues();
  config.engine_options.num_threads = 2;
  config.engine_options.coalesce_window_us = 0;  // latency-leaning drain
  serve::Gateway gateway;
  if (!gateway.Deploy("city", config)) {
    std::fprintf(stderr, "  [router] shard deploy failed; row skipped\n");
    std::remove(checkpoint.c_str());
    return;
  }
  const std::string shard_path =
      "/tmp/bench_router_shard_" + std::to_string(::getpid()) + ".sock";
  serve::FrameServerOptions shard_server_options;
  shard_server_options.io_threads = 1;
  shard_server_options.unix_path = shard_path;
  serve::FrameServer shard_server(gateway, shard_server_options);
  if (!shard_server.Start()) {
    std::fprintf(stderr, "  [router] shard listen failed; row skipped\n");
    std::remove(checkpoint.c_str());
    return;
  }

  serve::cluster::RouterOptions router_options;
  router_options.shards.push_back(serve::cluster::ShardConfig{
      "shard0", common::SocketAddress::Unix(shard_path)});
  router_options.ping_interval_ms = 0;
  serve::cluster::ShardRouter router(router_options);
  router.Start();
  const std::string router_path =
      "/tmp/bench_router_front_" + std::to_string(::getpid()) + ".sock";
  serve::FrameServerOptions front_options;
  front_options.io_threads = 1;
  front_options.unix_path = router_path;
  serve::FrameServer front(router, front_options);
  front.Start();

  std::vector<data::SampleRef> samples = dataset->Samples(data::Split::kTest);
  const size_t count =
      std::min<size_t>(samples.size(),
                       settings.eval_samples > 0
                           ? static_cast<size_t>(settings.eval_samples)
                           : samples.size());
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    eval::RecommendRequest request;
    request.sample = samples[i];
    request.top_n = 10;
    frames.push_back(serve::EncodeRecommendRequest("city", request));
  }

  std::printf("\n== Router overhead (direct shard vs via-router, %zu queries, "
              "unix sockets) ==\n",
              frames.size());
  serve::FrameClient direct;
  serve::FrameClient routed;
  if (direct.Connect(common::SocketAddress::Unix(shard_path)) &&
      routed.Connect(common::SocketAddress::Unix(router_path))) {
    MeasureWire(direct, frames);  // warm-up: caches, pools, allocator
    MeasureWire(routed, frames);
    const ThroughputResult direct_r = MeasureWire(direct, frames);
    const ThroughputResult routed_r = MeasureWire(routed, frames);
    ReportThroughput(reporter, "shard-direct", direct_r, direct_r.qps);
    ReportThroughput(reporter, "via-router", routed_r, direct_r.qps);
    std::printf("  [router] p50 overhead %+.3f ms, p95 %+.3f ms per query\n",
                routed_r.p50_ms - direct_r.p50_ms,
                routed_r.p95_ms - direct_r.p95_ms);
  } else {
    std::fprintf(stderr, "  [router] connect failed; row skipped\n");
  }

  front.Stop();
  router.Stop();
  shard_server.Stop();
  std::remove(checkpoint.c_str());
}

/// Continual-training rows. Ingest: check-ins/sec through the full
/// LiveFeed -> CheckinStream -> trainer-thread path (PopBatch, per-user
/// sample assembly, TrainOnline on the private candidate clone), with
/// gating disabled by pushing checkpoint_every past the stream length so
/// the row isolates the steady-state training loop. Shadow gate: one
/// PromotionGate::Evaluate over a full default-size replay window — both
/// sides replayed via RecommendBatch — reported per gate pass and per
/// replayed query (fastest of kPasses, like the other warm A/Bs).
void RunTrainerBench(std::shared_ptr<data::CityDataset> dataset,
                     const bench::BenchSettings& settings,
                     bench::JsonReporter& reporter) {
  eval::ModelOptions model_options;
  model_options.dm = 16;
  model_options.seed = settings.seed;
  model_options.image_resolution = 16;
  const std::string checkpoint =
      "/tmp/bench_trainer_" + std::to_string(::getpid()) + ".ckpt";
  auto model =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset, model_options);
  {
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;
    model->Train(train);
    model->SaveCheckpoint(checkpoint);
  }

  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = dataset;
  config.checkpoint_path = checkpoint;
  config.model_options = model_options.ToKeyValues();
  serve::Gateway gateway;
  if (!gateway.Deploy("city", config)) {
    std::fprintf(stderr, "  [trainer] deploy failed; rows skipped\n");
    std::remove(checkpoint.c_str());
    return;
  }

  train::TrainerOptions trainer_options;
  trainer_options.endpoint = "city";
  trainer_options.checkpoint_dir = "/tmp";
  trainer_options.checkpoint_every = int64_t{1} << 40;  // never: pure ingest
  trainer_options.pop_batch = 256;
  trainer_options.pop_wait_ms = 20;
  trainer_options.seed = settings.seed;
  train::CheckinStream stream(1 << 16);  // roomy: drops would skew the rate
  train::ContinualTrainer trainer(dataset, &stream, &gateway,
                                  trainer_options);
  std::string error;
  if (!trainer.Init(config, &error)) {
    std::fprintf(stderr, "  [trainer] init failed (%s); rows skipped\n",
                 error.c_str());
    std::remove(checkpoint.c_str());
    return;
  }

  train::LiveFeed::Options feed_options;
  feed_options.seed = settings.seed ^ 0xF00DULL;
  feed_options.checkins_per_user = 24;
  feed_options.novel_poi_count = 4;
  train::LiveFeed feed(dataset, feed_options);
  const int64_t total = static_cast<int64_t>(feed.events().size());

  trainer.Start();
  common::Stopwatch watch;
  feed.PumpInto(stream, -1);
  stream.Close();
  const bool finished = trainer.Finish(120000);
  const double seconds = watch.ElapsedSeconds();
  const train::TrainerStats stats = trainer.Stats();
  if (!finished || stats.events_consumed != total) {
    std::fprintf(stderr, "  [trainer] ingest run incomplete (%lld/%lld "
                 "events); rows skipped\n",
                 static_cast<long long>(stats.events_consumed),
                 static_cast<long long>(total));
    std::remove(checkpoint.c_str());
    return;
  }
  const double ingest_qps =
      seconds > 0.0 ? static_cast<double>(stats.events_consumed) / seconds
                    : 0.0;
  reporter.Add("TSPN-RA-trainer/ingest",
               {{"qps", ingest_qps},
                {"events", static_cast<double>(stats.events_consumed)},
                {"samples_trained",
                 static_cast<double>(stats.samples_trained)}});
  std::printf("\n== Continual trainer ==\n");
  std::printf("  [trainer] ingest %8.1f check-ins/sec (%lld events, %lld "
              "online updates, %.2fs)\n",
              ingest_qps, static_cast<long long>(stats.events_consumed),
              static_cast<long long>(stats.samples_trained), seconds);

  // Shadow-gate latency on a full default window (the per-promotion cost a
  // gate pass adds to the trainer loop). Candidate == live replica here:
  // the row tracks replay cost, not verdict quality.
  train::GateOptions gate_options;
  train::ShadowEvaluator evaluator(dataset, gate_options);
  std::vector<data::SampleRef> samples = dataset->Samples(data::Split::kTest);
  const size_t window =
      std::min(samples.size(), static_cast<size_t>(gate_options.shadow_window));
  for (size_t i = 0; i < window; ++i) evaluator.Observe(samples[i]);
  train::PromotionGate gate(gate_options);
  constexpr int kPasses = 3;
  train::GateReport best = gate.Evaluate(evaluator, *model, *model);
  for (int p = 1; p < kPasses; ++p) {
    train::GateReport r = gate.Evaluate(evaluator, *model, *model);
    if (r.eval_ms < best.eval_ms) best = r;
  }
  const double denom = std::max<double>(1, static_cast<double>(best.window));
  reporter.Add("TSPN-RA-trainer/shadow-gate",
               {{"ms_per_gate_pass", best.eval_ms},
                {"ms_per_query", best.eval_ms / denom},
                {"window", static_cast<double>(best.window)}});
  std::printf("  [trainer] shadow gate %s ms/pass over %lld-sample window "
              "(%s ms/replayed query)\n",
              MsString(best.eval_ms).c_str(),
              static_cast<long long>(best.window),
              MsString(best.eval_ms / denom).c_str());
  std::remove(checkpoint.c_str());
}

/// Itinerary-planner row: wall-clock per 5-stop beam plan against a tiny
/// trained TSPN-RA, default batched scorer (one RecommendBatch per
/// frontier wave). Min-of-kPasses over a fixed request set, like the other
/// warm rows.
void RunPlannerBench(std::shared_ptr<data::CityDataset> dataset,
                     const bench::BenchSettings& settings,
                     bench::JsonReporter& reporter) {
  eval::ModelOptions model_options;
  model_options.dm = 16;
  model_options.seed = settings.seed;
  model_options.image_resolution = 16;
  auto model =
      eval::ModelRegistry::Global().Create("TSPN-RA", dataset, model_options);
  {
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 24;
    model->Train(train);
  }

  plan::PlannerOptions planner_options;
  planner_options.beam_width = 4;
  planner_options.candidates_per_expansion = 8;
  plan::ItineraryPlanner planner(*model, dataset, planner_options);

  const std::vector<data::SampleRef> samples =
      dataset->Samples(data::Split::kTest);
  const size_t count = std::min<size_t>(samples.size(), 16);
  std::vector<plan::ItineraryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    plan::ItineraryRequest request;
    request.start = samples[i];
    request.k_stops = 5;
    request.time_budget_hours = 12.0;
    request.dwell_hours = 0.5;
    requests.push_back(request);
  }
  if (requests.empty()) {
    std::fprintf(stderr, "  [plan] no test samples; row skipped\n");
    return;
  }

  constexpr int kPasses = 3;
  auto timed_pass = [&] {
    common::Stopwatch watch;
    for (const plan::ItineraryRequest& request : requests) {
      plan::ItineraryResponse response;
      planner.Plan(request, &response);
    }
    return watch.ElapsedSeconds();
  };
  timed_pass();  // warm-up: history graphs, inference caches
  double best = timed_pass();
  for (int p = 1; p < kPasses; ++p) best = std::min(best, timed_pass());
  const double ms_per_plan =
      best * 1000.0 / static_cast<double>(requests.size());

  std::printf("\n== Itinerary planner (beam, k=5, %zu requests) ==\n",
              requests.size());
  std::printf("  [plan] %s ms/plan\n", MsString(ms_per_plan).c_str());
  reporter.Add("TSPN-RA-plan/beam-k5", {{"ms_per_plan", ms_per_plan}});
}

}  // namespace

int main() {
  using namespace tspn;
  bench::BenchSettings settings = bench::DefaultSettings();
  std::printf("Table V — model efficiency comparison\n"
              "(peak live tensor bytes stand in for GPU memory; wall-clock on "
              "CPU)\n");
  bench::JsonReporter reporter("table5_efficiency");
  auto nyc = bench::MakeDataset(data::CityProfile::FoursquareNyc());
  RunEfficiency("Foursquare(NYC-sim)", nyc, settings, reporter);
  RunEfficiency("Foursquare(TKY-sim)",
                bench::MakeDataset(data::CityProfile::FoursquareTky()), settings,
                reporter);
  RunScreenStress(nyc, settings, reporter);
  RunRouterOverhead(nyc, settings, reporter);
  RunTrainerBench(nyc, settings, reporter);
  RunPlannerBench(nyc, settings, reporter);
  reporter.Write();
  std::printf("\nShape check vs paper Table V: STAN trains slowest (O(L^2) "
              "interval matrices over a long window); HMT-GRN infers slowest "
              "(hierarchical beam search); Graph-Flashback trains fastest; "
              "TSPN-RA stays competitive on inference.\n");
  return 0;
}
