// Continuous-training demo and CI smoke: the full stream -> train ->
// shadow-gate -> promote cycle of docs/training.md, with every safety
// property checked and a non-zero exit on any violation.
//
//   1. A synthetic city is generated and a TSPN-RA base checkpoint is
//      trained (or restored). The gateway deploys it twice: "city", which
//      the trainer manages, and "frozen", an untouched control endpoint.
//   2. A LiveFeed replays fresh traffic (different behaviour seed, a few
//      never-seen POIs injected mid-stream) into the bounded CheckinStream;
//      the ContinualTrainer drains it on a background thread, training a
//      private candidate clone and checkpointing periodically.
//   3. While the trainer runs, the demo keeps probing "frozen": responses
//      on an unchanged checkpoint must stay bit-identical — the
//      zero-serving-path-interference contract.
//   4. A deliberately lobotomized candidate is pushed at the gate: it must
//      be rejected and the serving deployment must not move.
//   5. At least one real promotion must land (a Gateway::Swap on the
//      trainer thread); the previous checkpoint is retained and a rollback
//      is exercised.
//
// Exit is non-zero on: a hung trainer thread (Finish timeout), any serving
// divergence on the control endpoint, a lobotomized candidate passing the
// gate, no promotion landing, or a failed rollback.
//
// TSPN_CHECKPOINT_DIR overrides where checkpoints live (default ".").

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "eval/model_registry.h"
#include "serve/codec.h"
#include "serve/gateway.h"
#include "train/continual_trainer.h"
#include "train/live_feed.h"

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

/// A candidate with its brain removed: empty rankings, all metrics zero.
/// The gate letting this through would ship a dead model to users.
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

/// Serves `samples` through the endpoint's wire path and returns the
/// responses. A reply that is not a response frame is printed, clears *ok
/// and comes back as an empty response.
std::vector<eval::RecommendResponse> Probe(
    serve::Gateway& gateway, const std::string& endpoint,
    const std::vector<data::SampleRef>& samples, bool* ok) {
  std::vector<eval::RecommendResponse> responses(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    eval::RecommendRequest request;
    request.sample = samples[i];
    request.top_n = 10;
    const std::vector<uint8_t> reply =
        gateway.ServeFrame(serve::EncodeRecommendRequest(endpoint, request));
    if (serve::DecodeRecommendResponse(reply, &responses[i]) !=
        serve::DecodeStatus::kOk) {
      std::string message = "not an error frame either";
      serve::DecodeErrorFrame(reply, &message);
      std::printf("FAIL: probe of '%s' got no response: %s\n",
                  endpoint.c_str(), message.c_str());
      *ok = false;
    }
  }
  return responses;
}

/// Bit-exact comparison of two probe sweeps (ids, scores, tiles).
bool Identical(const std::vector<eval::RecommendResponse>& a,
               const std::vector<eval::RecommendResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].items.size() != b[i].items.size()) return false;
    for (size_t j = 0; j < a[i].items.size(); ++j) {
      if (a[i].items[j].poi_id != b[i].items[j].poi_id ||
          a[i].items[j].score != b[i].items[j].score ||
          a[i].items[j].tile_index != b[i].items[j].tile_index) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  bool ok = true;
  auto fail = [&ok](const char* what) {
    std::printf("FAIL: %s\n", what);
    ok = false;
  };

  // 1. City, base checkpoint, and a gateway serving it twice.
  data::CityProfile profile = data::CityProfile::TestTiny();
  profile.name = "ContinualSim";
  auto city = data::CityDataset::Generate(profile);

  const char* dir_env = std::getenv("TSPN_CHECKPOINT_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : ".";
  const std::string base = dir + "/training_base_v1.ckpt";
  eval::ModelOptions options;
  options.dm = 32;
  std::printf("Preparing checkpoint:\n");
  if (!EnsureCheckpoint("TSPN-RA", city, options, 2, base)) {
    std::printf("checkpoint preparation failed\n");
    return 1;
  }

  serve::Gateway gateway;
  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = city;
  config.checkpoint_path = base;
  config.model_options = options.ToKeyValues();
  std::string error;
  if (!gateway.Deploy("city", config, &error) ||
      !gateway.Deploy("frozen", config, &error)) {
    std::printf("deploy failed: %s\n", error.c_str());
    return 1;
  }

  // 2. Trainer over a bounded stream, wired to the "city" endpoint.
  train::TrainerOptions trainer_options;
  trainer_options.endpoint = "city";
  trainer_options.checkpoint_dir = dir;
  trainer_options.checkpoint_every = 48;
  trainer_options.gate.min_window = 16;
  trainer_options.gate.epsilon = 0.05;
  trainer_options.gate.list_length = 10;

  train::CheckinStream stream(4096);
  train::ContinualTrainer trainer(city, &stream, &gateway, trainer_options);
  if (!trainer.Init(config, &error)) {
    std::printf("trainer init failed: %s\n", error.c_str());
    return 1;
  }
  gateway.AttachTrainer("city", [&trainer] { return trainer.Telemetry(); });

  // The shadow window: the prediction instances recently served (here, the
  // test split stands in for recorded live requests).
  const std::vector<data::SampleRef> window = city->Samples(data::Split::kTest);
  for (const data::SampleRef& sample : window) trainer.Observe(sample);
  std::printf("Shadow window primed with %zu served instances\n",
              window.size());

  // 3. Baseline probe on the control endpoint, then stream + train while
  // re-probing: an unchanged checkpoint must answer bit-identically no
  // matter what the trainer is doing.
  const std::vector<data::SampleRef> probe_samples(
      window.begin(), window.begin() + std::min<size_t>(window.size(), 8));
  const std::vector<eval::RecommendResponse> baseline =
      Probe(gateway, "frozen", probe_samples, &ok);

  trainer.Start();
  train::LiveFeed::Options feed_options;
  feed_options.seed = 2026;
  feed_options.checkins_per_user = 40;
  feed_options.novel_poi_count = 4;
  feed_options.novel_visit_every = 24;
  train::LiveFeed feed(city, feed_options);
  const int64_t total_events = feed.Remaining();
  std::printf("Streaming %lld fresh check-ins (4 never-seen POIs injected)\n",
              static_cast<long long>(total_events));
  int64_t probes_while_training = 0;
  while (feed.PumpInto(stream, 64) > 0) {
    if (!Identical(baseline, Probe(gateway, "frozen", probe_samples, &ok))) {
      fail("serving diverged on an unchanged checkpoint while training");
    }
    ++probes_while_training;
  }
  stream.Close();
  if (!trainer.Finish(/*timeout_ms=*/120000)) {
    fail("trainer thread hung (Finish timed out)");
    return 1;  // nothing below is meaningful with a wedged thread
  }
  if (!Identical(baseline, Probe(gateway, "frozen", probe_samples, &ok))) {
    fail("serving diverged on an unchanged checkpoint after training");
  }
  std::printf("Control endpoint stayed bit-identical across %lld mid-training "
              "probes\n",
              static_cast<long long>(probes_while_training));

  train::TrainerStats stats = trainer.Stats();
  const train::StreamStats stream_stats = stream.Stats();
  std::printf("\nTrainer: %lld events (%lld dropped by backpressure), "
              "%lld samples assembled, %lld trained, %lld cold-start visits, "
              "%lld checkpoints, gate %lld pass / %lld reject, "
              "%lld promotions\n",
              static_cast<long long>(stats.events_consumed),
              static_cast<long long>(stream_stats.dropped),
              static_cast<long long>(stats.samples_assembled),
              static_cast<long long>(stats.samples_trained),
              static_cast<long long>(stats.cold_pois_seen),
              static_cast<long long>(stats.checkpoints),
              static_cast<long long>(stats.gate_passes),
              static_cast<long long>(stats.gate_rejects),
              static_cast<long long>(stats.promotions));
  if (stats.events_consumed + stream_stats.dropped != total_events) {
    fail("stream accounting does not add up");
  }
  if (stats.samples_trained <= 0) fail("no online training happened");
  if (stats.checkpoints <= 0) fail("no candidate checkpoint was written");
  if (stats.cold_pois_seen <= 0 || trainer.priors().NumColdPois() <= 0) {
    fail("cold-start POIs never reached the priors");
  }

  // 4. The gate must block a dead candidate — and must not move serving.
  serve::EndpointStats before_lobotomy;
  gateway.GetEndpointStats("city", &before_lobotomy);
  LobotomizedModel lobotomy;
  if (trainer.GateAndMaybePromote(lobotomy, base)) {
    fail("lobotomized candidate passed the gate");
  }
  train::GateReport lobotomy_report = trainer.LastGateReport();
  std::printf("\nLobotomy probe: %s (live mrr=%.3f candidate mrr=%.3f)\n",
              lobotomy_report.reason.c_str(), lobotomy_report.live_mrr,
              lobotomy_report.candidate_mrr);
  if (lobotomy_report.live_mrr <= trainer_options.gate.epsilon) {
    fail("live model too weak for the lobotomy probe to be meaningful");
  }
  serve::EndpointStats after_lobotomy;
  gateway.GetEndpointStats("city", &after_lobotomy);
  if (after_lobotomy.swaps != before_lobotomy.swaps ||
      after_lobotomy.checkpoint_path != before_lobotomy.checkpoint_path) {
    fail("a rejected candidate still moved the serving deployment");
  }

  // 5. At least one promotion must land. If the streamed candidate already
  // promoted mid-run we are done; otherwise gate the final trained
  // candidate, and — if genuine regression rejects it — a parity candidate,
  // which passes by construction, to prove the promotion machinery.
  stats = trainer.Stats();
  if (stats.promotions == 0 && !stats.last_checkpoint.empty()) {
    auto last = eval::ModelRegistry::Global().Create("TSPN-RA", city, options);
    if (last != nullptr && last->LoadCheckpoint(stats.last_checkpoint)) {
      if (trainer.GateAndMaybePromote(*last, stats.last_checkpoint)) {
        std::printf("Promoted the final streamed candidate: %s\n",
                    stats.last_checkpoint.c_str());
      } else {
        std::printf("Final candidate rejected (%s) — gating a parity "
                    "candidate instead\n",
                    trainer.LastGateReport().reason.c_str());
      }
    }
  }
  stats = trainer.Stats();
  if (stats.promotions == 0) {
    auto parity = eval::ModelRegistry::Global().Create("TSPN-RA", city, options);
    const std::string parity_path = dir + "/training_parity.ckpt";
    if (parity == nullptr || !parity->LoadCheckpoint(stats.live_checkpoint)) {
      fail("could not rebuild a parity candidate");
    } else {
      parity->SaveCheckpoint(parity_path);
      if (!trainer.GateAndMaybePromote(*parity, parity_path)) {
        fail("parity candidate did not promote");
      }
    }
  }
  stats = trainer.Stats();
  serve::EndpointStats serving;
  gateway.GetEndpointStats("city", &serving);
  if (stats.promotions <= 0) {
    fail("no promotion landed");
  } else if (serving.checkpoint_path != stats.live_checkpoint) {
    fail("promotion did not leave the endpoint live on the new checkpoint");
  } else {
    std::printf("Promotion landed: '%s' now serves %s (%lld swap%s)\n",
                "city", serving.checkpoint_path.c_str(),
                static_cast<long long>(serving.swaps),
                serving.swaps == 1 ? "" : "s");
  }

  // 6. One-command rollback onto the retained last-good checkpoint.
  if (!trainer.Rollback(&error)) {
    fail("rollback failed");
    std::printf("  (%s)\n", error.c_str());
  } else {
    gateway.GetEndpointStats("city", &serving);
    std::printf("Rollback restored %s\n", serving.checkpoint_path.c_str());
  }

  // Telemetry rides the ordinary stats surface.
  serve::EndpointStats telemetry_stats;
  gateway.GetEndpointStats("city", &telemetry_stats);
  if (!telemetry_stats.trainer.attached ||
      telemetry_stats.trainer.events_consumed != stats.events_consumed) {
    fail("trainer telemetry missing from the gateway stats");
  } else {
    std::printf("\nTelemetry via GetEndpointStats: trainer attached, "
                "%lld events, %lld checkpoints, %lld promotions, "
                "last gate eval %.1fms\n",
                static_cast<long long>(telemetry_stats.trainer.events_consumed),
                static_cast<long long>(telemetry_stats.trainer.checkpoints),
                static_cast<long long>(telemetry_stats.trainer.promotions),
                trainer.Stats().last_gate_eval_ms);
  }

  gateway.DetachTrainer("city");
  gateway.Undeploy("city");
  gateway.Undeploy("frozen");
  std::printf("\n%s\n", ok ? "Training smoke PASSED" : "Training smoke FAILED");
  return ok ? 0 : 1;
}
