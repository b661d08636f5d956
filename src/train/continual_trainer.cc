#include "train/continual_trainer.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/check.h"
#include "eval/model_registry.h"

namespace tspn::train {

ContinualTrainer::ContinualTrainer(
    std::shared_ptr<const data::CityDataset> dataset, CheckinStream* stream,
    serve::Gateway* gateway, TrainerOptions options)
    : dataset_(std::move(dataset)),
      stream_(stream),
      gateway_(gateway),
      options_(std::move(options)),
      assembler_(SampleAssembler::Options{options_.window_gap_hours,
                                          options_.max_history}),
      evaluator_(dataset_, options_.gate),
      gate_(options_.gate),
      priors_(dataset_, eval::ColdStartPriors::Options{}) {
  TSPN_CHECK(dataset_ != nullptr);
  TSPN_CHECK(stream_ != nullptr);
  TSPN_CHECK(gateway_ != nullptr);
  TSPN_CHECK_GT(options_.checkpoint_every, 0);
}

ContinualTrainer::~ContinualTrainer() { Stop(); }

bool ContinualTrainer::Init(const serve::DeployConfig& live_config,
                            std::string* error) {
  eval::ModelOptions model_options;
  if (!eval::ModelOptions::FromKeyValues(live_config.model_options,
                                         &model_options, error)) {
    return false;
  }
  auto build = [&](const char* role) -> std::unique_ptr<eval::NextPoiModel> {
    std::unique_ptr<eval::NextPoiModel> model =
        eval::ModelRegistry::Global().Create(live_config.model_name, dataset_,
                                             model_options);
    if (model == nullptr) {
      if (error != nullptr) {
        *error = "unknown model '" + live_config.model_name + "'";
      }
      return nullptr;
    }
    if (!live_config.checkpoint_path.empty() &&
        !model->LoadCheckpoint(live_config.checkpoint_path)) {
      if (error != nullptr) {
        *error = std::string("cannot restore ") + role + " from checkpoint '" +
                 live_config.checkpoint_path + "'";
      }
      return nullptr;
    }
    return model;
  };
  candidate_ = build("candidate");
  if (candidate_ == nullptr) return false;
  live_replica_ = build("live replica");
  if (live_replica_ == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.live_checkpoint = live_config.checkpoint_path;
  }
  return true;
}

void ContinualTrainer::Start() {
  TSPN_CHECK(candidate_ != nullptr) << "Init() must succeed before Start()";
  TSPN_CHECK(!started_);
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

bool ContinualTrainer::Finish(int64_t timeout_ms) {
  if (!started_) return true;
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    if (!done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return done_; })) {
      return false;  // hung: the thread is still draining or wedged
    }
  }
  if (thread_.joinable()) thread_.join();
  return true;
}

void ContinualTrainer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void ContinualTrainer::Observe(const data::SampleRef& sample) {
  evaluator_.Observe(sample);
}

void ContinualTrainer::Loop() {
  while (!stop_.load()) {
    std::vector<StreamEvent> events =
        stream_->PopBatch(options_.pop_batch, options_.pop_wait_ms);
    if (events.empty()) {
      if (stream_->closed()) break;
      continue;
    }
    ProcessEvents(events);
  }
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_ = true;
  }
  done_cv_.notify_all();
}

void ContinualTrainer::ProcessEvents(const std::vector<StreamEvent>& events) {
  const int64_t num_known = static_cast<int64_t>(dataset_->pois().size());
  std::vector<eval::OnlineSample> samples;
  int64_t cold_seen = 0;
  for (const StreamEvent& event : events) {
    // Cold-start observations feed the priors; known visits feed them too
    // (the category-time and density statistics are global).
    if (event.novel || event.checkin.poi_id >= num_known) {
      priors_.AddPoi(event.checkin.poi_id, event.loc, event.category);
      priors_.RecordVisit(event.loc, event.category, event.checkin.timestamp);
      ++cold_seen;
    } else {
      const data::Poi& poi = dataset_->poi(event.checkin.poi_id);
      priors_.RecordVisit(poi.loc, poi.category, event.checkin.timestamp);
    }
    assembler_.Feed(event, &samples);
  }
  const int64_t trained = candidate_->TrainOnline(
      common::Span<const eval::OnlineSample>(samples.data(), samples.size()),
      eval::TrainOptions{.batch_size = static_cast<int32_t>(options_.batch_size),
                         .lr = static_cast<float>(options_.lr),
                         .seed = options_.seed});
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.events_consumed += static_cast<int64_t>(events.size());
    stats_.samples_assembled += static_cast<int64_t>(samples.size());
    stats_.samples_trained += trained;
    stats_.samples_skipped += static_cast<int64_t>(samples.size()) - trained;
    stats_.cold_pois_seen += cold_seen;
  }
  since_checkpoint_ += trained;
  if (since_checkpoint_ >= options_.checkpoint_every) {
    since_checkpoint_ = 0;
    CheckpointAndGate();
  }
}

void ContinualTrainer::CheckpointAndGate() {
  const std::string path = options_.checkpoint_dir + "/candidate-" +
                           std::to_string(++checkpoint_seq_) + ".tsck";
  candidate_->SaveCheckpoint(path);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.checkpoints;
    stats_.last_checkpoint = path;
  }
  GateAndMaybePromote(*candidate_, path);
}

bool ContinualTrainer::GateAndMaybePromote(const eval::NextPoiModel& candidate,
                                           const std::string& checkpoint_path) {
  GateReport report = gate_.Evaluate(evaluator_, candidate, *live_replica_);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    last_report_ = report;
    stats_.last_gate_eval_ms = report.eval_ms;
    if (report.pass) {
      ++stats_.gate_passes;
    } else {
      ++stats_.gate_rejects;
    }
  }
  if (!report.pass) return false;

  // Swap builds the new generation on this thread while the old one keeps
  // serving, and either lands before it returns or leaves the endpoint
  // untouched — so a counted failure can never turn into a late promotion.
  if (!gateway_->Swap(options_.endpoint, checkpoint_path)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.promote_failures;
    return false;
  }
  // The live replica follows the promotion so the next gate compares
  // against what actually serves.
  TSPN_CHECK(live_replica_->LoadCheckpoint(checkpoint_path))
      << "promoted checkpoint no longer loads: " << checkpoint_path;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.promotions;
  // Retention: the checkpoint that was serving until now becomes the
  // rollback target; the promoted candidate becomes live.
  stats_.last_good_checkpoint = stats_.live_checkpoint;
  stats_.live_checkpoint = checkpoint_path;
  return true;
}

bool ContinualTrainer::Rollback(std::string* error) {
  std::string target;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    target = stats_.last_good_checkpoint;
  }
  if (target.empty()) {
    if (error != nullptr) *error = "no last-good checkpoint retained yet";
    return false;
  }
  if (!gateway_->Swap(options_.endpoint, target, error)) return false;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.rollbacks;
  stats_.last_good_checkpoint = stats_.live_checkpoint;
  stats_.live_checkpoint = target;
  TSPN_CHECK(live_replica_->LoadCheckpoint(target));
  return true;
}

TrainerStats ContinualTrainer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

GateReport ContinualTrainer::LastGateReport() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return last_report_;
}

serve::TrainerTelemetry ContinualTrainer::Telemetry() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  serve::TrainerTelemetry telemetry;
  telemetry.attached = true;
  telemetry.events_consumed = stats_.events_consumed;
  telemetry.samples_trained = stats_.samples_trained;
  telemetry.samples_skipped = stats_.samples_skipped;
  telemetry.checkpoints = stats_.checkpoints;
  telemetry.gate_passes = stats_.gate_passes;
  telemetry.gate_rejects = stats_.gate_rejects;
  telemetry.promotions = stats_.promotions;
  telemetry.promote_failures = stats_.promote_failures;
  telemetry.last_checkpoint = stats_.last_checkpoint;
  return telemetry;
}

}  // namespace tspn::train
