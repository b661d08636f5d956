#ifndef TSPN_TRAIN_CONTINUAL_TRAINER_H_
#define TSPN_TRAIN_CONTINUAL_TRAINER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "data/dataset.h"
#include "eval/cold_start.h"
#include "eval/model_api.h"
#include "serve/gateway.h"
#include "train/checkin_stream.h"
#include "train/shadow_eval.h"

namespace tspn::train {

/// Continual-trainer tuning, set by the caller in code.
struct TrainerOptions {
  std::string endpoint;        ///< gateway endpoint to promote onto
  std::string checkpoint_dir;  ///< candidate checkpoints land here
  /// Samples trained between candidate checkpoints (and gate passes).
  int64_t checkpoint_every = 64;
  int64_t batch_size = 8;      ///< online mini-batch size
  double lr = 5e-4;            ///< online learning rate
  int64_t pop_batch = 128;     ///< stream events drained per loop turn
  int64_t pop_wait_ms = 100;   ///< PopBatch block bound
  int64_t window_gap_hours = 72;  ///< SampleAssembler trajectory gap
  int64_t max_history = 64;       ///< SampleAssembler history cap
  uint64_t seed = 11;
  GateOptions gate;
};

/// Counters of one trainer instance. All monotonic except depth-style
/// gauges; snapshot via ContinualTrainer::Stats().
struct TrainerStats {
  int64_t events_consumed = 0;
  int64_t samples_assembled = 0;
  int64_t samples_trained = 0;
  int64_t samples_skipped = 0;   ///< assembled but unresolvable (cold start)
  int64_t cold_pois_seen = 0;
  int64_t checkpoints = 0;
  int64_t gate_passes = 0;
  int64_t gate_rejects = 0;
  int64_t promotions = 0;
  int64_t promote_failures = 0;
  int64_t rollbacks = 0;
  double last_gate_eval_ms = 0.0;
  std::string last_checkpoint;       ///< newest candidate checkpoint
  std::string live_checkpoint;       ///< checkpoint the endpoint serves
  std::string last_good_checkpoint;  ///< rollback target
};

/// The continuous-training pipeline head: a background thread that drains
/// the check-in stream, assembles per-user training samples, runs
/// incremental updates on a *private* clone of the live model (the serving
/// deployment is never touched — zero serving-path interference), writes an
/// atomic candidate checkpoint every `checkpoint_every` trained samples,
/// shadow-evaluates the candidate against a live replica over the rolling
/// request window, and only on a parity-or-better gate verdict promotes via
/// Gateway::Swap on the trainer thread (the old generation keeps serving
/// while the new one builds). The previously live checkpoint is retained as
/// the rollback target (Rollback()).
///
/// Lifecycle: construct → Init(live deploy config) → Start() →
/// [stream producers push; serving calls Observe()] → stream Close() →
/// Finish(timeout) (or Stop() for immediate shutdown). Telemetry() is the
/// provider shape Gateway::AttachTrainer expects.
class ContinualTrainer {
 public:
  ContinualTrainer(std::shared_ptr<const data::CityDataset> dataset,
                   CheckinStream* stream, serve::Gateway* gateway,
                   TrainerOptions options);
  ~ContinualTrainer();

  ContinualTrainer(const ContinualTrainer&) = delete;
  ContinualTrainer& operator=(const ContinualTrainer&) = delete;

  /// Builds the candidate clone and the live replica through the model
  /// registry with the deployment's exact options, restoring both from the
  /// deployment's checkpoint. Must be called before Start(); false (with
  /// *error) on unknown model, bad options, or a checkpoint that fails to
  /// load.
  bool Init(const serve::DeployConfig& live_config, std::string* error);

  /// Spawns the background training thread.
  void Start();

  /// Waits for the thread to drain the (closed) stream and exit. Returns
  /// false if it has not finished within the timeout — the hung-thread
  /// signal the CI smoke turns into a non-zero exit.
  bool Finish(int64_t timeout_ms);

  /// Signals shutdown and joins, abandoning unprocessed events.
  void Stop();

  /// Records a served prediction instance into the shadow window.
  void Observe(const data::SampleRef& sample);

  TrainerStats Stats() const;
  serve::TrainerTelemetry Telemetry() const;

  /// Cold-start priors accumulated from the stream (novel POIs, visit
  /// statistics); serving-side consumers blend them via Augment().
  eval::ColdStartPriors& priors() { return priors_; }
  const eval::ColdStartPriors& priors() const { return priors_; }

  /// Verdict of the most recent gate evaluation (zero-window report before
  /// any gate has run).
  GateReport LastGateReport() const;

  /// Shadow-gates `candidate` (checkpointed at `checkpoint_path`) against
  /// the live replica and promotes on a pass with a blocking Gateway::Swap,
  /// updating the last-good retention on success. Returns whether a
  /// promotion landed; on false the endpoint serves what it served before,
  /// so live_checkpoint always names the checkpoint the gateway serves.
  /// Used internally after every checkpoint; public so tests and the demo
  /// can prove the gate blocks a deliberately broken candidate.
  bool GateAndMaybePromote(const eval::NextPoiModel& candidate,
                           const std::string& checkpoint_path);

  /// One-command rollback: synchronously swaps the endpoint back to the
  /// last-good checkpoint. False (with *error) when there is none or the
  /// swap fails.
  bool Rollback(std::string* error);

 private:
  void Loop();
  void ProcessEvents(const std::vector<StreamEvent>& events);
  void CheckpointAndGate();

  std::shared_ptr<const data::CityDataset> dataset_;
  CheckinStream* stream_;
  serve::Gateway* gateway_;
  TrainerOptions options_;

  SampleAssembler assembler_;
  ShadowEvaluator evaluator_;
  PromotionGate gate_;
  eval::ColdStartPriors priors_;

  /// Private model clone the updates run on, and the frozen replica of the
  /// live deployment the gate compares against. Both are trainer-owned;
  /// the serving deployment only ever changes through Gateway::Swap.
  std::unique_ptr<eval::NextPoiModel> candidate_;
  std::unique_ptr<eval::NextPoiModel> live_replica_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  bool started_ = false;

  mutable std::mutex stats_mutex_;
  TrainerStats stats_;
  GateReport last_report_;
  int64_t since_checkpoint_ = 0;
  int64_t checkpoint_seq_ = 0;
};

}  // namespace tspn::train

#endif  // TSPN_TRAIN_CONTINUAL_TRAINER_H_
