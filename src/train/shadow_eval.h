#ifndef TSPN_TRAIN_SHADOW_EVAL_H_
#define TSPN_TRAIN_SHADOW_EVAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "eval/model_api.h"

namespace tspn::train {

/// Promotion-gate tuning, set by the caller in code.
struct GateOptions {
  int64_t shadow_window = 128;  ///< rolling replay-window capacity
  int64_t min_window = 32;      ///< min observed samples before judging
  /// Metric slack: the candidate may trail the live model by at most this.
  double epsilon = 0.02;
  int64_t batch_size = 16;
  int64_t list_length = 20;
};

/// Outcome of one shadow evaluation. The headline metrics are Recall@10 and
/// MRR from the paper's evaluation protocol, plus the auxiliary tile-MRR —
/// how early the target's quad-tree tile appears among the tiles of the
/// ranked items (MobTCast's auxiliary-trajectory signal recast onto the
/// two-step pipeline: a candidate that ranks the right POIs for the wrong
/// spatial reasons loses tile-MRR before it loses Recall).
struct GateReport {
  bool pass = false;
  std::string reason;  ///< non-empty exactly when pass == false
  int64_t window = 0;  ///< samples replayed
  double eval_ms = 0.0;

  double live_recall10 = 0.0;
  double candidate_recall10 = 0.0;
  double live_mrr = 0.0;
  double candidate_mrr = 0.0;
  double live_tile_mrr = 0.0;
  double candidate_tile_mrr = 0.0;
};

/// Maintains the rolling window of recently served prediction instances and
/// replays it through a model via RecommendBatch. Observe() is thread-safe
/// (the serving path records; the trainer thread judges).
class ShadowEvaluator {
 public:
  ShadowEvaluator(std::shared_ptr<const data::CityDataset> dataset,
                  GateOptions options);

  /// Records one served request's prediction instance into the window
  /// (oldest evicted at capacity).
  void Observe(const data::SampleRef& sample);

  int64_t WindowSize() const;

  /// Replays the current window through both models and fills a report's
  /// metrics (pass/reason are left for PromotionGate::Decide). The window
  /// is snapshotted once so both sides replay identical samples.
  GateReport Judge(const eval::NextPoiModel& candidate,
                   const eval::NextPoiModel& live) const;

  const GateOptions& options() const { return options_; }

 private:
  struct SideMetrics {
    eval::RankingMetrics ranking;
    double tile_mrr = 0.0;
  };

  SideMetrics Replay(const eval::NextPoiModel& model,
                     const std::vector<data::SampleRef>& window) const;

  std::shared_ptr<const data::CityDataset> dataset_;
  GateOptions options_;
  mutable std::mutex mutex_;
  std::deque<data::SampleRef> window_;
};

/// Parity-or-better promotion policy over a GateReport: the candidate is
/// promotable only when the replay window is large enough to mean anything
/// and none of the three metrics trails the live model by more than
/// epsilon. Decide() stamps pass/reason into the report.
class PromotionGate {
 public:
  explicit PromotionGate(GateOptions options) : options_(options) {}

  /// Judges `candidate` against `live` over the evaluator's window and
  /// applies the policy. The returned report carries the verdict.
  GateReport Evaluate(const ShadowEvaluator& evaluator,
                      const eval::NextPoiModel& candidate,
                      const eval::NextPoiModel& live) const;

  /// The policy alone, for reports produced elsewhere.
  void Decide(GateReport* report) const;

 private:
  GateOptions options_;
};

}  // namespace tspn::train

#endif  // TSPN_TRAIN_SHADOW_EVAL_H_
