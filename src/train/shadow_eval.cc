#include "train/shadow_eval.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace tspn::train {

ShadowEvaluator::ShadowEvaluator(
    std::shared_ptr<const data::CityDataset> dataset, GateOptions options)
    : dataset_(std::move(dataset)), options_(options) {
  TSPN_CHECK(dataset_ != nullptr);
  TSPN_CHECK_GT(options_.shadow_window, 0);
}

void ShadowEvaluator::Observe(const data::SampleRef& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int64_t>(window_.size()) >= options_.shadow_window) {
    window_.pop_front();
  }
  window_.push_back(sample);
}

int64_t ShadowEvaluator::WindowSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(window_.size());
}

ShadowEvaluator::SideMetrics ShadowEvaluator::Replay(
    const eval::NextPoiModel& model,
    const std::vector<data::SampleRef>& window) const {
  SideMetrics side;
  double tile_rr_sum = 0.0;
  const int64_t batch_size = std::max<int64_t>(1, options_.batch_size);
  std::vector<eval::RecommendRequest> requests;
  for (size_t begin = 0; begin < window.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(window.size(),
                                begin + static_cast<size_t>(batch_size));
    requests.clear();
    for (size_t i = begin; i < end; ++i) {
      eval::RecommendRequest request;
      request.sample = window[i];
      request.top_n = options_.list_length;
      requests.push_back(request);
    }
    std::vector<eval::RecommendResponse> responses = model.RecommendBatch(
        common::Span<eval::RecommendRequest>(requests));
    for (size_t i = begin; i < end; ++i) {
      const data::SampleRef& sample = window[i];
      const eval::RecommendResponse& response = responses[i - begin];
      const int64_t target = dataset_->Target(sample).poi_id;
      side.ranking.Add(response.PoiIds(), target);
      // Auxiliary tile-MRR: reciprocal rank of the target's quad-tree leaf
      // among the *distinct* tiles of the ranked items, in order of first
      // appearance. Single-stage models emit tile_index -1 and contribute 0.
      const int64_t target_tile = dataset_->quadtree().LeafIndexOf(
          dataset_->LeafNodeOfPoi(target));
      int64_t tile_rank = 0;
      int64_t distinct = 0;
      int64_t last_tile = -2;
      for (const eval::ScoredPoi& item : response.items) {
        if (item.tile_index < 0) continue;
        if (item.tile_index != last_tile) {
          ++distinct;
          last_tile = item.tile_index;
        }
        if (item.tile_index == target_tile) {
          tile_rank = distinct;
          break;
        }
      }
      if (tile_rank > 0) tile_rr_sum += 1.0 / static_cast<double>(tile_rank);
    }
  }
  side.tile_mrr = window.empty()
                      ? 0.0
                      : tile_rr_sum / static_cast<double>(window.size());
  return side;
}

GateReport ShadowEvaluator::Judge(const eval::NextPoiModel& candidate,
                                  const eval::NextPoiModel& live) const {
  std::vector<data::SampleRef> window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    window.assign(window_.begin(), window_.end());
  }
  GateReport report;
  report.window = static_cast<int64_t>(window.size());
  common::Stopwatch watch;
  SideMetrics live_side = Replay(live, window);
  SideMetrics candidate_side = Replay(candidate, window);
  report.eval_ms = watch.ElapsedSeconds() * 1e3;
  if (!window.empty()) {
    report.live_recall10 = live_side.ranking.RecallAt(10);
    report.candidate_recall10 = candidate_side.ranking.RecallAt(10);
    report.live_mrr = live_side.ranking.Mrr();
    report.candidate_mrr = candidate_side.ranking.Mrr();
    report.live_tile_mrr = live_side.tile_mrr;
    report.candidate_tile_mrr = candidate_side.tile_mrr;
  }
  return report;
}

GateReport PromotionGate::Evaluate(const ShadowEvaluator& evaluator,
                                   const eval::NextPoiModel& candidate,
                                   const eval::NextPoiModel& live) const {
  GateReport report = evaluator.Judge(candidate, live);
  Decide(&report);
  return report;
}

void PromotionGate::Decide(GateReport* report) const {
  if (report->window < options_.min_window) {
    report->pass = false;
    report->reason = "window " + std::to_string(report->window) +
                     " below minimum " + std::to_string(options_.min_window);
    return;
  }
  auto trails = [this](double candidate, double live) {
    return candidate < live - options_.epsilon;
  };
  if (trails(report->candidate_recall10, report->live_recall10)) {
    report->pass = false;
    report->reason = "Recall@10 regression: candidate " +
                     std::to_string(report->candidate_recall10) + " vs live " +
                     std::to_string(report->live_recall10);
    return;
  }
  if (trails(report->candidate_mrr, report->live_mrr)) {
    report->pass = false;
    report->reason = "MRR regression: candidate " +
                     std::to_string(report->candidate_mrr) + " vs live " +
                     std::to_string(report->live_mrr);
    return;
  }
  if (trails(report->candidate_tile_mrr, report->live_tile_mrr)) {
    report->pass = false;
    report->reason = "tile-MRR regression: candidate " +
                     std::to_string(report->candidate_tile_mrr) + " vs live " +
                     std::to_string(report->live_tile_mrr);
    return;
  }
  report->pass = true;
  report->reason.clear();
}

}  // namespace tspn::train
