#ifndef TSPN_BASELINES_BASE_H_
#define TSPN_BASELINES_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/model_api.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace tspn::baselines {

/// Shared scaffolding for the learned baselines: prefix-feature extraction,
/// tied-embedding scoring over the full POI vocabulary, a generic
/// Adam/cross-entropy training loop and rank-by-score recommendation.
/// Subclasses implement ScoreAllPois() — a [num_pois] logits tensor for one
/// sample — which serves both the loss and inference.
///
/// Thread-safety (audited for serve::InferenceEngine): after Train(),
/// Recommend() only reads model weights and dataset state — no baseline
/// keeps mutable caches or rngs behind its const methods (grad-mode is a
/// thread_local flag and tensor byte accounting is atomic), so concurrent
/// Recommend/RecommendBatch calls are safe on every model in this directory.
/// Subclasses adding lazily built inference state must guard it themselves.
class SequenceModelBase : public eval::NextPoiModel {
 public:
  explicit SequenceModelBase(std::shared_ptr<const data::CityDataset> dataset)
      : dataset_(std::move(dataset)) {}

  void Train(const eval::TrainOptions& options) override;

 protected:
  /// v2 core shared by all ScoreAllPois-shaped baselines: score the whole
  /// vocabulary once, then let eval::RankAllPois apply the request's
  /// constraints before top-k selection (so constrained queries still fill
  /// top_n) and attach the logits as ranking scores.
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest& request) const override;

  /// Checkpoint payload: the subclass net's parameter tensors via
  /// nn::serialize; shapes are validated on load.
  void SaveState(std::ostream& out) const override;
  bool LoadState(std::istream& in) override;

  /// Truncated prefix features of a sample.
  struct Prefix {
    std::vector<int64_t> poi_ids;
    std::vector<int64_t> categories;
    std::vector<int64_t> time_slots;
    std::vector<int64_t> timestamps;
    std::vector<geo::GeoPoint> locations;
    int64_t target_poi = -1;
    int32_t user = 0;
    int32_t traj = 0;
  };
  Prefix ExtractPrefix(const data::SampleRef& sample, int64_t max_len) const;

  /// Logits over all POIs for one sample. Must be differentiable.
  virtual nn::Tensor ScoreAllPois(const Prefix& prefix) const = 0;

  /// The module whose parameters are optimized.
  virtual nn::Module& net() = 0;
  virtual const nn::Module& net_const() const = 0;

  /// Optional hook before training (e.g. count-based structures).
  virtual void Prepare() {}

  /// Per-sample loss; defaults to cross-entropy over ScoreAllPois.
  virtual nn::Tensor SampleLoss(const Prefix& prefix, common::Rng& rng) const;

  int64_t num_pois() const { return static_cast<int64_t>(dataset_->pois().size()); }

  std::shared_ptr<const data::CityDataset> dataset_;
  int64_t max_seq_len_ = 16;
};

/// Names of all implemented baselines, in the paper's Table II order. Build
/// one by name through eval::ModelRegistry.
std::vector<std::string> BaselineNames();

}  // namespace tspn::baselines

#endif  // TSPN_BASELINES_BASE_H_
