// Training loop of TSPN-RA (Sec. V-B "Model Learning"): Adam over the joint
// loss = beta * loss_tile + loss_poi with per-epoch learning-rate decay.

#include <cstdio>

#include "common/stopwatch.h"
#include "core/tspn_ra_internal.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace tspn::core {

void TspnRa::Train(const eval::TrainOptions& options) {
  net_->SetTraining(true);
  std::vector<data::SampleRef> samples = dataset_->Samples(data::Split::kTrain);
  common::Rng rng(options.seed ^ config_.seed);
  nn::Adam optimizer(net_->Parameters(), {.lr = options.lr, .grad_clip = 50.0f});

  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(samples);
    int64_t budget = options.max_samples_per_epoch > 0
                         ? std::min<int64_t>(options.max_samples_per_epoch,
                                             static_cast<int64_t>(samples.size()))
                         : static_cast<int64_t>(samples.size());
    double epoch_loss = 0.0;
    int64_t steps = 0;
    common::Stopwatch epoch_watch;
    for (int64_t begin = 0; begin < budget; begin += options.batch_size) {
      int64_t end = std::min<int64_t>(begin + options.batch_size, budget);
      optimizer.ZeroGrad();
      // ET is computed once per step and shared by the whole batch; the
      // imagery CNN thus receives gradient from every sample in the batch.
      nn::Tensor et = ComputeTileEmbeddings();
      nn::Tensor loss = nn::Tensor::Scalar(0.0f);
      for (int64_t i = begin; i < end; ++i) {
        loss = nn::Add(loss, SampleLoss(samples[static_cast<size_t>(i)], et, rng));
      }
      loss = nn::MulScalar(loss, 1.0f / static_cast<float>(end - begin));
      loss.Backward();
      optimizer.Step();
      epoch_loss += loss.item();
      ++steps;
    }
    optimizer.DecayLr(options.lr_decay);
    if (options.verbose && steps > 0) {
      std::fprintf(stderr, "[TSPN-RA] epoch %d/%d loss=%.4f (%.1fs)\n", epoch + 1,
                   options.epochs, epoch_loss / static_cast<double>(steps),
                   epoch_watch.ElapsedSeconds());
    }
  }
  net_->SetTraining(false);
  caches_built_.store(false);  // inference caches must be rebuilt from new weights
}

int64_t TspnRa::TrainOnline(common::Span<const eval::OnlineSample> samples,
                            const eval::TrainOptions& options) {
  std::lock_guard<std::mutex> lock(online_mutex_);
  if (online_ == nullptr) {
    online_ = std::make_unique<OnlineState>(
        net_->Parameters(), nn::Adam::Options{.lr = options.lr, .grad_clip = 50.0f},
        options.seed ^ config_.seed ^ 0x0A11CE5ULL);
  }
  // Extract features up front so invalid samples (unknown POI ids from
  // cold-start arrivals) are skipped without burning a step.
  std::vector<Features> features;
  features.reserve(samples.size());
  for (const eval::OnlineSample& sample : samples) {
    Features f;
    if (FeaturesFromCheckins(common::Span<data::Checkin>(sample.history),
                             sample.target, &f)) {
      features.push_back(std::move(f));
    }
  }
  if (features.empty()) return 0;

  net_->SetTraining(true);
  const int64_t batch_size = std::max<int32_t>(1, options.batch_size);
  const int64_t total = static_cast<int64_t>(features.size());
  for (int64_t begin = 0; begin < total; begin += batch_size) {
    int64_t end = std::min<int64_t>(begin + batch_size, total);
    online_->optimizer.ZeroGrad();
    nn::Tensor et = ComputeTileEmbeddings();
    nn::Tensor loss = nn::Tensor::Scalar(0.0f);
    for (int64_t i = begin; i < end; ++i) {
      loss = nn::Add(loss, LossFromFeatures(features[static_cast<size_t>(i)],
                                            et, online_->rng));
    }
    loss = nn::MulScalar(loss, 1.0f / static_cast<float>(end - begin));
    loss.Backward();
    online_->optimizer.Step();
    ++online_->steps;
  }
  net_->SetTraining(false);
  caches_built_.store(false);  // inference caches must be rebuilt from new weights
  return total;
}

}  // namespace tspn::core
