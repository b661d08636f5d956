#ifndef TSPN_EVAL_MODEL_API_H_
#define TSPN_EVAL_MODEL_API_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/span.h"
#include "data/dataset.h"
#include "data/trajectory.h"
#include "eval/recommend.h"

namespace tspn::eval {

/// Training hyper-parameters shared by all models.
struct TrainOptions {
  int32_t epochs = 4;
  int32_t batch_size = 8;                  ///< paper default (Sec. VI-A)
  float lr = 2e-3f;
  float lr_decay = 0.95f;                  ///< multiplicative per epoch
  int64_t max_samples_per_epoch = 600;     ///< subsample cap; <=0 = all
  uint64_t seed = 1;
  bool verbose = false;
};

/// One self-contained online training example: the user's recent history
/// (oldest first) plus the check-in to predict. Unlike data::SampleRef this
/// does not point into the dataset's stored trajectories, so the continual
/// trainer can assemble samples from live traffic that the dataset has
/// never seen.
struct OnlineSample {
  int64_t user = -1;
  std::vector<data::Checkin> history;  ///< prefix, oldest first, non-empty
  data::Checkin target;                ///< the check-in to predict
};

/// Common interface for TSPN-RA and every baseline: train on the dataset's
/// train split, then serve structured recommendation requests. Models
/// receive the dataset at construction and are created by name through
/// eval::ModelRegistry (model_registry.h).
///
/// The surface is request/response-shaped: callers build a
/// RecommendRequest (sample, top_n, CandidateConstraints) and receive a
/// RecommendResponse of ranked {poi_id, score} pairs. Constraints are
/// applied *before* top-k selection, so a filtered query fills its full
/// top_n whenever enough candidates satisfy the predicate. The public
/// methods are non-virtual; implementations override the protected *Impl
/// hooks.
///
/// Thread-safety contract: after Train() has returned, Recommend() and
/// RecommendBatch() must be safe to call concurrently from multiple threads
/// (the serving layer in src/serve/ relies on this). Implementations with
/// lazily built inference state must guard it themselves.
class NextPoiModel {
 public:
  virtual ~NextPoiModel() = default;

  virtual std::string name() const = 0;

  /// Trains on the dataset's kTrain samples.
  virtual void Train(const TrainOptions& options) = 0;

  /// Applies incremental gradient updates from streamed samples, preserving
  /// optimizer state across calls (one call = one online mini-batch sweep).
  /// Returns the number of samples actually trained on; the default is a
  /// no-op returning 0 for models without an online path. Samples whose
  /// POIs are unknown to the model must be skipped, not fatal.
  virtual int64_t TrainOnline(common::Span<const OnlineSample> samples,
                              const TrainOptions& options) {
    (void)samples;
    (void)options;
    return 0;
  }

  /// Serves one structured request: ranked {poi_id, score} pairs, best
  /// first, at most request.top_n entries, every one satisfying the
  /// request's constraints.
  RecommendResponse Recommend(const RecommendRequest& request) const {
    return RecommendImpl(request);
  }

  /// Serves a batch of requests; result[i] is what Recommend(requests[i])
  /// would return. Requests in one batch may differ in top_n and
  /// constraints — implementations must honour each request individually.
  std::vector<RecommendResponse> RecommendBatch(
      common::Span<RecommendRequest> requests) const {
    return RecommendBatchImpl(requests);
  }

  // --- Checkpoints -----------------------------------------------------------

  /// Writes a versioned checkpoint: a header (magic, format version, model
  /// name) followed by the model's serialized state (nn::serialize payload
  /// for the learned models). Aborts on I/O failure.
  void SaveCheckpoint(const std::string& path) const;

  /// Restores a checkpoint written by SaveCheckpoint on an identically
  /// configured model. Returns false — leaving the model usable — when the
  /// file is missing, corrupted, from a different model, or shape-mismatched.
  bool LoadCheckpoint(const std::string& path);

 protected:
  /// The scored, constraint-aware core every model implements.
  virtual RecommendResponse RecommendImpl(const RecommendRequest& request) const = 0;

  /// Default: the serial per-query loop, so every model supports the batched
  /// API. Models whose scoring amortizes across queries (TSPN-RA runs the
  /// batch through one packed encoder pass and one stage-1 GEMM) override
  /// this with a true batched path; overrides must preserve per-request
  /// parity with RecommendImpl().
  virtual std::vector<RecommendResponse> RecommendBatchImpl(
      common::Span<RecommendRequest> requests) const;

  /// Serializes model state after the checkpoint header. The default writes
  /// nothing (a stateless model); models with learned or counted state
  /// must override both hooks.
  virtual void SaveState(std::ostream& out) const;

  /// Restores what SaveState wrote; false on corruption or shape mismatch.
  virtual bool LoadState(std::istream& in);
};

}  // namespace tspn::eval

#endif  // TSPN_EVAL_MODEL_API_H_
