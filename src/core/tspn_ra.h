#ifndef TSPN_CORE_TSPN_RA_H_
#define TSPN_CORE_TSPN_RA_H_

#include <atomic>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "core/config.h"
#include "core/encoders.h"
#include "core/fusion.h"
#include "core/hgat.h"
#include "data/dataset.h"
#include "eval/model_api.h"
#include "graph/qrp_graph.h"
#include "rs/synthesizer.h"
#include "spatial/grid_index.h"

namespace tspn::eval {
class ConstraintEvaluator;
}  // namespace tspn::eval

namespace tspn::core {

/// TSPN-RA: the Two-Step Prediction Network with Remote Sensing Augmentation
/// (the paper's model, Secs. III-V). Owns every sub-module — tile/POI
/// embedding, spatial & temporal encoders, the QR-P graph encoder and the
/// two attention-fusion predictors — and implements the tile-then-POI
/// two-step prediction with the ArcFace-margin training loss (Eq. 8).
class TspnRa : public eval::NextPoiModel {
 public:
  TspnRa(std::shared_ptr<const data::CityDataset> dataset, TspnRaConfig config);
  ~TspnRa() override;

  /// Byte bound of the history cache: the QR-P graphs of (user, traj) keys
  /// with their CSR lists and cross-attention K/V, least recently used
  /// evicted first. Sized from the measured working set (docs/operations.md):
  /// at dm 32 about 1.3 MiB on NYC-sim and 39 MiB on the 11k-POI metro. The
  /// K/V grows linearly in dm: from dm 64 on the metro set no longer fits,
  /// and its least recently used keys are re-encoded on return.
  static constexpr int64_t kHistoryCacheBytes = int64_t{64} << 20;

  std::string name() const override { return "TSPN-RA"; }
  void Train(const eval::TrainOptions& options) override;

  /// Incremental updates from streamed check-in samples. Optimizer moments,
  /// learning rate, and the negative-sampling RNG persist across calls (the
  /// continual trainer calls this once per drained mini-batch). Samples
  /// whose history or target references a POI id outside the dataset are
  /// skipped (cold-start arrivals are handled by eval::ColdStartPriors at
  /// serving time, not here). Dirties the inference caches when any step
  /// was taken. Returns the number of samples trained on.
  int64_t TrainOnline(common::Span<const eval::OnlineSample> samples,
                      const eval::TrainOptions& options) override;

  // --- Extended API for the figure benches -----------------------------------

  /// Ranked candidate-tile indices (dense leaf order), best first.
  /// Ties rank by ascending tile index, so orderings are deterministic.
  std::vector<int64_t> RankTiles(const data::SampleRef& sample) const;

  /// Top-k prefix of RankTiles via partial selection: identical ordering to
  /// RankTiles(sample) truncated to k, without sorting the full tile set.
  std::vector<int64_t> RankTilesTopK(const data::SampleRef& sample,
                                     int64_t k) const;

  /// Dense candidate-tile index containing the sample's target POI.
  int64_t TargetTileIndex(const data::SampleRef& sample) const;

  /// Recommend with an inference-time top-K override (Fig. 11 sweeps K).
  std::vector<int64_t> RecommendWithK(const data::SampleRef& sample, int64_t top_n,
                                      int32_t top_k) const;

  /// Number of candidate POIs screened when keeping `top_k` tiles.
  int64_t CandidatePoiCount(const data::SampleRef& sample, int32_t top_k) const;

  int64_t NumCandidateTiles() const {
    return static_cast<int64_t>(leaf_tile_ids_.size());
  }

  /// Debug/inspection: the inference-time tile embedding matrix (all tile
  /// ids, rows L2-normalized) and the candidate-tile id list.
  nn::Tensor DebugTileEmbeddings() const {
    EnsureInferenceCaches();
    return et_cache_;
  }
  const std::vector<int32_t>& candidate_tile_ids() const { return leaf_tile_ids_; }
  const TspnRaConfig& config() const { return config_; }
  int64_t ParameterCount() const;

  /// Bytes the history cache holds (at most kHistoryCacheBytes).
  int64_t HistoryCacheBytes() const { return history_cache_.bytes(); }

  /// All trainable parameters (for serialization).
  std::vector<nn::Tensor> Parameters() const;

 protected:
  /// A single query is a batch of one through RecommendScored: the stage-1
  /// tile screen applies constraints before top-k selection, widening until
  /// the allowed candidate pool can fill request.top_n.
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest& request) const override;

  /// RecommendScored over the whole batch. Requests may differ in top_n and
  /// constraints; each response is bitwise identical to RecommendImpl() on
  /// that request alone.
  std::vector<eval::RecommendResponse> RecommendBatchImpl(
      common::Span<eval::RecommendRequest> requests) const override;

  /// Checkpoint payload: the trained parameter tensors via nn::serialize.
  void SaveState(std::ostream& out) const override;
  bool LoadState(std::istream& in) override;

 private:
  struct Net;

  /// One history-cache entry: the QR-P graph of a (user, traj) key's
  /// earlier trajectories with its CSR lists and, once inference has
  /// encoded it, every fusion block's cross-attention K/V of its HGAT
  /// knowledge (H^T_<, H^P_<, Sec. IV-C) under the weights of
  /// inference-cache generation `generation` (0: not encoded). Immutable
  /// once cached: encoding caches a new entry sharing the graph.
  struct HistoryEntry {
    std::shared_ptr<const graph::QrpGraph> graph;  // null: the null history
    uint64_t generation = 0;
    std::vector<HistoryKv> tile_kv;  // MP1, one pair per fusion block
    std::vector<HistoryKv> poi_kv;   // MP2, one pair per fusion block

    /// What the entry charges the history cache: the graph's node ids,
    /// edge lists and CSR lists, plus the K/V once encoded.
    int64_t Bytes() const;
  };

  struct Features {
    std::vector<int64_t> poi_ids;
    std::vector<int64_t> poi_cats;
    std::vector<int64_t> time_slots;
    std::vector<int64_t> tile_rows;   // ET row (tile id) per prefix element
    std::vector<double> norm_x, norm_y;
    /// Null without use_graph. ScoreBatch replaces it with an entry that
    /// carries the K/V under the current weights (the null history's when
    /// there is no graph); training ignores any cached K/V.
    std::shared_ptr<const HistoryEntry> history;
    int64_t target_poi = -1;
    int64_t target_tile_index = -1;   // dense candidate-tile index
  };

  /// Renders (and caches) the tile imagery tensor for all tile ids.
  void BuildImageCache();
  /// Precomputes per-candidate-tile POI lists.
  void BuildTilePoiLists();

  /// Features of a stored sample: FeaturesFromCheckins over its trajectory
  /// prefix and target, plus the user's history-cache entry (use_graph).
  Features ExtractFeatures(const data::SampleRef& sample) const;

  /// Builds Features from a check-in prefix (oldest first; the last
  /// max_seq_len are kept) and the check-in to predict. Sets no history
  /// graph: the online-training path feeds live traffic here, and streamed
  /// prefixes have no trajectory id to key the history cache on (a stale
  /// graph would be worse than none). Returns false (leaving `out`
  /// unspecified) when the prefix is empty or any check-in references a POI
  /// id the dataset does not know.
  bool FeaturesFromCheckins(common::Span<data::Checkin> prefix,
                            const data::Checkin& target, Features* out) const;

  /// The history-cache entry of (user, traj), building and caching its QR-P
  /// graph on a miss. The returned entry stays valid after eviction.
  std::shared_ptr<const HistoryEntry> History(int32_t user, int32_t traj) const;

  /// HGAT over a non-empty history graph: the initial node embeddings
  /// gathered from `et` and the POI encoder, then the QR-P encoder.
  QrpEncoder::Output EncodeHistory(const graph::QrpGraph& graph,
                                   const nn::Tensor& et) const;

  /// An entry over `graph` carrying MP1's K/V of `tile_history` and MP2's
  /// of `poi_history`, stamped `generation`.
  std::shared_ptr<const HistoryEntry> ProjectedEntry(
      std::shared_ptr<const graph::QrpGraph> graph,
      const nn::Tensor& tile_history, const nn::Tensor& poi_history,
      uint64_t generation) const;

  /// ET for all tile ids ([num_tile_ids, dm], rows normalized); part of the
  /// autograd graph during training.
  nn::Tensor ComputeTileEmbeddings() const;

  /// The forward pass (training and inference alike): one packed encoder
  /// pass over all samples. The tile/POI sequences are concatenated
  /// row-wise and run through the embedding gathers, spatial/temporal
  /// encoders and fusion modules as whole-pack tensors (per-sample only
  /// where structure forces it: the within-sequence attention softmax, and
  /// in training the HGAT encoding and K/V projection of each history).
  /// Returns (h_out_tau, h_out_p) as [B, dm] matrices; row b depends on
  /// features[b] alone (with dropout off). Training passes the dropout
  /// `rng`; inference passes null and takes each sample's K/V from the
  /// history entry ScoreBatch attached.
  struct BatchForwardOut {
    nn::Tensor h_tile;  // [B, dm]
    nn::Tensor h_poi;   // [B, dm]
  };
  BatchForwardOut ForwardBatch(common::Span<Features> features,
                               const nn::Tensor& et, common::Rng* rng) const;

  /// Per-sample training loss (Eq. 8): beta * loss_tile + loss_poi.
  nn::Tensor SampleLoss(const data::SampleRef& sample, const nn::Tensor& et,
                        common::Rng& rng) const;

  /// The loss core shared by the offline (SampleLoss) and online
  /// (TrainOnline) paths, computed from already-extracted Features through
  /// ForwardBatch on a pack of one.
  nn::Tensor LossFromFeatures(const Features& f, const nn::Tensor& et,
                              common::Rng& rng) const;

  /// Candidate POI ids when keeping the given ranked tiles.
  std::vector<int64_t> GatherCandidates(const std::vector<int64_t>& ranked_tiles,
                                        int32_t top_k) const;

  /// A scored batch: stage-1 cosines of every query against the cached
  /// normalized leaf-tile matrix (rows of [B, num_tiles]), and for stage 2
  /// the normalized h_poi rows ([B, dm]) with the POI matrix they were
  /// encoded under, so a caller scores only the candidates its screen keeps.
  struct BatchScores {
    int64_t num_tiles = 0;
    std::vector<float> cos_tiles;
    nn::Tensor h_pois;  // [B, dm], rows L2-normalized
    nn::Tensor poi_et;  // poi_et_cache_ as of ScoreBatch
    const float* Tiles(size_t b) const {
      return cos_tiles.data() + static_cast<int64_t>(b) * num_tiles;
    }
  };

  /// The one inference scoring core: ForwardBatch over the samples, then
  /// the stage-1 GEMM against every candidate tile. Every inference entry
  /// point (single query, batch, RecommendWithK, RankTiles) runs through
  /// it. It attaches each sample's history K/V from the history cache,
  /// encoding (once per distinct key in the batch) and caching what is
  /// missing or stale.
  BatchScores ScoreBatch(common::Span<data::SampleRef> samples) const;

  /// ScoreBatch, then per request: the constraint-aware stage-1 screen over
  /// `top_k` tiles and the fused stage-2 ranking, which scores the screened
  /// candidates alone (kernels::DotRow against their POI rows). The
  /// single-query paths call it directly, not through the virtual
  /// RecommendBatchImpl, so a subclass that overrides RecommendBatchImpl
  /// (e.g. to time batches) sees only real batches.
  std::vector<eval::RecommendResponse> RecommendScored(
      common::Span<eval::RecommendRequest> requests, int32_t top_k) const;

  /// Stage-1 candidate gather with constraints applied before selection:
  /// keeps the top_k tiles by cosine, skips fence-disjoint tiles, filters
  /// POIs through `filter`, and doubles the screen until at least
  /// `required` allowed candidates exist (or every tile was screened).
  /// `required` = 1 without constraints: the plain top_k screen, widened
  /// only if it gathered nothing. `max_tiles` > 0 bounds the screen
  /// (widening included) — the gateway's degraded-mode cap — at the cost of
  /// possibly gathering fewer than `required` candidates; 0 leaves it
  /// unbounded. Writes the final screen width to `tiles_screened`.
  std::vector<int64_t> GatherAllowedCandidates(
      const float* cos_tiles, int32_t top_k, int64_t required,
      const eval::ConstraintEvaluator* filter, int64_t max_tiles,
      int64_t* tiles_screened) const;

  /// Bounding box of a dense candidate-tile index (quad-tree leaf or grid
  /// cell).
  geo::BoundingBox CandidateTileBounds(int64_t candidate) const;

  /// All POI ids passing `filter` (the no-two-step candidate set).
  std::vector<int64_t> AllAllowedPois(
      const eval::ConstraintEvaluator* filter) const;

  /// Cosines between h_tile and every candidate tile's ET row ([num_tiles]).
  /// Training path: gathers from the autograd-tracked `et` every call.
  /// Inference scores against the cached leaf_et_cache_ instead.
  nn::Tensor TileCosinesFrom(const nn::Tensor& et, const nn::Tensor& h_tile) const;

  /// Dense candidate-tile index containing a POI.
  int64_t CandidateTileOfPoi(int64_t poi_id) const;

  void EnsureInferenceCaches() const;

  std::shared_ptr<const data::CityDataset> dataset_;
  TspnRaConfig config_;

  // Partition: quad-tree (from the dataset) or grid (ablation). Tile ids are
  // quad-tree node ids or grid cell indices; candidates are leaves / cells.
  std::unique_ptr<spatial::GridIndex> grid_;
  std::unique_ptr<roadnet::TileAdjacency> grid_adjacency_;
  int64_t num_tile_ids_ = 0;
  std::vector<int32_t> leaf_tile_ids_;              // candidate idx -> tile id
  std::vector<std::vector<int64_t>> tile_pois_;     // candidate idx -> POI ids
  std::vector<int64_t> poi_tile_;                   // POI id -> candidate idx

  nn::Tensor tile_images_;  // [num_tile_ids, 3, R, R], constant
  std::unique_ptr<Net> net_;

  // Online-training state (TrainOnline): Adam moments and the
  // negative-sampling RNG must persist across mini-batches or the online
  // path degenerates to SGD with a reset seed every call. Created lazily on
  // the first TrainOnline call; guarded by online_mutex_ (TrainOnline may
  // not run concurrently with itself, though it never races inference —
  // the trainer owns a private clone).
  struct OnlineState;
  std::mutex online_mutex_;
  std::unique_ptr<OnlineState> online_;

  // --- Inference-only state. Recommend/RecommendBatch are const and must be
  // callable concurrently (serve::InferenceEngine workers); every lazily
  // built mutable member below is guarded. --------------------------------
  /// (user, traj) key -> HistoryEntry, locked internally. Training reads
  /// and fills only the graph half; the K/V half is inference's.
  mutable common::LruCache<int64_t, HistoryEntry> history_cache_{
      kHistoryCacheBytes};
  mutable std::mutex cache_mutex_;    // guards the cache build below
  mutable nn::Tensor et_cache_;       // inference-time ET
  mutable nn::Tensor leaf_et_cache_;  // gathered + L2-normalized leaf rows
  mutable nn::Tensor poi_et_cache_;   // all POI embeddings, L2-normalized
  /// The K/V of the learned null-history rows, for samples without a graph.
  mutable std::shared_ptr<const HistoryEntry> null_history_;
  /// Whether the four caches above match the current weights. Train(),
  /// TrainOnline() and LoadState() clear it; EnsureInferenceCaches()
  /// rebuilds and sets it.
  mutable std::atomic<bool> caches_built_{false};
  /// Bumped by every rebuild of the caches above. History-cache K/V
  /// is used only under the generation it was stamped with, so re-arming
  /// caches_built_ also retires every cached K/V tensor.
  mutable std::atomic<uint64_t> cache_generation_{0};
};

}  // namespace tspn::core

#endif  // TSPN_CORE_TSPN_RA_H_
