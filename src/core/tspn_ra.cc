#include "core/tspn_ra.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "core/tspn_ra_internal.h"
#include "eval/constraints.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "nn/serialize.h"

namespace tspn::core {

namespace {

/// Indices of the k largest entries of scores[0..n), ordered by (score desc,
/// index asc). k >= n degenerates to a full deterministic ranking; k < n uses
/// nth_element + a sort of only the kept prefix instead of sorting all n.
std::vector<int64_t> TopKIndices(const float* scores, int64_t n, int64_t k) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto better = [scores](int64_t a, int64_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  if (k >= n) {
    std::sort(order.begin(), order.end(), better);
    return order;
  }
  std::nth_element(order.begin(), order.begin() + k, order.end(), better);
  order.resize(static_cast<size_t>(k));
  std::sort(order.begin(), order.end(), better);
  return order;
}

/// History-cache key of (user, traj), packed at full width so that no two
/// valid pairs collide.
int64_t HistoryKey(int32_t user, int32_t traj) {
  TSPN_CHECK_GE(user, 0);
  TSPN_CHECK_GE(traj, 0);
  return (static_cast<int64_t>(user) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(traj));
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

}  // namespace

int64_t TspnRa::HistoryEntry::Bytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(graph::QrpGraph)) +
                  VectorBytes(graph->tile_ids) + VectorBytes(graph->poi_ids);
  for (int type = 0; type < graph::QrpGraph::kNumEdgeTypes; ++type) {
    const graph::NeighbourList& list =
        graph->neighbours[static_cast<size_t>(type)];
    bytes += VectorBytes(graph->edges(type)) + VectorBytes(list.offsets) +
             VectorBytes(list.cols);
  }
  for (const std::vector<HistoryKv>* kvs : {&tile_kv, &poi_kv}) {
    for (const HistoryKv& kv : *kvs) {
      bytes += (kv.k.numel() + kv.v.numel()) * static_cast<int64_t>(sizeof(float));
    }
  }
  return bytes;
}

TspnRa::TspnRa(std::shared_ptr<const data::CityDataset> dataset, TspnRaConfig config)
    : dataset_(std::move(dataset)), config_(config) {
  TSPN_CHECK(dataset_ != nullptr);
  TSPN_CHECK_EQ(config_.dm % 4, 0);

  if (config_.use_quadtree) {
    const spatial::QuadTree& tree = dataset_->quadtree();
    num_tile_ids_ = tree.NumNodes();
    leaf_tile_ids_ = tree.LeafNodes();
  } else {
    grid_ = std::make_unique<spatial::GridIndex>(dataset_->profile().bbox,
                                                 config_.grid_cells_per_side);
    grid_adjacency_ = std::make_unique<roadnet::TileAdjacency>(
        roadnet::TileAdjacency::Build(dataset_->roads(), *grid_));
    num_tile_ids_ = grid_->NumTiles();
    leaf_tile_ids_.resize(static_cast<size_t>(num_tile_ids_));
    for (int64_t i = 0; i < num_tile_ids_; ++i) {
      leaf_tile_ids_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
  }

  BuildImageCache();
  BuildTilePoiLists();

  common::Rng rng(config_.seed);
  net_ = std::make_unique<Net>(config_, num_tile_ids_,
                               static_cast<int64_t>(dataset_->pois().size()),
                               dataset_->profile().num_categories, rng);
}

TspnRa::~TspnRa() = default;

void TspnRa::BuildImageCache() {
  if (!config_.use_imagery) return;
  // Imagery is a property of the simulated world, not of the model: seed the
  // renderer from the dataset profile so differently-seeded models see the
  // same ground truth.
  rs::ImageSynthesizer synthesizer(
      &dataset_->layout(), &dataset_->roads(),
      {.resolution = config_.image_resolution,
       .world_seed = dataset_->profile().seed});
  common::Rng noise_rng(config_.seed ^ 0x401EULL);
  std::vector<rs::Image> images;
  images.reserve(static_cast<size_t>(num_tile_ids_));
  for (int64_t id = 0; id < num_tile_ids_; ++id) {
    geo::BoundingBox bounds =
        config_.use_quadtree ? dataset_->quadtree().node(id).bounds
                             : grid_->TileBounds(id);
    rs::Image image = synthesizer.RenderTile(bounds);
    if (config_.image_noise_fraction > 0.0) {
      rs::AddPixelNoise(image, config_.image_noise_fraction, noise_rng);
    }
    images.push_back(std::move(image));
  }
  tile_images_ = PackImages(images);
}

void TspnRa::BuildTilePoiLists() {
  tile_pois_.assign(leaf_tile_ids_.size(), {});
  poi_tile_.assign(dataset_->pois().size(), 0);
  for (const data::Poi& poi : dataset_->pois()) {
    int64_t candidate;
    if (config_.use_quadtree) {
      candidate = dataset_->quadtree().LeafIndexOf(dataset_->LeafNodeOfPoi(poi.id));
    } else {
      candidate = grid_->TileOf(poi.loc);
    }
    tile_pois_[static_cast<size_t>(candidate)].push_back(poi.id);
    poi_tile_[static_cast<size_t>(poi.id)] = candidate;
  }
}

nn::Tensor TspnRa::TileCosinesFrom(const nn::Tensor& et,
                                   const nn::Tensor& h_tile) const {
  std::vector<int64_t> leaf_rows(leaf_tile_ids_.begin(), leaf_tile_ids_.end());
  nn::Tensor leaf_embeddings = nn::EmbeddingGather(et, leaf_rows);
  return nn::MatVec(leaf_embeddings, nn::L2Normalize(h_tile));
}

int64_t TspnRa::CandidateTileOfPoi(int64_t poi_id) const {
  return poi_tile_[static_cast<size_t>(poi_id)];
}

std::shared_ptr<const TspnRa::HistoryEntry> TspnRa::History(
    int32_t user, int32_t traj) const {
  const int64_t key = HistoryKey(user, traj);
  if (std::shared_ptr<const HistoryEntry> hit = history_cache_.Get(key)) {
    return hit;
  }
  // Two workers missing the same key build the same graph twice; the later
  // Put replaces the earlier entry, and both callers keep their own.
  std::vector<int64_t> history = dataset_->HistoryPoiIds(user, traj);
  if (static_cast<int64_t>(history.size()) > config_.max_history_checkins) {
    history.erase(history.begin(),
                  history.end() - config_.max_history_checkins);
  }
  auto entry = std::make_shared<HistoryEntry>();
  entry->graph = std::make_shared<const graph::QrpGraph>(
      config_.use_quadtree
          ? graph::BuildQrpGraph(dataset_->quadtree(),
                                 dataset_->leaf_adjacency(), dataset_->pois(),
                                 history)
          : graph::BuildQrpGraphFromGrid(*grid_, *grid_adjacency_,
                                         dataset_->pois(), history));
  history_cache_.Put(key, entry, entry->Bytes());
  return entry;
}

QrpEncoder::Output TspnRa::EncodeHistory(const graph::QrpGraph& graph,
                                         const nn::Tensor& et) const {
  std::vector<int64_t> tile_rows(graph.tile_ids.begin(), graph.tile_ids.end());
  nn::Tensor tile_init = nn::EmbeddingGather(et, tile_rows);
  std::vector<int64_t> cats;
  cats.reserve(graph.poi_ids.size());
  for (int64_t pid : graph.poi_ids) cats.push_back(dataset_->poi(pid).category);
  nn::Tensor poi_init = net_->poi_encoder.Encode(graph.poi_ids, cats);
  return net_->qrp.Encode(graph, tile_init, poi_init);
}

std::shared_ptr<const TspnRa::HistoryEntry> TspnRa::ProjectedEntry(
    std::shared_ptr<const graph::QrpGraph> graph, const nn::Tensor& tile_history,
    const nn::Tensor& poi_history, uint64_t generation) const {
  auto entry = std::make_shared<HistoryEntry>();
  entry->graph = std::move(graph);
  entry->generation = generation;
  entry->tile_kv = net_->mp1.ProjectHistory(tile_history);
  entry->poi_kv = net_->mp2.ProjectHistory(poi_history);
  return entry;
}

TspnRa::Features TspnRa::ExtractFeatures(const data::SampleRef& sample) const {
  const data::Trajectory& traj = dataset_->trajectory(sample);
  Features f;
  TSPN_CHECK(FeaturesFromCheckins(
      common::Span<data::Checkin>(traj.checkins.data(),
                                  static_cast<size_t>(sample.prefix_len)),
      dataset_->Target(sample), &f));
  if (config_.use_graph) f.history = History(sample.user, sample.traj);
  return f;
}

bool TspnRa::FeaturesFromCheckins(common::Span<data::Checkin> prefix,
                                  const data::Checkin& target,
                                  Features* out) const {
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  if (prefix.empty()) return false;
  if (target.poi_id < 0 || target.poi_id >= num_pois) return false;
  for (const data::Checkin& c : prefix) {
    if (c.poi_id < 0 || c.poi_id >= num_pois) return false;
  }
  Features f;
  size_t start = prefix.size() > static_cast<size_t>(config_.max_seq_len)
                     ? prefix.size() - static_cast<size_t>(config_.max_seq_len)
                     : 0;
  for (size_t i = start; i < prefix.size(); ++i) {
    const data::Checkin& c = prefix[i];
    const data::Poi& poi = dataset_->poi(c.poi_id);
    f.poi_ids.push_back(c.poi_id);
    f.poi_cats.push_back(poi.category);
    f.time_slots.push_back(data::TimeSlotOf(c.timestamp));
    // ET row: the tile id of the candidate tile (quad-tree leaf or grid
    // cell) holding the POI.
    f.tile_rows.push_back(
        leaf_tile_ids_[static_cast<size_t>(CandidateTileOfPoi(c.poi_id))]);
    double x, y;
    dataset_->profile().bbox.Normalize(poi.loc, &x, &y);
    f.norm_x.push_back(x);
    f.norm_y.push_back(y);
  }
  f.target_poi = target.poi_id;
  f.target_tile_index = CandidateTileOfPoi(target.poi_id);
  *out = std::move(f);
  return true;
}

nn::Tensor TspnRa::ComputeTileEmbeddings() const {
  return net_->tile_encoder.EncodeAll(tile_images_);
}

TspnRa::BatchForwardOut TspnRa::ForwardBatch(common::Span<Features> features,
                                             const nn::Tensor& et,
                                             common::Rng* rng) const {
  TSPN_CHECK(!features.empty());
  const size_t batch = features.size();
  // Concatenate every sample's prefix sequence row-wise; `offsets` keeps the
  // segment boundaries for the stages that must not cross samples.
  std::vector<int64_t> offsets(batch + 1, 0);
  std::vector<int64_t> all_tile_rows, all_poi_ids, all_poi_cats, all_slots;
  std::vector<double> all_x, all_y;
  for (size_t b = 0; b < batch; ++b) {
    const Features& f = features[b];
    TSPN_CHECK(!f.poi_ids.empty());
    offsets[b + 1] = offsets[b] + static_cast<int64_t>(f.poi_ids.size());
    all_tile_rows.insert(all_tile_rows.end(), f.tile_rows.begin(),
                         f.tile_rows.end());
    all_poi_ids.insert(all_poi_ids.end(), f.poi_ids.begin(), f.poi_ids.end());
    all_poi_cats.insert(all_poi_cats.end(), f.poi_cats.begin(),
                        f.poi_cats.end());
    all_slots.insert(all_slots.end(), f.time_slots.begin(), f.time_slots.end());
    all_x.insert(all_x.end(), f.norm_x.begin(), f.norm_x.end());
    all_y.insert(all_y.end(), f.norm_y.begin(), f.norm_y.end());
  }
  // The sequence embeddings (Secs. IV-A/IV-B) are row-wise gathers, adds and
  // scales, so the whole pack goes through them in one call each.
  nn::Tensor tile_seq = nn::EmbeddingGather(et, all_tile_rows);
  if (config_.use_st_encoder) {
    std::vector<nn::Tensor> locs;
    locs.reserve(all_x.size());
    for (size_t i = 0; i < all_x.size(); ++i) {
      locs.push_back(SpatialEncoding(all_x[i], all_y[i], config_.dm,
                                     config_.spatial_scale));
    }
    // The raw sinusoidal encoding has norm sqrt(dm/2); rescale to unit norm
    // so it augments rather than drowns the unit-norm tile embeddings.
    float loc_scale = std::sqrt(2.0f / static_cast<float>(config_.dm));
    tile_seq = nn::Add(tile_seq, nn::MulScalar(nn::StackRows(locs), loc_scale));
    tile_seq = nn::Add(tile_seq, net_->temporal.SlotEmbeddings(all_slots));
  }
  nn::Tensor poi_seq = net_->poi_encoder.Encode(all_poi_ids, all_poi_cats);
  if (config_.use_st_encoder) {
    poi_seq = nn::Add(poi_seq, net_->temporal.SlotEmbeddings(all_slots));
  }
  // Historical knowledge (Sec. IV-C) stays per sample — each history graph
  // has its own structure — and enters fusion as every block's
  // cross-attention K/V, one part per sample, read in place. Inference takes
  // the K/V its history entry carries. Training encodes the graph and
  // projects the knowledge, or the learned null-history row when there is
  // no graph.
  std::vector<std::vector<HistoryKv>> tile_kvs, poi_kvs;
  tile_kvs.reserve(batch);
  poi_kvs.reserve(batch);
  for (const Features& f : features) {
    if (rng == nullptr) {
      TSPN_CHECK(f.history != nullptr && f.history->generation != 0)
          << "inference needs the history K/V attached";
      tile_kvs.push_back(f.history->tile_kv);
      poi_kvs.push_back(f.history->poi_kv);
      continue;
    }
    nn::Tensor tile_history = net_->null_tile_history;
    nn::Tensor poi_history = net_->null_poi_history;
    if (f.history != nullptr && !f.history->graph->empty()) {
      QrpEncoder::Output knowledge = EncodeHistory(*f.history->graph, et);
      tile_history = knowledge.tile_knowledge;
      poi_history = knowledge.poi_knowledge;
    }
    tile_kvs.push_back(net_->mp1.ProjectHistory(tile_history));
    poi_kvs.push_back(net_->mp2.ProjectHistory(poi_history));
  }
  std::vector<int64_t> tile_hist_offsets(batch + 1, 0);
  std::vector<int64_t> poi_hist_offsets(batch + 1, 0);
  for (size_t b = 0; b < batch; ++b) {
    tile_hist_offsets[b + 1] = tile_hist_offsets[b] + tile_kvs[b].front().k.dim(0);
    poi_hist_offsets[b + 1] = poi_hist_offsets[b] + poi_kvs[b].front().k.dim(0);
  }
  // Attention fusion (Sec. V-A) over the pack: projections, norms and
  // feed-forward as single GEMMs, one segmented attention per sublayer.
  // Training passes the dropout rng; inference passes null.
  BatchForwardOut out;
  out.h_tile =
      net_->mp1.Forward(tile_seq, offsets, tile_kvs, tile_hist_offsets, rng);
  out.h_poi = net_->mp2.Forward(poi_seq, offsets, poi_kvs, poi_hist_offsets, rng);
  return out;
}

std::vector<int64_t> TspnRa::GatherCandidates(
    const std::vector<int64_t>& ranked_tiles, int32_t top_k) const {
  std::vector<int64_t> candidates;
  int64_t limit = std::min<int64_t>(top_k, static_cast<int64_t>(ranked_tiles.size()));
  for (int64_t i = 0; i < limit; ++i) {
    const auto& pois = tile_pois_[static_cast<size_t>(ranked_tiles[static_cast<size_t>(i)])];
    candidates.insert(candidates.end(), pois.begin(), pois.end());
  }
  return candidates;
}

nn::Tensor TspnRa::SampleLoss(const data::SampleRef& sample, const nn::Tensor& et,
                              common::Rng& rng) const {
  return LossFromFeatures(ExtractFeatures(sample), et, rng);
}

nn::Tensor TspnRa::LossFromFeatures(const Features& f, const nn::Tensor& et,
                                    common::Rng& rng) const {
  BatchForwardOut fwd = ForwardBatch(common::Span<Features>(&f, 1), et, &rng);
  const nn::Tensor h_tile = nn::Reshape(fwd.h_tile, {config_.dm});
  const nn::Tensor h_poi = nn::Reshape(fwd.h_poi, {config_.dm});

  nn::Tensor loss = nn::Tensor::Scalar(0.0f);
  std::vector<int64_t> candidate_pois;
  nn::Tensor tile_cos_for_prior;

  if (config_.use_two_step) {
    // --- Step 1: tile ranking loss over all leaf candidates ------------------
    nn::Tensor cos_tiles = TileCosinesFrom(et, h_tile);
    nn::Tensor tile_logits =
        nn::ArcFaceLogits(cos_tiles, f.target_tile_index, config_.arcface_scale,
                          config_.arcface_margin);
    nn::Tensor tile_loss =
        nn::CrossEntropyWithLogits(tile_logits, f.target_tile_index);
    loss = nn::Add(loss, nn::MulScalar(tile_loss, config_.beta));

    // --- Step 2 candidates: POIs in the current top-K tiles (the tile
    // selector acting as negative-sample generator, Sec. V-B). Only the
    // top-K prefix is consumed, so partial selection suffices. ---------------
    std::vector<int64_t> order =
        TopKIndices(cos_tiles.data(), static_cast<int64_t>(leaf_tile_ids_.size()),
                    config_.top_k_tiles);
    candidate_pois = GatherCandidates(order, config_.top_k_tiles);
    // Global random negatives keep never-screened POI embeddings trained
    // (see TspnRaConfig::num_random_negatives).
    int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
    for (int64_t i = 0; i < config_.num_random_negatives; ++i) {
      candidate_pois.push_back(rng.UniformInt(num_pois));
    }
    tile_cos_for_prior = cos_tiles;
  } else {
    // No-two-step ablation: sample negatives from the full POI set.
    int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
    for (int64_t i = 0;
         i < std::min<int64_t>(config_.max_poi_candidates, num_pois); ++i) {
      candidate_pois.push_back(rng.UniformInt(num_pois));
    }
  }

  // Ensure the target is present, dedupe, and cap.
  std::sort(candidate_pois.begin(), candidate_pois.end());
  candidate_pois.erase(std::unique(candidate_pois.begin(), candidate_pois.end()),
                       candidate_pois.end());
  if (static_cast<int64_t>(candidate_pois.size()) > config_.max_poi_candidates) {
    rng.Shuffle(candidate_pois);
    candidate_pois.resize(static_cast<size_t>(config_.max_poi_candidates));
    std::sort(candidate_pois.begin(), candidate_pois.end());
  }
  auto it = std::lower_bound(candidate_pois.begin(), candidate_pois.end(),
                             f.target_poi);
  if (it == candidate_pois.end() || *it != f.target_poi) {
    candidate_pois.insert(it, f.target_poi);
  }
  int64_t target_pos =
      std::lower_bound(candidate_pois.begin(), candidate_pois.end(), f.target_poi) -
      candidate_pois.begin();

  std::vector<int64_t> cats;
  cats.reserve(candidate_pois.size());
  for (int64_t pid : candidate_pois) cats.push_back(dataset_->poi(pid).category);
  nn::Tensor cand_embeddings =
      nn::L2Normalize(net_->poi_encoder.Encode(candidate_pois, cats));
  nn::Tensor cos_pois = nn::MatVec(cand_embeddings, nn::L2Normalize(h_poi));
  nn::Tensor poi_logits = nn::ArcFaceLogits(
      cos_pois, target_pos, config_.arcface_scale, config_.arcface_margin);
  if (config_.use_two_step) {
    // Hierarchical score fusion: each candidate also carries its tile's
    // stage-1 cosine, weighted by the learnable gamma. This couples the two
    // steps so spatial plausibility keeps discriminating within the
    // screened candidate set.
    const nn::Tensor& leaf_cos = tile_cos_for_prior;
    std::vector<int64_t> cand_tiles;
    cand_tiles.reserve(candidate_pois.size());
    for (int64_t pid : candidate_pois) {
      cand_tiles.push_back(CandidateTileOfPoi(pid));
    }
    nn::Tensor prior = nn::Reshape(
        nn::EmbeddingGather(nn::Reshape(leaf_cos, {NumCandidateTiles(), 1}),
                            cand_tiles),
        {static_cast<int64_t>(cand_tiles.size())});
    poi_logits = nn::Add(
        poi_logits, nn::Mul(nn::MulScalar(net_->tile_prior_weight,
                                          config_.arcface_scale),
                            prior));
  }
  nn::Tensor poi_loss = nn::CrossEntropyWithLogits(poi_logits, target_pos);
  return nn::Add(loss, poi_loss);
}

void TspnRa::EnsureInferenceCaches() const {
  // Double-checked build so concurrent Recommend calls from the serving
  // workers are safe: the fast path is one acquire load, the build runs once
  // under the mutex, and the release store publishes the cache tensors. An
  // atomic flag instead of a std::once_flag because Train() and LoadState()
  // re-dirty the caches; a once_flag cannot be re-armed.
  if (caches_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (caches_built_.load(std::memory_order_relaxed)) return;
  // Inference is always deterministic: dropout off regardless of whether the
  // model was ever trained.
  net_->SetTraining(false);
  nn::NoGradGuard guard;
  et_cache_ = ComputeTileEmbeddings();
  // Gather + normalize the leaf-tile matrix once so every query is a single
  // MatVec against it, instead of re-running EmbeddingGather + L2Normalize.
  std::vector<int64_t> leaf_rows(leaf_tile_ids_.begin(), leaf_tile_ids_.end());
  leaf_et_cache_ = nn::L2Normalize(nn::EmbeddingGather(et_cache_, leaf_rows));
  // Same for the POI side: encode + normalize every POI once; per-query
  // stage-2 scoring then just gathers candidate rows. Row i is bitwise
  // identical to L2Normalize(Encode({i}, ...)), so results don't change.
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  std::vector<int64_t> all_pois(static_cast<size_t>(num_pois));
  std::vector<int64_t> all_cats(static_cast<size_t>(num_pois));
  for (int64_t i = 0; i < num_pois; ++i) {
    all_pois[static_cast<size_t>(i)] = i;
    all_cats[static_cast<size_t>(i)] = dataset_->poi(i).category;
  }
  poi_et_cache_ = nn::L2Normalize(net_->poi_encoder.Encode(all_pois, all_cats));
  // Every inference sample carries K/V; one without a graph, the null
  // history's, projected once here.
  const uint64_t generation = cache_generation_.fetch_add(1) + 1;
  null_history_ = ProjectedEntry(nullptr, net_->null_tile_history,
                                 net_->null_poi_history, generation);
  caches_built_.store(true, std::memory_order_release);
}

TspnRa::BatchScores TspnRa::ScoreBatch(
    common::Span<data::SampleRef> samples) const {
  TSPN_CHECK(!samples.empty());
  EnsureInferenceCaches();
  nn::NoGradGuard guard;
  const int64_t batch = static_cast<int64_t>(samples.size());
  const int64_t dm = config_.dm;
  const int64_t num_tiles = NumCandidateTiles();

  // One packed encoder forward for the whole batch: the B query sequences
  // ride a single [total_len, dm] tensor through the projections, norms and
  // feed-forwards, with only softmax(QK^T)V handled per segment. Inference
  // mode: no dropout, so no rng.
  std::vector<Features> features;
  features.reserve(samples.size());
  for (const data::SampleRef& sample : samples) {
    features.push_back(ExtractFeatures(sample));
  }
  // Under frozen weights a history's cross-attention K/V is one tensor set
  // per key, shared by every prefix of the trajectory. Take it from the
  // history cache when it was encoded under the current inference caches;
  // otherwise encode it once per distinct key in this batch (a planner wave
  // repeats keys) and cache it.
  const uint64_t generation = cache_generation_.load();
  std::unordered_map<int64_t, std::shared_ptr<const HistoryEntry>> encoded;
  for (size_t b = 0; b < features.size(); ++b) {
    Features& f = features[b];
    if (f.history == nullptr || f.history->graph->empty()) {
      f.history = null_history_;
      continue;
    }
    if (f.history->generation == generation) continue;
    const int64_t key = HistoryKey(samples[b].user, samples[b].traj);
    auto [it, missing] = encoded.try_emplace(key);
    if (missing) {
      QrpEncoder::Output knowledge = EncodeHistory(*f.history->graph, et_cache_);
      it->second = ProjectedEntry(f.history->graph, knowledge.tile_knowledge,
                                  knowledge.poi_knowledge, generation);
      history_cache_.Put(key, it->second, it->second->Bytes());
    }
    f.history = it->second;
  }
  BatchForwardOut fwd =
      ForwardBatch(common::Span<Features>(features), et_cache_, nullptr);
  nn::Tensor h_tiles = nn::L2Normalize(fwd.h_tile);

  // Stage 1 scores every query against the cached normalized tile matrix
  // with one GEMM. The kernel reduces every element in the same order
  // whatever the batch size, so row b depends on samples[b] alone. Stage 2
  // needs only the screened candidates: the normalized h_poi rows go back,
  // for RecommendScored to score against those candidates' rows alone.
  BatchScores scores;
  scores.num_tiles = num_tiles;
  scores.cos_tiles.resize(static_cast<size_t>(batch * num_tiles));
  nn::kernels::DotProductGemm(h_tiles.data(), leaf_et_cache_.data(),
                              scores.cos_tiles.data(), batch, num_tiles, dm,
                              /*accumulate=*/false);
  scores.h_pois = nn::L2Normalize(fwd.h_poi);
  scores.poi_et = poi_et_cache_;
  return scores;
}

std::vector<eval::RecommendResponse> TspnRa::RecommendScored(
    common::Span<eval::RecommendRequest> requests, int32_t top_k) const {
  if (requests.empty()) return {};
  std::vector<data::SampleRef> samples;
  samples.reserve(requests.size());
  for (const eval::RecommendRequest& request : requests) {
    samples.push_back(request.sample);
  }
  const BatchScores scores = ScoreBatch(common::Span<data::SampleRef>(samples));

  // Constraints and top_n apply per request, after the shared encoder pass
  // and stage-1 GEMM.
  const int64_t dm = config_.dm;
  const float gamma = net_->tile_prior_weight.at(0);
  std::vector<eval::RecommendResponse> responses(requests.size());
  for (size_t b = 0; b < requests.size(); ++b) {
    const eval::RecommendRequest& request = requests[b];
    eval::RecommendResponse& response = responses[b];
    std::unique_ptr<eval::ConstraintEvaluator> filter =
        eval::MakeConstraintFilter(*dataset_, request);
    const float* tc = scores.Tiles(b);
    std::vector<int64_t> candidates;
    if (config_.use_two_step) {
      response.stages_used = 2;
      const int64_t required = filter != nullptr ? request.top_n : 1;
      candidates = GatherAllowedCandidates(tc, top_k, required, filter.get(),
                                           request.max_tiles_screened,
                                           &response.tiles_screened);
    } else {
      response.stages_used = 1;
      candidates = AllAllowedPois(filter.get());
    }
    if (candidates.empty()) continue;

    // Stage 2 scores the candidates alone: each cosine is one DotRow of
    // h_poi against the candidate's cached row, bitwise the element a GEMM
    // over every POI would give. Hierarchical score fusion, as in training:
    // with the two-step screen each candidate also carries its tile's
    // stage-1 cosine as a gamma-weighted prior.
    const float* hp = scores.h_pois.data() + static_cast<int64_t>(b) * dm;
    const float* poi_rows = scores.poi_et.data();
    std::vector<float> fused(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const float cosine =
          nn::kernels::DotRow(hp, poi_rows + candidates[i] * dm, dm);
      fused[i] = config_.use_two_step
                     ? cosine + gamma * tc[CandidateTileOfPoi(candidates[i])]
                     : cosine;
    }
    // Only the top-N ordering is returned: select instead of sorting all
    // candidates.
    std::vector<int64_t> order = TopKIndices(
        fused.data(), static_cast<int64_t>(candidates.size()), request.top_n);
    response.items.reserve(order.size());
    for (int64_t idx : order) {
      const int64_t poi = candidates[static_cast<size_t>(idx)];
      response.items.push_back(
          {poi, fused[static_cast<size_t>(idx)],
           config_.use_two_step ? CandidateTileOfPoi(poi) : int64_t{-1}});
    }
  }
  return responses;
}

std::vector<int64_t> TspnRa::RankTiles(const data::SampleRef& sample) const {
  return RankTilesTopK(sample, NumCandidateTiles());
}

std::vector<int64_t> TspnRa::RankTilesTopK(const data::SampleRef& sample,
                                           int64_t k) const {
  const BatchScores scores =
      ScoreBatch(common::Span<data::SampleRef>(&sample, 1));
  return TopKIndices(scores.Tiles(0), NumCandidateTiles(), k);
}

int64_t TspnRa::TargetTileIndex(const data::SampleRef& sample) const {
  return CandidateTileOfPoi(dataset_->Target(sample).poi_id);
}

int64_t TspnRa::CandidatePoiCount(const data::SampleRef& sample,
                                  int32_t top_k) const {
  std::vector<int64_t> ranked = RankTilesTopK(sample, top_k);
  return static_cast<int64_t>(GatherCandidates(ranked, top_k).size());
}

geo::BoundingBox TspnRa::CandidateTileBounds(int64_t candidate) const {
  if (config_.use_quadtree) {
    return dataset_->quadtree()
        .node(leaf_tile_ids_[static_cast<size_t>(candidate)])
        .bounds;
  }
  return grid_->TileBounds(candidate);
}

std::vector<int64_t> TspnRa::GatherAllowedCandidates(
    const float* cos_tiles, int32_t top_k, int64_t required,
    const eval::ConstraintEvaluator* filter, int64_t max_tiles,
    int64_t* tiles_screened) const {
  const int64_t num_tiles = static_cast<int64_t>(leaf_tile_ids_.size());
  // The degraded-mode cap bounds the whole screen, initial top_k included:
  // under overload the gateway would rather serve a shallower candidate
  // pool than let constraint widening walk every tile in the city.
  const int64_t tile_cap =
      max_tiles > 0 ? std::min<int64_t>(max_tiles, num_tiles) : num_tiles;
  std::vector<int64_t> candidates;
  // Gathers tiles order[consumed, limit) into `candidates`, through the
  // constraint filter when one is active. Each tile is classified against
  // the geo fence once: an outside tile is skipped whole, and only the POIs
  // of a boundary tile pay for a distance test.
  auto gather = [&](const std::vector<int64_t>& order, int64_t consumed,
                    int64_t limit) {
    for (int64_t i = consumed; i < limit; ++i) {
      const int64_t tile = order[static_cast<size_t>(i)];
      const std::vector<int64_t>& pois = tile_pois_[static_cast<size_t>(tile)];
      if (filter == nullptr) {
        candidates.insert(candidates.end(), pois.begin(), pois.end());
        continue;
      }
      const eval::FenceRelation relation =
          filter->TileRelation(CandidateTileBounds(tile));
      if (relation == eval::FenceRelation::kOutside) continue;
      for (int64_t pid : pois) {
        if (filter->AllowsInTile(pid, relation)) candidates.push_back(pid);
      }
    }
  };
  // Constraints are applied before top-k selection, so the screen must keep
  // widening until the allowed pool can fill the request (required = top_n)
  // — not merely until it is non-empty as in the unconstrained case
  // (required = 1). Widening is incremental: the (score desc, index asc)
  // tile order is a fixed total order, so top-2k's prefix equals top-k and
  // only the newly admitted tiles need gathering; the first widening
  // switches to the full ranking once instead of re-selecting per round.
  int64_t widened = std::min<int64_t>(top_k, tile_cap);
  std::vector<int64_t> order = TopKIndices(cos_tiles, num_tiles, top_k);
  int64_t consumed = widened;
  gather(order, 0, consumed);
  while (static_cast<int64_t>(candidates.size()) < required &&
         widened < tile_cap) {
    widened *= 2;
    if (static_cast<int64_t>(order.size()) < num_tiles) {
      order = TopKIndices(cos_tiles, num_tiles, num_tiles);
    }
    const int64_t limit = std::min<int64_t>(widened, tile_cap);
    gather(order, consumed, limit);
    consumed = limit;
  }
  if (tiles_screened != nullptr) {
    *tiles_screened = std::min<int64_t>(widened, tile_cap);
  }
  return candidates;
}

std::vector<int64_t> TspnRa::AllAllowedPois(
    const eval::ConstraintEvaluator* filter) const {
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  std::vector<int64_t> candidates;
  candidates.reserve(static_cast<size_t>(num_pois));
  for (int64_t id = 0; id < num_pois; ++id) {
    if (filter == nullptr || filter->Allows(id)) candidates.push_back(id);
  }
  return candidates;
}

std::vector<int64_t> TspnRa::RecommendWithK(const data::SampleRef& sample,
                                            int64_t top_n, int32_t top_k) const {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = top_n;
  return RecommendScored(common::Span<eval::RecommendRequest>(&request, 1),
                         top_k)[0]
      .PoiIds();
}

eval::RecommendResponse TspnRa::RecommendImpl(
    const eval::RecommendRequest& request) const {
  return std::move(RecommendScored(
      common::Span<eval::RecommendRequest>(&request, 1), config_.top_k_tiles)[0]);
}

std::vector<eval::RecommendResponse> TspnRa::RecommendBatchImpl(
    common::Span<eval::RecommendRequest> requests) const {
  return RecommendScored(requests, config_.top_k_tiles);
}

int64_t TspnRa::ParameterCount() const { return net_->ParameterCount(); }

std::vector<nn::Tensor> TspnRa::Parameters() const { return net_->Parameters(); }

void TspnRa::SaveState(std::ostream& out) const {
  nn::SaveParameters(net_->Parameters(), out);
}

bool TspnRa::LoadState(std::istream& in) {
  // Atomic load: a corrupted payload must leave the live weights (and the
  // inference caches built from them) untouched.
  std::vector<nn::Tensor> params = net_->Parameters();
  if (!nn::LoadParametersAtomic(params, in)) return false;
  caches_built_.store(false);  // ET must be recomputed from the loaded weights
  return true;
}

}  // namespace tspn::core
