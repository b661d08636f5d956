#include "core/hgat.h"

#include <cmath>

#include "common/check.h"
#include "nn/ops.h"

namespace tspn::core {

HgatLayer::HgatLayer(int64_t dm, common::Rng& rng) {
  for (int k = 0; k < kNumEdgeTypes; ++k) {
    w_.push_back(std::make_unique<nn::Linear>(dm, dm, rng, /*with_bias=*/false));
    RegisterChild(w_.back().get());
    float bound = std::sqrt(3.0f / static_cast<float>(dm));
    a_src_.push_back(std::make_unique<nn::Tensor>(RegisterParameter(
        nn::Tensor::RandomUniform({dm}, bound, rng, /*requires_grad=*/true))));
    a_dst_.push_back(std::make_unique<nn::Tensor>(RegisterParameter(
        nn::Tensor::RandomUniform({dm}, bound, rng, /*requires_grad=*/true))));
  }
  self_ = std::make_unique<nn::Linear>(dm, dm, rng, /*with_bias=*/false);
  RegisterChild(self_.get());
}

nn::Tensor HgatLayer::Forward(const nn::Tensor& h, const graph::QrpGraph& graph,
                              bool use_road_edges, bool use_contain_edges) const {
  TSPN_CHECK_EQ(h.rank(), 2);
  TSPN_CHECK_EQ(h.dim(0), graph.NumNodes());
  const bool enabled[kNumEdgeTypes] = {true, use_road_edges, use_contain_edges};
  // Self-transform keeps isolated nodes (and every node's own state) alive.
  nn::Tensor aggregated = self_->Forward(h);
  for (int k = 0; k < kNumEdgeTypes; ++k) {
    if (!enabled[k] || graph.edges(k).empty()) continue;
    const auto kk = static_cast<size_t>(k);
    const graph::NeighbourList& list = graph.neighbours[kk];
    TSPN_CHECK_EQ(list.cols.size(), 2 * graph.edges(k).size())
        << "QR-P graph without neighbour lists (graph::FillNeighbourLists)";
    nn::Tensor hk = w_[kk]->Forward(h);  // [n, dm]
    aggregated = nn::Add(aggregated,
                         nn::SparseGraphAttention(hk, *a_src_[kk], *a_dst_[kk],
                                                  list.offsets, list.cols, 0.2f));
  }
  return nn::Elu(aggregated);
}

QrpEncoder::QrpEncoder(const TspnRaConfig& config, common::Rng& rng)
    : config_(config) {
  for (int32_t i = 0; i < config_.num_hgat_layers; ++i) {
    layers_.push_back(std::make_unique<HgatLayer>(config_.dm, rng));
    RegisterChild(layers_.back().get());
  }
}

QrpEncoder::Output QrpEncoder::Encode(const graph::QrpGraph& graph,
                                      const nn::Tensor& tile_init,
                                      const nn::Tensor& poi_init) const {
  TSPN_CHECK(!graph.empty());
  TSPN_CHECK_EQ(tile_init.dim(0), graph.NumTileNodes());
  TSPN_CHECK_EQ(poi_init.dim(0), graph.NumPoiNodes());
  nn::Tensor h = nn::ConcatRows({tile_init, poi_init});
  for (const auto& layer : layers_) {
    h = layer->Forward(h, graph, config_.use_road_edges, config_.use_contain_edges);
  }
  Output out;
  out.tile_knowledge = nn::SliceRows(h, 0, graph.NumTileNodes());
  out.poi_knowledge = nn::SliceRows(h, graph.NumTileNodes(), graph.NumPoiNodes());
  return out;
}

}  // namespace tspn::core
