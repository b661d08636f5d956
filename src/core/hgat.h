#ifndef TSPN_CORE_HGAT_H_
#define TSPN_CORE_HGAT_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "graph/qrp_graph.h"
#include "nn/layers.h"

namespace tspn::core {

/// One heterogeneous graph-attention layer (Eq. 6): per edge type k, GAT
/// attention with weights W_k and attention vector a_k, summed over types
/// and passed through a nonlinearity. A self-transform keeps isolated nodes
/// informative. Attention runs over each node's real neighbours only
/// (nn::SparseGraphAttention on the graph's CSR lists): QR-P graphs have
/// 78-150 nodes but only about one edge per node.
class HgatLayer : public nn::Module {
 public:
  static constexpr int kNumEdgeTypes = graph::QrpGraph::kNumEdgeTypes;

  HgatLayer(int64_t dm, common::Rng& rng);

  /// h: [n, dm] over the graph's nodes. Branch edges always take part; road
  /// and contain edges only when enabled (the fine-grained ablations).
  /// Returns the updated [n, dm].
  nn::Tensor Forward(const nn::Tensor& h, const graph::QrpGraph& graph,
                     bool use_road_edges, bool use_contain_edges) const;

 private:
  std::vector<std::unique_ptr<nn::Linear>> w_;       // W_k
  std::vector<std::unique_ptr<nn::Tensor>> a_src_;   // a_k split: source half
  std::vector<std::unique_ptr<nn::Tensor>> a_dst_;   // a_k split: target half
  std::unique_ptr<nn::Linear> self_;
};

/// MG (Sec. IV-C): stacks HGAT layers over a QR-P graph. Initial node
/// features come from ET (tile nodes) and EP-style POI embeddings; the
/// output splits back into tile-level and POI-level historical knowledge.
class QrpEncoder : public nn::Module {
 public:
  QrpEncoder(const TspnRaConfig& config, common::Rng& rng);

  struct Output {
    nn::Tensor tile_knowledge;  ///< [num_tile_nodes, dm] (H^T_<)
    nn::Tensor poi_knowledge;   ///< [num_poi_nodes, dm]  (H^P_<)
  };

  /// `tile_init` [num_tile_nodes, dm] and `poi_init` [num_poi_nodes, dm] are
  /// the gathered initial embeddings (Eq. 7). Edge types can be disabled for
  /// the fine-grained ablations.
  Output Encode(const graph::QrpGraph& graph, const nn::Tensor& tile_init,
                const nn::Tensor& poi_init) const;

 private:
  const TspnRaConfig config_;
  std::vector<std::unique_ptr<HgatLayer>> layers_;
};

}  // namespace tspn::core

#endif  // TSPN_CORE_HGAT_H_
