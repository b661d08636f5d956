#include "core/hgat.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"
#include "tests/nn/grad_check.h"

namespace tspn::core {
namespace {

graph::QrpGraph TinyGraph() {
  // Tiles 0,1,2 (0 is parent of 1,2; 1-2 road-connected), POIs 3,4
  // contained in tiles 1 and 2.
  graph::QrpGraph g;
  g.tile_ids = {10, 11, 12};
  g.poi_ids = {100, 200};
  g.branch_edges = {{0, 1}, {0, 2}};
  g.road_edges = {{1, 2}};
  g.contain_edges = {{1, 3}, {2, 4}};
  graph::FillNeighbourLists(g);
  return g;
}

/// Neighbours of `node` for one edge type, read off the CSR.
std::vector<int32_t> Row(const graph::QrpGraph& g, int type, int32_t node) {
  const graph::NeighbourList& list = g.neighbours[static_cast<size_t>(type)];
  return {list.cols.begin() + list.offsets[static_cast<size_t>(node)],
          list.cols.begin() + list.offsets[static_cast<size_t>(node) + 1]};
}

/// Eq. 6 computed densely, the way HgatLayer did before the sparse op: per
/// enabled edge type an [n, n] {0,1} mask, [n, n] logits, non-edges pushed to
/// -1e9 before the row softmax and zeroed after, then an [n, n] x [n, dm]
/// MatMul. Kept only here, as the reference the sparse layer must match.
nn::Tensor DenseHgatReference(const HgatLayer& layer, const nn::Tensor& h,
                              const graph::QrpGraph& g, bool use_road_edges,
                              bool use_contain_edges) {
  // Registration order: (a_src_k, a_dst_k) for each k, then W_0..W_2, self.
  std::vector<nn::Tensor> params = layer.Parameters();
  EXPECT_EQ(params.size(), 10u);
  const int64_t n = h.dim(0);
  auto linear = [](const nn::Tensor& x, const nn::Tensor& w) {
    return nn::MatMul(x, nn::Transpose(w));
  };
  const bool enabled[] = {true, use_road_edges, use_contain_edges};
  nn::Tensor aggregated = linear(h, params[9]);
  for (int k = 0; k < HgatLayer::kNumEdgeTypes; ++k) {
    if (!enabled[k] || g.edges(k).empty()) continue;
    std::vector<float> mask(static_cast<size_t>(n * n), 0.0f);
    for (const auto& [a, b] : g.edges(k)) {
      mask[static_cast<size_t>(a) * n + b] = 1.0f;
      mask[static_cast<size_t>(b) * n + a] = 1.0f;
    }
    nn::Tensor adj = nn::Tensor::FromVector({n, n}, std::move(mask));
    nn::Tensor hk = linear(h, params[static_cast<size_t>(6 + k)]);
    nn::Tensor e_src =
        nn::Reshape(nn::MatVec(hk, params[static_cast<size_t>(2 * k)]), {n, 1});
    nn::Tensor e_dst =
        nn::Reshape(nn::MatVec(hk, params[static_cast<size_t>(2 * k + 1)]), {1, n});
    nn::Tensor scores = nn::LeakyRelu(nn::Add(e_src, e_dst), 0.2f);
    nn::Tensor neg_mask = nn::MulScalar(nn::AddScalar(nn::Neg(adj), 1.0f), -1e9f);
    nn::Tensor attention = nn::Mul(nn::Softmax(nn::Add(scores, neg_mask)), adj);
    aggregated = nn::Add(aggregated, nn::MatMul(attention, hk));
  }
  return nn::Elu(aggregated);
}

/// A seeded random QR-P-shaped graph on n nodes: about a third tiles, the
/// rest POIs. Each type's edges are distinct undirected pairs without
/// self-loops; some nodes get no edge of a type, some none at all.
graph::QrpGraph RandomGraph(int64_t n, uint64_t seed) {
  common::Rng rng(seed);
  const int64_t tiles = std::max<int64_t>(1, n / 3);
  graph::QrpGraph g;
  for (int64_t i = 0; i < tiles; ++i) g.tile_ids.push_back(static_cast<int32_t>(i));
  for (int64_t i = tiles; i < n; ++i) g.poi_ids.push_back(i);
  auto add_unique = [](std::set<std::pair<int32_t, int32_t>>& seen,
                       std::vector<std::pair<int32_t, int32_t>>& edges,
                       int64_t a, int64_t b) {
    if (a == b) return;
    std::pair<int32_t, int32_t> key =
        std::minmax(static_cast<int32_t>(a), static_cast<int32_t>(b));
    if (seen.insert(key).second) edges.emplace_back(key.first, key.second);
  };
  std::set<std::pair<int32_t, int32_t>> branch, road, contain;
  // Branch: a forest over the tiles; tile 0 and every fifth tile stay roots.
  for (int64_t t = 1; t < tiles; ++t) {
    if (t % 5 != 0) add_unique(branch, g.branch_edges, rng.UniformInt(t), t);
  }
  for (int64_t r = 0; r < tiles / 2; ++r) {
    add_unique(road, g.road_edges, rng.UniformInt(tiles), rng.UniformInt(tiles));
  }
  // Contain: most POIs hang off one tile; every seventh POI stays isolated.
  for (int64_t p = tiles; p < n; ++p) {
    if (p % 7 != 0) add_unique(contain, g.contain_edges, rng.UniformInt(tiles), p);
  }
  graph::FillNeighbourLists(g);
  return g;
}

TEST(HgatTest, NeighbourListsAreSymmetric) {
  graph::QrpGraph g = TinyGraph();
  using graph::QrpGraph;
  for (int k = 0; k < QrpGraph::kNumEdgeTypes; ++k) {
    EXPECT_EQ(g.neighbours[static_cast<size_t>(k)].offsets.size(), 6u);
  }
  // Branch: 0-1 and 0-2, listed from both ends; POIs have no branch row.
  EXPECT_EQ(Row(g, QrpGraph::kBranch, 0), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(Row(g, QrpGraph::kBranch, 1), (std::vector<int32_t>{0}));
  EXPECT_EQ(Row(g, QrpGraph::kBranch, 2), (std::vector<int32_t>{0}));
  EXPECT_TRUE(Row(g, QrpGraph::kBranch, 3).empty());
  // Road: symmetric 1-2.
  EXPECT_EQ(Row(g, QrpGraph::kRoad, 1), (std::vector<int32_t>{2}));
  EXPECT_EQ(Row(g, QrpGraph::kRoad, 2), (std::vector<int32_t>{1}));
  EXPECT_TRUE(Row(g, QrpGraph::kRoad, 0).empty());
  // Contain links tile and POI nodes.
  EXPECT_EQ(Row(g, QrpGraph::kContain, 1), (std::vector<int32_t>{3}));
  EXPECT_EQ(Row(g, QrpGraph::kContain, 3), (std::vector<int32_t>{1}));
  EXPECT_EQ(Row(g, QrpGraph::kContain, 4), (std::vector<int32_t>{2}));
}

TEST(HgatTest, DisablingEdgeTypesDropsTheirAttention) {
  // With road and contain switched off, the layer sees the same graph as one
  // that never had those edges: their CSR rows are all empty.
  common::Rng rng(6);
  HgatLayer layer(8, rng);
  graph::QrpGraph g = TinyGraph();
  graph::QrpGraph branch_only = g;
  branch_only.road_edges.clear();
  branch_only.contain_edges.clear();
  graph::FillNeighbourLists(branch_only);
  EXPECT_EQ(branch_only.neighbours[graph::QrpGraph::kBranch].cols,
            g.neighbours[graph::QrpGraph::kBranch].cols);
  EXPECT_TRUE(branch_only.neighbours[graph::QrpGraph::kRoad].cols.empty());
  EXPECT_TRUE(branch_only.neighbours[graph::QrpGraph::kContain].cols.empty());

  nn::Tensor h = nn::Tensor::RandomUniform({5, 8}, 1.0f, rng);
  nn::testing::CheckTensorsNear(layer.Forward(h, g, false, false),
                                layer.Forward(h, branch_only, true, true));
  nn::Tensor all = layer.Forward(h, g, true, true);
  nn::Tensor ablated = layer.Forward(h, g, false, false);
  double diff = 0.0;
  for (int64_t i = 0; i < all.numel(); ++i) diff += std::abs(all.at(i) - ablated.at(i));
  EXPECT_GT(diff, 1e-4);
}

TEST(HgatTest, SparseLayerMatchesDenseReference) {
  // Outputs and every gradient (h and all ten parameters) agree with the
  // dense formula to 1e-5 relative (absolute below magnitude 1): only the
  // summation order differs.
  constexpr float kTol = 1e-5f;
  const bool switches[][2] = {{true, true}, {false, true}, {true, false}};
  for (int64_t n : {1, 5, 40, 150}) {
    common::Rng rng(static_cast<uint64_t>(100 + n));
    HgatLayer layer(16, rng);
    graph::QrpGraph g = RandomGraph(n, static_cast<uint64_t>(n));
    nn::Tensor h = nn::Tensor::RandomUniform({n, 16}, 1.0f, rng, true);
    std::vector<nn::Tensor> inputs = layer.Parameters();
    inputs.push_back(h);
    nn::Tensor probe = nn::Tensor::RandomUniform({n, 16}, 1.0f, rng);
    for (const auto& [road, contain] : switches) {
      SCOPED_TRACE("n=" + std::to_string(n) + " road=" + std::to_string(road) +
                   " contain=" + std::to_string(contain));
      nn::testing::CheckTensorsNear(layer.Forward(h, g, road, contain),
                                    DenseHgatReference(layer, h, g, road, contain),
                                    kTol);
      nn::testing::CheckGradParity(
          inputs,
          [&] { return nn::SumAll(nn::Mul(layer.Forward(h, g, road, contain), probe)); },
          [&] {
            return nn::SumAll(
                nn::Mul(DenseHgatReference(layer, h, g, road, contain), probe));
          },
          kTol);
    }
  }
}

TEST(HgatTest, LayerOutputShape) {
  common::Rng rng(1);
  HgatLayer layer(8, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor h = nn::Tensor::RandomUniform({5, 8}, 1.0f, rng);
  nn::Tensor out = layer.Forward(h, g, true, true);
  EXPECT_EQ(out.shape(), nn::Shape({5, 8}));
}

TEST(HgatTest, IsolatedNodeStillProducesOutput) {
  common::Rng rng(2);
  HgatLayer layer(8, rng);
  graph::QrpGraph g;
  g.tile_ids = {0, 1};  // two tiles, no edges at all
  graph::FillNeighbourLists(g);
  nn::Tensor h = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng);
  nn::Tensor out = layer.Forward(h, g, true, true);
  double norm = 0.0;
  for (int64_t i = 0; i < out.numel(); ++i) norm += std::abs(out.at(i));
  EXPECT_GT(norm, 1e-4);  // self-transform keeps the node informative
}

TEST(HgatTest, MessagePassingPropagatesInformation) {
  // Node 0's output must change when a connected node's features change,
  // and stay identical when a disconnected node changes.
  common::Rng rng(3);
  HgatLayer layer(8, rng);
  graph::QrpGraph g;
  g.tile_ids = {0, 1, 2};
  g.branch_edges = {{0, 1}};  // 0-1 connected; 2 isolated
  graph::FillNeighbourLists(g);

  nn::Tensor h1 = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng);
  std::vector<float> v2 = h1.ToVector();
  for (int i = 0; i < 8; ++i) v2[8 + i] += 1.0f;  // perturb node 1
  nn::Tensor h2 = nn::Tensor::FromVector({3, 8}, v2);
  std::vector<float> v3 = h1.ToVector();
  for (int i = 0; i < 8; ++i) v3[16 + i] += 1.0f;  // perturb node 2
  nn::Tensor h3 = nn::Tensor::FromVector({3, 8}, v3);

  nn::Tensor out1 = layer.Forward(h1, g, true, true);
  nn::Tensor out2 = layer.Forward(h2, g, true, true);
  nn::Tensor out3 = layer.Forward(h3, g, true, true);
  double diff_connected = 0.0, diff_isolated = 0.0;
  for (int i = 0; i < 8; ++i) {
    diff_connected += std::abs(out1.at(i) - out2.at(i));
    diff_isolated += std::abs(out1.at(i) - out3.at(i));
  }
  EXPECT_GT(diff_connected, 1e-4);
  EXPECT_NEAR(diff_isolated, 0.0, 1e-5);
}

TEST(QrpEncoderTest, SplitsTileAndPoiKnowledge) {
  common::Rng rng(4);
  TspnRaConfig config;
  config.dm = 8;
  config.num_hgat_layers = 2;
  QrpEncoder encoder(config, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor tiles = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng);
  nn::Tensor pois = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng);
  QrpEncoder::Output out = encoder.Encode(g, tiles, pois);
  EXPECT_EQ(out.tile_knowledge.shape(), nn::Shape({3, 8}));
  EXPECT_EQ(out.poi_knowledge.shape(), nn::Shape({2, 8}));
}

TEST(QrpEncoderTest, GradientFlowsToInitialEmbeddings) {
  common::Rng rng(5);
  TspnRaConfig config;
  config.dm = 8;
  QrpEncoder encoder(config, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor tiles = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng, true);
  nn::Tensor pois = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng, true);
  QrpEncoder::Output out = encoder.Encode(g, tiles, pois);
  nn::SumAll(nn::Mul(out.poi_knowledge, out.poi_knowledge)).Backward();
  auto grad = tiles.GradToVector();
  double total = 0.0;
  for (float v : grad) total += std::abs(v);
  EXPECT_GT(total, 1e-6) << "POI knowledge should depend on tile features";
}

}  // namespace
}  // namespace tspn::core
