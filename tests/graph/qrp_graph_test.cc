#include "graph/qrp_graph.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/checkin_generator.h"
#include "data/dataset.h"

namespace tspn::graph {
namespace {

class QrpGraphTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }
  static std::shared_ptr<data::CityDataset> dataset_;

  /// Some visited POI ids spanning several tiles.
  static std::vector<int64_t> SampleVisits() {
    return {0, 5, 10, 40, 80, 5, 110, 0};
  }
};

std::shared_ptr<data::CityDataset> QrpGraphTest::dataset_;

TEST_F(QrpGraphTest, EmptyTrajectoryEmptyGraph) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), {});
  EXPECT_TRUE(g.empty());
}

TEST_F(QrpGraphTest, RepeatVisitsCollapseToOneNode) {
  std::vector<int64_t> visits = SampleVisits();
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), visits);
  std::set<int64_t> unique(visits.begin(), visits.end());
  EXPECT_EQ(g.NumPoiNodes(), static_cast<int64_t>(unique.size()));
}

TEST_F(QrpGraphTest, EveryPoiHasExactlyOneContainEdge) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), SampleVisits());
  std::vector<int> contain_count(static_cast<size_t>(g.NumPoiNodes()), 0);
  for (const auto& [tile, poi] : g.contain_edges) {
    EXPECT_GE(tile, 0);
    EXPECT_LT(tile, g.NumTileNodes());
    EXPECT_GE(poi, g.NumTileNodes());
    EXPECT_LT(poi, g.NumNodes());
    ++contain_count[static_cast<size_t>(poi - g.NumTileNodes())];
  }
  for (int c : contain_count) EXPECT_EQ(c, 1);
}

TEST_F(QrpGraphTest, ContainEdgeTileActuallyContainsPoi) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), SampleVisits());
  for (const auto& [tile, poi] : g.contain_edges) {
    int32_t node_id = g.tile_ids[static_cast<size_t>(tile)];
    int64_t poi_id = g.poi_ids[static_cast<size_t>(poi - g.NumTileNodes())];
    EXPECT_TRUE(dataset_->quadtree().node(node_id).bounds.Contains(
        dataset_->poi(poi_id).loc));
  }
}

TEST_F(QrpGraphTest, BranchEdgesFormTreeOverTiles) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), SampleVisits());
  // A tree over the tile nodes has exactly |tiles| - 1 branch edges (the
  // minimal subtree is connected and rooted).
  EXPECT_EQ(static_cast<int64_t>(g.branch_edges.size()), g.NumTileNodes() - 1);
  for (const auto& [parent, child] : g.branch_edges) {
    int32_t parent_id = g.tile_ids[static_cast<size_t>(parent)];
    int32_t child_id = g.tile_ids[static_cast<size_t>(child)];
    EXPECT_EQ(dataset_->quadtree().node(child_id).parent, parent_id);
  }
}

TEST_F(QrpGraphTest, RoadEdgesOnlyBetweenLeaves) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), SampleVisits());
  for (const auto& [a, b] : g.road_edges) {
    int32_t na = g.tile_ids[static_cast<size_t>(a)];
    int32_t nb = g.tile_ids[static_cast<size_t>(b)];
    EXPECT_TRUE(dataset_->quadtree().node(na).is_leaf());
    EXPECT_TRUE(dataset_->quadtree().node(nb).is_leaf());
    EXPECT_TRUE(dataset_->leaf_adjacency().Connected(
        dataset_->quadtree().LeafIndexOf(na), dataset_->quadtree().LeafIndexOf(nb)));
  }
}

TEST_F(QrpGraphTest, SinglePoiGraphIsOneTileOnePoi) {
  QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                             dataset_->pois(), {3});
  EXPECT_EQ(g.NumPoiNodes(), 1);
  EXPECT_EQ(g.NumTileNodes(), 1);
  EXPECT_TRUE(g.branch_edges.empty());
  EXPECT_EQ(g.contain_edges.size(), 1u);
}

TEST_F(QrpGraphTest, GridVariantHasNoBranchEdges) {
  spatial::GridIndex grid(dataset_->profile().bbox, 8);
  roadnet::TileAdjacency adj =
      roadnet::TileAdjacency::Build(dataset_->roads(), grid);
  QrpGraph g = BuildQrpGraphFromGrid(grid, adj, dataset_->pois(), SampleVisits());
  EXPECT_TRUE(g.branch_edges.empty());
  EXPECT_GT(g.NumTileNodes(), 0);
  EXPECT_EQ(g.contain_edges.size(), static_cast<size_t>(g.NumPoiNodes()));
  for (const auto& [tile, poi] : g.contain_edges) {
    int64_t cell = g.tile_ids[static_cast<size_t>(tile)];
    int64_t poi_id = g.poi_ids[static_cast<size_t>(poi - g.NumTileNodes())];
    EXPECT_EQ(grid.TileOf(dataset_->poi(poi_id).loc), cell);
  }
}

TEST_F(QrpGraphTest, GraphFromRealHistory) {
  // Build from an actual user's history; invariants must hold.
  const auto& users = dataset_->users();
  for (size_t u = 0; u < users.size(); ++u) {
    if (users[u].trajectories.size() < 3) continue;
    auto history = dataset_->HistoryPoiIds(static_cast<int32_t>(u), 2);
    QrpGraph g = BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                               dataset_->pois(), history);
    EXPECT_GT(g.NumNodes(), 0);
    EXPECT_EQ(g.contain_edges.size(), static_cast<size_t>(g.NumPoiNodes()));
    break;
  }
}

/// The invariants the CSR neighbour lists rely on: within each type no
/// self-loop and no duplicate undirected edge (a dense mask would hide one, a
/// CSR row would count it twice), and every row sorted and equal to the edge
/// list read from both ends.
void ExpectCsrInvariants(const QrpGraph& g) {
  const int64_t n = g.NumNodes();
  for (int type = 0; type < QrpGraph::kNumEdgeTypes; ++type) {
    SCOPED_TRACE("edge type " + std::to_string(type));
    std::set<std::pair<int32_t, int32_t>> undirected;
    std::vector<std::vector<int32_t>> want(static_cast<size_t>(n));
    for (const auto& [a, b] : g.edges(type)) {
      EXPECT_NE(a, b) << "self-loop";
      EXPECT_TRUE(undirected.insert(std::minmax(a, b)).second)
          << "duplicate edge " << a << "-" << b;
      want[static_cast<size_t>(a)].push_back(b);
      want[static_cast<size_t>(b)].push_back(a);
    }
    const NeighbourList& list = g.neighbours[static_cast<size_t>(type)];
    ASSERT_EQ(static_cast<int64_t>(list.offsets.size()), n + 1);
    EXPECT_EQ(list.offsets.front(), 0);
    EXPECT_EQ(list.cols.size(), 2 * g.edges(type).size());
    for (int64_t i = 0; i < n; ++i) {
      std::vector<int32_t> row(list.cols.begin() + list.offsets[static_cast<size_t>(i)],
                               list.cols.begin() + list.offsets[static_cast<size_t>(i + 1)]);
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << i;
      std::sort(want[static_cast<size_t>(i)].begin(), want[static_cast<size_t>(i)].end());
      EXPECT_EQ(row, want[static_cast<size_t>(i)]) << "row " << i;
    }
  }
}

TEST_F(QrpGraphTest, NeighbourListsHoldEdgeInvariantsOnRealHistories) {
  spatial::GridIndex grid(dataset_->profile().bbox, 8);
  roadnet::TileAdjacency grid_adj =
      roadnet::TileAdjacency::Build(dataset_->roads(), grid);
  int graphs = 0;
  const auto& users = dataset_->users();
  for (size_t u = 0; u < users.size(); ++u) {
    for (size_t t = 1; t < users[u].trajectories.size(); ++t) {
      auto history = dataset_->HistoryPoiIds(static_cast<int32_t>(u),
                                             static_cast<int32_t>(t));
      if (history.empty()) continue;
      ExpectCsrInvariants(BuildQrpGraph(dataset_->quadtree(),
                                        dataset_->leaf_adjacency(),
                                        dataset_->pois(), history));
      ExpectCsrInvariants(
          BuildQrpGraphFromGrid(grid, grid_adj, dataset_->pois(), history));
      ++graphs;
    }
  }
  EXPECT_GT(graphs, 10);
}

// --- Reference builders -------------------------------------------------------
//
// The QR-P builders as first written: hash-set dedupe, a hash map from tile
// id to local index, and road edges from a scan over every pair of tiles.
// The flat-array builders must give the same graph, edge order included.

void ReferenceFillNeighbourLists(QrpGraph& graph) {
  const int64_t n = graph.NumNodes();
  for (int type = 0; type < QrpGraph::kNumEdgeTypes; ++type) {
    const auto& edges = graph.edges(type);
    NeighbourList& list = graph.neighbours[static_cast<size_t>(type)];
    list.offsets.assign(static_cast<size_t>(n + 1), 0);
    for (const auto& [a, b] : edges) {
      ++list.offsets[static_cast<size_t>(a) + 1];
      ++list.offsets[static_cast<size_t>(b) + 1];
    }
    for (int64_t i = 0; i < n; ++i) {
      list.offsets[static_cast<size_t>(i + 1)] += list.offsets[static_cast<size_t>(i)];
    }
    list.cols.resize(2 * edges.size());
    std::vector<int32_t> fill(list.offsets.begin(), list.offsets.end() - 1);
    for (const auto& [a, b] : edges) {
      list.cols[static_cast<size_t>(fill[static_cast<size_t>(a)]++)] = b;
      list.cols[static_cast<size_t>(fill[static_cast<size_t>(b)]++)] = a;
    }
    for (int64_t i = 0; i < n; ++i) {
      std::sort(list.cols.begin() + list.offsets[static_cast<size_t>(i)],
                list.cols.begin() + list.offsets[static_cast<size_t>(i + 1)]);
    }
  }
}

QrpGraph ReferenceBuildQrpGraph(const spatial::QuadTree& tree,
                                const roadnet::TileAdjacency& leaf_adjacency,
                                const std::vector<data::Poi>& pois,
                                const std::vector<int64_t>& visited_poi_ids) {
  QrpGraph graph;
  if (visited_poi_ids.empty()) return graph;
  std::unordered_set<int64_t> seen;
  std::vector<int32_t> leaves;
  for (int64_t pid : visited_poi_ids) {
    if (seen.insert(pid).second) {
      graph.poi_ids.push_back(pid);
      leaves.push_back(tree.LocateLeaf(pois[static_cast<size_t>(pid)].loc));
    }
  }
  std::vector<int32_t> unique_leaves = leaves;
  std::sort(unique_leaves.begin(), unique_leaves.end());
  unique_leaves.erase(std::unique(unique_leaves.begin(), unique_leaves.end()),
                      unique_leaves.end());
  graph.tile_ids = tree.MinimalSubtree(unique_leaves);
  std::unordered_map<int32_t, int32_t> tile_local;
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    tile_local[graph.tile_ids[i]] = static_cast<int32_t>(i);
  }
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    int32_t parent = tree.node(graph.tile_ids[i]).parent;
    auto it = parent >= 0 ? tile_local.find(parent) : tile_local.end();
    if (it != tile_local.end()) {
      graph.branch_edges.emplace_back(it->second, static_cast<int32_t>(i));
    }
  }
  for (size_t i = 0; i < unique_leaves.size(); ++i) {
    for (size_t j = i + 1; j < unique_leaves.size(); ++j) {
      int64_t leaf_i = tree.LeafIndexOf(unique_leaves[i]);
      int64_t leaf_j = tree.LeafIndexOf(unique_leaves[j]);
      if (leaf_adjacency.Connected(leaf_i, leaf_j)) {
        graph.road_edges.emplace_back(tile_local.at(unique_leaves[i]),
                                      tile_local.at(unique_leaves[j]));
      }
    }
  }
  for (size_t p = 0; p < graph.poi_ids.size(); ++p) {
    graph.contain_edges.emplace_back(
        tile_local.at(leaves[p]), static_cast<int32_t>(graph.tile_ids.size() + p));
  }
  ReferenceFillNeighbourLists(graph);
  return graph;
}

QrpGraph ReferenceBuildQrpGraphFromGrid(const spatial::GridIndex& grid,
                                        const roadnet::TileAdjacency& cell_adjacency,
                                        const std::vector<data::Poi>& pois,
                                        const std::vector<int64_t>& visited_poi_ids) {
  QrpGraph graph;
  if (visited_poi_ids.empty()) return graph;
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> cells;
  for (int64_t pid : visited_poi_ids) {
    if (seen.insert(pid).second) {
      graph.poi_ids.push_back(pid);
      cells.push_back(grid.TileOf(pois[static_cast<size_t>(pid)].loc));
    }
  }
  std::vector<int64_t> unique_cells = cells;
  std::sort(unique_cells.begin(), unique_cells.end());
  unique_cells.erase(std::unique(unique_cells.begin(), unique_cells.end()),
                     unique_cells.end());
  std::unordered_map<int64_t, int32_t> cell_local;
  for (size_t i = 0; i < unique_cells.size(); ++i) {
    graph.tile_ids.push_back(static_cast<int32_t>(unique_cells[i]));
    cell_local[unique_cells[i]] = static_cast<int32_t>(i);
  }
  for (size_t i = 0; i < unique_cells.size(); ++i) {
    for (size_t j = i + 1; j < unique_cells.size(); ++j) {
      if (cell_adjacency.Connected(unique_cells[i], unique_cells[j])) {
        graph.road_edges.emplace_back(cell_local.at(unique_cells[i]),
                                      cell_local.at(unique_cells[j]));
      }
    }
  }
  for (size_t p = 0; p < graph.poi_ids.size(); ++p) {
    graph.contain_edges.emplace_back(
        cell_local.at(cells[p]), static_cast<int32_t>(graph.tile_ids.size() + p));
  }
  ReferenceFillNeighbourLists(graph);
  return graph;
}

void ExpectSameGraph(const QrpGraph& got, const QrpGraph& want) {
  EXPECT_EQ(got.tile_ids, want.tile_ids);
  EXPECT_EQ(got.poi_ids, want.poi_ids);
  EXPECT_EQ(got.branch_edges, want.branch_edges);
  EXPECT_EQ(got.road_edges, want.road_edges);
  EXPECT_EQ(got.contain_edges, want.contain_edges);
  for (int type = 0; type < QrpGraph::kNumEdgeTypes; ++type) {
    EXPECT_EQ(got.neighbours[static_cast<size_t>(type)].offsets,
              want.neighbours[static_cast<size_t>(type)].offsets)
        << "edge type " << type;
    EXPECT_EQ(got.neighbours[static_cast<size_t>(type)].cols,
              want.neighbours[static_cast<size_t>(type)].cols)
        << "edge type " << type;
  }
}

/// Seeded visit lists over a city's POIs: single POIs, a few POIs visited
/// over and over, every POI of one leaf, uniform draws up to 150 visits, and
/// 150-visit walks along road-adjacent leaves (dense road edges).
std::vector<std::vector<int64_t>> VisitLists(const spatial::QuadTree& tree,
                                             const roadnet::TileAdjacency& adjacency,
                                             int64_t num_pois, uint64_t seed) {
  common::Rng rng(seed);
  auto poi_in_leaf = [&](int64_t leaf) {
    const std::vector<int64_t>& ids =
        tree.node(tree.LeafNodes()[static_cast<size_t>(leaf)]).point_ids;
    return ids[static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(ids.size())))];
  };
  std::vector<std::vector<int64_t>> lists;
  for (int trial = 0; trial < 6; ++trial) {
    lists.push_back({rng.UniformInt(num_pois)});

    std::vector<int64_t> pool;
    for (int i = 0; i < 4; ++i) pool.push_back(rng.UniformInt(num_pois));
    std::vector<int64_t> repeats;
    for (int i = 0; i < 40; ++i) repeats.push_back(pool[static_cast<size_t>(rng.UniformInt(4))]);
    lists.push_back(repeats);

    int64_t leaf = rng.UniformInt(tree.NumTiles());
    while (tree.node(tree.LeafNodes()[static_cast<size_t>(leaf)]).point_ids.empty()) {
      leaf = rng.UniformInt(tree.NumTiles());
    }
    std::vector<int64_t> one_leaf =
        tree.node(tree.LeafNodes()[static_cast<size_t>(leaf)]).point_ids;
    one_leaf.insert(one_leaf.end(), one_leaf.begin(), one_leaf.end());
    rng.Shuffle(one_leaf);
    lists.push_back(one_leaf);

    for (int64_t length : {2, 17, 60, 150}) {
      std::vector<int64_t> uniform;
      for (int64_t i = 0; i < length; ++i) uniform.push_back(rng.UniformInt(num_pois));
      lists.push_back(uniform);
    }

    std::vector<int64_t> walk;
    for (int i = 0; i < 150; ++i) {
      if (tree.node(tree.LeafNodes()[static_cast<size_t>(leaf)]).point_ids.empty()) {
        leaf = rng.UniformInt(tree.NumTiles());
        continue;
      }
      walk.push_back(poi_in_leaf(leaf));
      const std::vector<int64_t>& next = adjacency.Neighbors(leaf);
      if (!next.empty() && rng.Bernoulli(0.5)) {
        leaf = next[static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(next.size())))];
      }
    }
    lists.push_back(walk);
  }
  return lists;
}

TEST(QrpGraphReferenceTest, FlatBuildersMatchReferenceOnCityTrees) {
  data::CityProfile metro = data::CityProfile::FoursquareTky();
  metro.num_pois *= 8;
  metro.num_users *= 8;
  for (const data::CityProfile& profile :
       {data::CityProfile::FoursquareNyc(), data::CityProfile::FoursquareTky(),
        metro}) {
    SCOPED_TRACE(profile.name + " x" + std::to_string(profile.num_pois));
    const data::World world = data::BuildWorld(profile);
    std::vector<geo::GeoPoint> points;
    for (const data::Poi& poi : world.pois) points.push_back(poi.loc);
    const spatial::QuadTree tree = spatial::QuadTree::Build(
        profile.bbox, points,
        {.max_depth = profile.quadtree_max_depth,
         .leaf_capacity = profile.quadtree_leaf_capacity});
    const roadnet::TileAdjacency leaf_adjacency =
        roadnet::TileAdjacency::Build(world.roads, tree);
    const spatial::GridIndex grid(profile.bbox, 32);
    const roadnet::TileAdjacency cell_adjacency =
        roadnet::TileAdjacency::Build(world.roads, grid);
    const std::vector<std::vector<int64_t>> lists =
        VisitLists(tree, leaf_adjacency, static_cast<int64_t>(world.pois.size()),
                   profile.seed);
    int64_t road_edges = 0;
    for (const std::vector<int64_t>& visits : lists) {
      SCOPED_TRACE(std::to_string(visits.size()) + " visits");
      const QrpGraph got =
          BuildQrpGraph(tree, leaf_adjacency, world.pois, visits);
      ExpectSameGraph(got, ReferenceBuildQrpGraph(tree, leaf_adjacency,
                                                  world.pois, visits));
      ExpectSameGraph(
          BuildQrpGraphFromGrid(grid, cell_adjacency, world.pois, visits),
          ReferenceBuildQrpGraphFromGrid(grid, cell_adjacency, world.pois,
                                         visits));
      road_edges += static_cast<int64_t>(got.road_edges.size());
    }
    EXPECT_GT(road_edges, 0);
  }
}

TEST(FillNeighbourListsTest, SortsRowsFromUnorderedEdges) {
  // Edges listed in no particular order, both orientations: node 0's row
  // must still come out ascending.
  QrpGraph g;
  g.tile_ids = {0, 1, 2, 3};
  g.branch_edges = {{0, 3}, {1, 0}, {0, 2}};
  g.road_edges = {{3, 1}, {2, 1}};
  FillNeighbourLists(g);
  ExpectCsrInvariants(g);
  const NeighbourList& branch = g.neighbours[QrpGraph::kBranch];
  EXPECT_EQ(std::vector<int32_t>(branch.cols.begin(), branch.cols.begin() + 3),
            (std::vector<int32_t>{1, 2, 3}));
}

TEST(FillNeighbourListsTest, RejectsSelfLoopsAndDuplicateEdges) {
  QrpGraph self_loop;
  self_loop.tile_ids = {0, 1};
  self_loop.road_edges = {{1, 1}};
  EXPECT_DEATH(FillNeighbourLists(self_loop), "self-loop");
  QrpGraph duplicate;
  duplicate.tile_ids = {0, 1, 2};
  duplicate.road_edges = {{0, 1}, {1, 2}, {1, 0}};
  EXPECT_DEATH(FillNeighbourLists(duplicate), "duplicate");
}

}  // namespace
}  // namespace tspn::graph
