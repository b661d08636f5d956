#include "graph/qrp_graph.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
