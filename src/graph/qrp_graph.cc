#include "graph/qrp_graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace tspn::graph {

void FillNeighbourLists(QrpGraph& graph) {
  const int64_t n = graph.NumNodes();
  for (int type = 0; type < QrpGraph::kNumEdgeTypes; ++type) {
    const auto& edges = graph.edges(type);
    NeighbourList& list = graph.neighbours[static_cast<size_t>(type)];
    list.offsets.assign(static_cast<size_t>(n + 1), 0);
    for (const auto& [a, b] : edges) {
      TSPN_CHECK(a >= 0 && a < n && b >= 0 && b < n) << "edge node out of range";
      TSPN_CHECK_NE(a, b) << "self-loop in QR-P edge type " << type;
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
      auto begin = list.cols.begin() + list.offsets[static_cast<size_t>(i)];
      auto end = list.cols.begin() + list.offsets[static_cast<size_t>(i + 1)];
      std::sort(begin, end);
      TSPN_CHECK(std::adjacent_find(begin, end) == end)
          << "duplicate QR-P edge of type " << type << " at node " << i;
    }
  }
}

QrpGraph BuildQrpGraph(const spatial::QuadTree& tree,
                       const roadnet::TileAdjacency& leaf_adjacency,
                       const std::vector<data::Poi>& pois,
                       const std::vector<int64_t>& visited_poi_ids) {
  QrpGraph graph;
  if (visited_poi_ids.empty()) return graph;

  // Unique POIs in first-visit order, and their leaf tiles.
  std::unordered_set<int64_t> seen;
  std::vector<int32_t> leaves;
  for (int64_t pid : visited_poi_ids) {
    TSPN_CHECK_GE(pid, 0);
    TSPN_CHECK_LT(pid, static_cast<int64_t>(pois.size()));
    if (seen.insert(pid).second) {
      graph.poi_ids.push_back(pid);
      leaves.push_back(tree.LocateLeaf(pois[static_cast<size_t>(pid)].loc));
    }
  }

  // Step 1: minimal sub-tree covering the visited leaves.
  std::vector<int32_t> unique_leaves = leaves;
  std::sort(unique_leaves.begin(), unique_leaves.end());
  unique_leaves.erase(std::unique(unique_leaves.begin(), unique_leaves.end()),
                      unique_leaves.end());
  graph.tile_ids = tree.MinimalSubtree(unique_leaves);

  std::unordered_map<int32_t, int32_t> tile_local;
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    tile_local[graph.tile_ids[i]] = static_cast<int32_t>(i);
  }

  // Branch edges: parent-child pairs inside the sub-tree.
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    int32_t parent = tree.node(graph.tile_ids[i]).parent;
    auto it = parent >= 0 ? tile_local.find(parent) : tile_local.end();
    if (it != tile_local.end()) {
      graph.branch_edges.emplace_back(it->second, static_cast<int32_t>(i));
    }
  }

  // Step 2: road edges between leaf tiles of the sub-tree.
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

  // Step 3: contain edges (leaf tile -> POI node). POI local indices start
  // after the tile nodes.
  for (size_t p = 0; p < graph.poi_ids.size(); ++p) {
    int32_t leaf = leaves[p];
    auto it = tile_local.find(leaf);
    TSPN_CHECK(it != tile_local.end()) << "leaf missing from minimal subtree";
    graph.contain_edges.emplace_back(
        it->second, static_cast<int32_t>(graph.tile_ids.size() + p));
  }
  FillNeighbourLists(graph);
  return graph;
}

QrpGraph BuildQrpGraphFromGrid(const spatial::GridIndex& grid,
                               const roadnet::TileAdjacency& cell_adjacency,
                               const std::vector<data::Poi>& pois,
                               const std::vector<int64_t>& visited_poi_ids) {
  QrpGraph graph;
  if (visited_poi_ids.empty()) return graph;

  std::unordered_set<int64_t> seen;
  std::vector<int64_t> cells;
  for (int64_t pid : visited_poi_ids) {
    TSPN_CHECK_GE(pid, 0);
    TSPN_CHECK_LT(pid, static_cast<int64_t>(pois.size()));
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
        cell_local.at(cells[p]),
        static_cast<int32_t>(graph.tile_ids.size() + p));
  }
  FillNeighbourLists(graph);
  return graph;
}

}  // namespace tspn::graph
