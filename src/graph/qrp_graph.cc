#include "graph/qrp_graph.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace tspn::graph {

void FillNeighbourLists(QrpGraph& graph) {
  const int64_t n = graph.NumNodes();
  std::vector<int32_t> fill;
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
    fill.assign(list.offsets.begin(), list.offsets.end() - 1);
    for (const auto& [a, b] : edges) {
      list.cols[static_cast<size_t>(fill[static_cast<size_t>(a)]++)] = b;
      list.cols[static_cast<size_t>(fill[static_cast<size_t>(b)]++)] = a;
    }
    // The builders list edges so that every row comes out strictly
    // ascending; only a row that is not gets sorted and checked.
    for (int64_t i = 0; i < n; ++i) {
      auto begin = list.cols.begin() + list.offsets[static_cast<size_t>(i)];
      auto end = list.cols.begin() + list.offsets[static_cast<size_t>(i + 1)];
      if (std::adjacent_find(begin, end, std::greater_equal<int32_t>()) == end) {
        continue;
      }
      std::sort(begin, end);
      TSPN_CHECK(std::adjacent_find(begin, end) == end)
          << "duplicate QR-P edge of type " << type << " at node " << i;
    }
  }
}

namespace {

/// Appends each visited POI id once, in first-visit order, to `poi_ids`.
void UniquePoisInVisitOrder(const std::vector<data::Poi>& pois,
                            const std::vector<int64_t>& visited_poi_ids,
                            std::vector<int64_t>* poi_ids) {
  std::vector<uint8_t> seen(pois.size(), 0);
  for (int64_t pid : visited_poi_ids) {
    TSPN_CHECK_GE(pid, 0);
    TSPN_CHECK_LT(pid, static_cast<int64_t>(pois.size()));
    if (!seen[static_cast<size_t>(pid)]) {
      seen[static_cast<size_t>(pid)] = 1;
      poi_ids->push_back(pid);
    }
  }
}

}  // namespace

QrpGraph BuildQrpGraph(const spatial::QuadTree& tree,
                       const roadnet::TileAdjacency& leaf_adjacency,
                       const std::vector<data::Poi>& pois,
                       const std::vector<int64_t>& visited_poi_ids) {
  QrpGraph graph;
  if (visited_poi_ids.empty()) return graph;

  // Unique POIs in first-visit order, and their leaf tiles.
  UniquePoisInVisitOrder(pois, visited_poi_ids, &graph.poi_ids);
  std::vector<int32_t> leaves;
  leaves.reserve(graph.poi_ids.size());
  for (int64_t pid : graph.poi_ids) {
    leaves.push_back(tree.LocateLeaf(pois[static_cast<size_t>(pid)].loc));
  }

  // Step 1: minimal sub-tree covering the visited leaves.
  graph.tile_ids = tree.MinimalSubtree(leaves);

  // Local node index by quad-tree node id, -1 outside the sub-tree.
  std::vector<int32_t> tile_local(static_cast<size_t>(tree.NumNodes()), -1);
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    tile_local[static_cast<size_t>(graph.tile_ids[i])] = static_cast<int32_t>(i);
  }

  // Branch edges: parent-child pairs inside the sub-tree.
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    const int32_t parent = tree.node(graph.tile_ids[i]).parent;
    if (parent >= 0 && tile_local[static_cast<size_t>(parent)] >= 0) {
      graph.branch_edges.emplace_back(tile_local[static_cast<size_t>(parent)],
                                      static_cast<int32_t>(i));
    }
  }

  // Step 2: road edges between leaf tiles of the sub-tree, each pair once
  // from its lower node. Dense leaf indices ascend with node ids, so walking
  // the sorted tile nodes and each leaf's sorted neighbour list lists the
  // pairs in the order of a scan over all leaf pairs.
  const std::vector<int32_t>& leaf_nodes = tree.LeafNodes();
  const int64_t num_leaves =
      std::min(leaf_adjacency.NumTiles(), static_cast<int64_t>(leaf_nodes.size()));
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    const int64_t leaf = tree.LeafIndexOf(graph.tile_ids[i]);
    if (leaf < 0 || leaf >= num_leaves) continue;
    const std::vector<int64_t>& neighbours = leaf_adjacency.Neighbors(leaf);
    for (auto it = std::upper_bound(neighbours.begin(), neighbours.end(), leaf);
         it != neighbours.end() && *it < num_leaves; ++it) {
      const int32_t j =
          tile_local[static_cast<size_t>(leaf_nodes[static_cast<size_t>(*it)])];
      if (j >= 0) graph.road_edges.emplace_back(static_cast<int32_t>(i), j);
    }
  }

  // Step 3: contain edges (leaf tile -> POI node). POI local indices start
  // after the tile nodes.
  for (size_t p = 0; p < graph.poi_ids.size(); ++p) {
    const int32_t tile = tile_local[static_cast<size_t>(leaves[p])];
    TSPN_CHECK_GE(tile, 0) << "leaf missing from minimal subtree";
    graph.contain_edges.emplace_back(
        tile, static_cast<int32_t>(graph.tile_ids.size() + p));
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

  UniquePoisInVisitOrder(pois, visited_poi_ids, &graph.poi_ids);
  std::vector<int64_t> cells;
  cells.reserve(graph.poi_ids.size());
  for (int64_t pid : graph.poi_ids) {
    cells.push_back(grid.TileOf(pois[static_cast<size_t>(pid)].loc));
  }

  // Tile nodes: the distinct cells, ascending; local index by cell id.
  std::vector<int32_t> cell_local(static_cast<size_t>(grid.NumTiles()), -1);
  for (int64_t cell : cells) {
    if (cell_local[static_cast<size_t>(cell)] < 0) {
      cell_local[static_cast<size_t>(cell)] = 0;
      graph.tile_ids.push_back(static_cast<int32_t>(cell));
    }
  }
  std::sort(graph.tile_ids.begin(), graph.tile_ids.end());
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    cell_local[static_cast<size_t>(graph.tile_ids[i])] = static_cast<int32_t>(i);
  }

  // Road edges, each pair once from its lower cell, in the order of a scan
  // over all cell pairs.
  const int64_t num_cells = std::min(cell_adjacency.NumTiles(), grid.NumTiles());
  for (size_t i = 0; i < graph.tile_ids.size(); ++i) {
    const int64_t cell = graph.tile_ids[i];
    if (cell >= num_cells) continue;
    const std::vector<int64_t>& neighbours = cell_adjacency.Neighbors(cell);
    for (auto it = std::upper_bound(neighbours.begin(), neighbours.end(), cell);
         it != neighbours.end() && *it < num_cells; ++it) {
      const int32_t j = cell_local[static_cast<size_t>(*it)];
      if (j >= 0) graph.road_edges.emplace_back(static_cast<int32_t>(i), j);
    }
  }

  for (size_t p = 0; p < graph.poi_ids.size(); ++p) {
    graph.contain_edges.emplace_back(
        cell_local[static_cast<size_t>(cells[p])],
        static_cast<int32_t>(graph.tile_ids.size() + p));
  }
  FillNeighbourLists(graph);
  return graph;
}

}  // namespace tspn::graph
