#ifndef TSPN_GRAPH_QRP_GRAPH_H_
#define TSPN_GRAPH_QRP_GRAPH_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/poi.h"
#include "roadnet/tile_adjacency.h"
#include "spatial/grid_index.h"
#include "spatial/quadtree.h"

namespace tspn::graph {

/// Symmetric CSR neighbour list of one edge type: node i's neighbours are
/// cols[offsets[i] .. offsets[i + 1]), ascending. Each undirected edge
/// appears once in each endpoint's row.
struct NeighbourList {
  std::vector<int32_t> offsets;  ///< NumNodes() + 1 entries
  std::vector<int32_t> cols;
};

/// The heterogeneous QR-P graph of Sec. II-B: tile nodes (the minimal
/// quad-tree sub-tree covering a trajectory's POIs) and POI nodes, joined by
///   - branch edges  (quad-tree parent/child),
///   - road edges    (road-network adjacency between leaf tiles),
///   - contain edges (POI inside leaf tile).
/// Node indexing is local: tiles first ([0, NumTileNodes())), then POIs.
struct QrpGraph {
  /// Edge types, in the order of `neighbours` (and of HGAT's W_k).
  enum EdgeType { kBranch = 0, kRoad = 1, kContain = 2 };
  static constexpr int kNumEdgeTypes = 3;

  /// Per tile node: the quad-tree node id (or grid cell id for the grid
  /// ablation). ET rows are looked up with these ids.
  std::vector<int32_t> tile_ids;
  /// Per POI node: the POI id (unique; repeat visits collapse to one node).
  std::vector<int64_t> poi_ids;

  /// Edges in local node indices. Branch/road connect tiles; contain
  /// connects (tile, poi).
  std::vector<std::pair<int32_t, int32_t>> branch_edges;
  std::vector<std::pair<int32_t, int32_t>> road_edges;
  std::vector<std::pair<int32_t, int32_t>> contain_edges;

  /// Per edge type, the edge lists above as CSR rows (FillNeighbourLists).
  std::array<NeighbourList, kNumEdgeTypes> neighbours;

  const std::vector<std::pair<int32_t, int32_t>>& edges(int type) const {
    return type == kBranch ? branch_edges
                           : type == kRoad ? road_edges : contain_edges;
  }

  int64_t NumTileNodes() const { return static_cast<int64_t>(tile_ids.size()); }
  int64_t NumPoiNodes() const { return static_cast<int64_t>(poi_ids.size()); }
  int64_t NumNodes() const { return NumTileNodes() + NumPoiNodes(); }
  int64_t NumEdges() const {
    return static_cast<int64_t>(branch_edges.size() + road_edges.size() +
                                contain_edges.size());
  }
  bool empty() const { return NumNodes() == 0; }
};

/// Fills `graph.neighbours` from its edge lists. The builders below call it;
/// a hand-built graph must call it after setting nodes and edges. Dies on a
/// self-loop or a duplicate undirected edge within a type, which a CSR row
/// would otherwise count twice.
void FillNeighbourLists(QrpGraph& graph);

/// Builds the QR-P graph for the visited POI ids (a concatenated historical
/// trajectory) against the quad-tree partition. Follows the four construction
/// steps of Sec. II-B.
QrpGraph BuildQrpGraph(const spatial::QuadTree& tree,
                       const roadnet::TileAdjacency& leaf_adjacency,
                       const std::vector<data::Poi>& pois,
                       const std::vector<int64_t>& visited_poi_ids);

/// Grid-partition variant for the "Grid Replace Quad-tree" ablation: tile
/// nodes are the distinct grid cells of the visited POIs; there is no
/// hierarchy, so the graph has road and contain edges only.
QrpGraph BuildQrpGraphFromGrid(const spatial::GridIndex& grid,
                               const roadnet::TileAdjacency& cell_adjacency,
                               const std::vector<data::Poi>& pois,
                               const std::vector<int64_t>& visited_poi_ids);

}  // namespace tspn::graph

#endif  // TSPN_GRAPH_QRP_GRAPH_H_
