#include "spatial/quadtree.h"

#include <algorithm>

#include "common/check.h"

namespace tspn::spatial {

QuadTree QuadTree::Build(const geo::BoundingBox& region,
                         const std::vector<geo::GeoPoint>& points,
                         const Options& options) {
  TSPN_CHECK_GT(region.LatSpan(), 0.0);
  TSPN_CHECK_GT(region.LonSpan(), 0.0);
  TSPN_CHECK_GE(options.max_depth, 0);
  TSPN_CHECK_GT(options.leaf_capacity, 0);

  QuadTree tree(region, options);
  QuadTreeNode root;
  root.bounds = region;
  root.depth = 0;
  root.point_ids.reserve(points.size());
  for (int64_t i = 0; i < static_cast<int64_t>(points.size()); ++i) {
    root.point_ids.push_back(i);
  }
  tree.nodes_.push_back(std::move(root));
  tree.Split(0, points);
  tree.point_leaf_.assign(points.size(), -1);
  tree.FinalizeLeaves();
  for (int32_t leaf : tree.leaf_nodes_) {
    for (int64_t pid : tree.nodes_[static_cast<size_t>(leaf)].point_ids) {
      tree.point_leaf_[static_cast<size_t>(pid)] = leaf;
    }
  }
  return tree;
}

void QuadTree::Split(int32_t node_id, const std::vector<geo::GeoPoint>& points) {
  // Depth-first recursive subdivision. Node references may be invalidated by
  // push_back, so re-index through nodes_ each time.
  bool should_split =
      static_cast<int64_t>(nodes_[static_cast<size_t>(node_id)].point_ids.size()) >
          options_.leaf_capacity &&
      nodes_[static_cast<size_t>(node_id)].depth < options_.max_depth;
  if (!should_split) return;

  std::array<int32_t, 4> child_ids;
  for (int q = 0; q < 4; ++q) {
    QuadTreeNode child;
    child.bounds = nodes_[static_cast<size_t>(node_id)].bounds.Quadrant(q);
    child.parent = node_id;
    child.depth = nodes_[static_cast<size_t>(node_id)].depth + 1;
    child_ids[static_cast<size_t>(q)] = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(std::move(child));
  }
  // Distribute points to quadrants by comparing against the midpoint; the
  // half-open box convention makes the assignment unique.
  {
    QuadTreeNode& node = nodes_[static_cast<size_t>(node_id)];
    const geo::BoundingBox& b = node.bounds;
    double mid_lat = 0.5 * (b.min_lat + b.max_lat);
    double mid_lon = 0.5 * (b.min_lon + b.max_lon);
    for (int64_t pid : node.point_ids) {
      const geo::GeoPoint& p = points[static_cast<size_t>(pid)];
      int q = (p.lat >= mid_lat ? 2 : 0) | (p.lon >= mid_lon ? 1 : 0);
      nodes_[static_cast<size_t>(child_ids[static_cast<size_t>(q)])].point_ids.push_back(
          pid);
    }
    node.point_ids.clear();
    node.point_ids.shrink_to_fit();
    node.children = child_ids;
  }
  for (int q = 0; q < 4; ++q) Split(child_ids[static_cast<size_t>(q)], points);
}

void QuadTree::FinalizeLeaves() {
  node_to_leaf_index_.assign(nodes_.size(), -1);
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].is_leaf()) {
      node_to_leaf_index_[id] = static_cast<int64_t>(leaf_nodes_.size());
      leaf_nodes_.push_back(static_cast<int32_t>(id));
    }
  }
}

const QuadTreeNode& QuadTree::node(int64_t id) const {
  TSPN_CHECK_GE(id, 0);
  TSPN_CHECK_LT(id, NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

int32_t QuadTree::LocateLeaf(const geo::GeoPoint& point) const {
  geo::GeoPoint p = region_.Clamp(point);
  int32_t current = 0;
  while (!nodes_[static_cast<size_t>(current)].is_leaf()) {
    const QuadTreeNode& node = nodes_[static_cast<size_t>(current)];
    const geo::BoundingBox& b = node.bounds;
    double mid_lat = 0.5 * (b.min_lat + b.max_lat);
    double mid_lon = 0.5 * (b.min_lon + b.max_lon);
    int q = (p.lat >= mid_lat ? 2 : 0) | (p.lon >= mid_lon ? 1 : 0);
    current = node.children[static_cast<size_t>(q)];
  }
  return current;
}

int64_t QuadTree::LeafIndexOf(int32_t node_id) const {
  TSPN_CHECK_GE(node_id, 0);
  TSPN_CHECK_LT(node_id, NumNodes());
  return node_to_leaf_index_[static_cast<size_t>(node_id)];
}

int32_t QuadTree::LeafOfPoint(int64_t point_index) const {
  TSPN_CHECK_GE(point_index, 0);
  TSPN_CHECK_LT(point_index, static_cast<int64_t>(point_leaf_.size()));
  return point_leaf_[static_cast<size_t>(point_index)];
}

std::vector<int32_t> QuadTree::MinimalSubtree(
    const std::vector<int32_t>& leaf_node_ids) const {
  if (leaf_node_ids.empty()) return {};
  // Mark the union of the leaf-to-root paths. A walk stops at the first node
  // an earlier walk marked (everything above it is marked too), so each
  // node is visited once.
  std::vector<uint8_t> on_path(nodes_.size(), 0);
  for (int32_t leaf : leaf_node_ids) {
    TSPN_CHECK(node(leaf).is_leaf()) << "MinimalSubtree expects leaf ids";
    for (int32_t cur = leaf; cur >= 0 && !on_path[static_cast<size_t>(cur)];
         cur = nodes_[static_cast<size_t>(cur)].parent) {
      on_path[static_cast<size_t>(cur)] = 1;
    }
  }
  // The minimal root is the deepest node that is an ancestor of all target
  // leaves: walk down from the root while exactly one child is on a path.
  int32_t subtree_root = 0;
  while (true) {
    const QuadTreeNode& n = nodes_[static_cast<size_t>(subtree_root)];
    if (n.is_leaf()) break;
    int32_t next = -1;
    int children_on_path = 0;
    for (int32_t child : n.children) {
      if (on_path[static_cast<size_t>(child)]) {
        ++children_on_path;
        next = child;
      }
    }
    if (children_on_path != 1) break;
    subtree_root = next;
  }
  // A child's id is above its parent's (Split appends children). Every
  // marked node, like subtree_root, is an ancestor of some target leaf, so
  // it is either a strict ancestor of subtree_root (a lower id) or inside
  // the sub-tree: scanning the marks up from subtree_root lists the sub-tree
  // in ascending order.
  std::vector<int32_t> result;
  for (size_t id = static_cast<size_t>(subtree_root); id < nodes_.size(); ++id) {
    if (on_path[id]) result.push_back(static_cast<int32_t>(id));
  }
  return result;
}

int64_t QuadTree::TileOf(const geo::GeoPoint& point) const {
  return LeafIndexOf(LocateLeaf(point));
}

geo::BoundingBox QuadTree::TileBounds(int64_t tile) const {
  TSPN_CHECK_GE(tile, 0);
  TSPN_CHECK_LT(tile, NumTiles());
  return nodes_[static_cast<size_t>(leaf_nodes_[static_cast<size_t>(tile)])].bounds;
}

}  // namespace tspn::spatial
