#include "spatial/quadtree.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/checkin_generator.h"
#include "data/city_profile.h"

namespace tspn::spatial {
namespace {

geo::BoundingBox UnitRegion() { return {0.0, 0.0, 1.0, 1.0}; }

std::vector<geo::GeoPoint> RandomPoints(int64_t n, uint64_t seed,
                                        geo::BoundingBox box = UnitRegion()) {
  common::Rng rng(seed);
  std::vector<geo::GeoPoint> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(box.min_lat, box.max_lat),
                   rng.Uniform(box.min_lon, box.max_lon)});
  }
  return pts;
}

TEST(QuadTreeTest, FewPointsStayInRoot) {
  auto pts = RandomPoints(5, 1);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 10});
  EXPECT_EQ(tree.NumNodes(), 1);
  EXPECT_EQ(tree.NumTiles(), 1);
}

TEST(QuadTreeTest, SplitsWhenOverCapacity) {
  auto pts = RandomPoints(50, 2);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 10});
  EXPECT_GT(tree.NumNodes(), 1);
  EXPECT_GT(tree.NumTiles(), 1);
}

TEST(QuadTreeTest, LeafCapacityRespectedUnlessAtMaxDepth) {
  auto pts = RandomPoints(500, 3);
  QuadTree::Options opt{.max_depth = 10, .leaf_capacity = 20};
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, opt);
  for (int32_t leaf : tree.LeafNodes()) {
    const QuadTreeNode& node = tree.node(leaf);
    if (node.depth < opt.max_depth) {
      EXPECT_LE(static_cast<int64_t>(node.point_ids.size()), opt.leaf_capacity);
    }
  }
}

TEST(QuadTreeTest, MaxDepthBoundsTree) {
  // Many coincident points cannot be separated; depth must stop at max_depth.
  std::vector<geo::GeoPoint> pts(100, {0.3, 0.3});
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 3, .leaf_capacity = 5});
  for (int64_t i = 0; i < tree.NumNodes(); ++i) {
    EXPECT_LE(tree.node(i).depth, 3);
  }
}

TEST(QuadTreeTest, EveryPointAssignedToContainingLeaf) {
  auto pts = RandomPoints(300, 4);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  for (int64_t i = 0; i < static_cast<int64_t>(pts.size()); ++i) {
    int32_t leaf = tree.LeafOfPoint(i);
    EXPECT_TRUE(tree.node(leaf).is_leaf());
    EXPECT_TRUE(tree.node(leaf).bounds.Contains(pts[static_cast<size_t>(i)]));
    EXPECT_EQ(tree.LocateLeaf(pts[static_cast<size_t>(i)]), leaf);
  }
}

TEST(QuadTreeTest, LeavesPartitionRegion) {
  auto pts = RandomPoints(400, 5);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 6, .leaf_capacity = 25});
  // Sample probe points: each must fall in exactly one leaf.
  auto probes = RandomPoints(500, 99);
  for (const auto& p : probes) {
    int covering = 0;
    for (int32_t leaf : tree.LeafNodes()) {
      if (tree.node(leaf).bounds.Contains(p)) ++covering;
    }
    EXPECT_EQ(covering, 1);
  }
  // And leaf areas sum to the region area.
  double total = 0.0;
  for (int32_t leaf : tree.LeafNodes()) total += tree.node(leaf).bounds.AreaKm2();
  EXPECT_NEAR(total, UnitRegion().AreaKm2(), UnitRegion().AreaKm2() * 0.02);
}

TEST(QuadTreeTest, ParentChildLinksConsistent) {
  auto pts = RandomPoints(300, 6);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  for (int64_t i = 0; i < tree.NumNodes(); ++i) {
    const QuadTreeNode& node = tree.node(i);
    if (!node.is_leaf()) {
      for (int32_t child : node.children) {
        EXPECT_EQ(tree.node(child).parent, static_cast<int32_t>(i));
        EXPECT_EQ(tree.node(child).depth, node.depth + 1);
      }
    }
  }
}

TEST(QuadTreeTest, DensityAdaptation) {
  // Clustered points -> small leaves near cluster, large leaves elsewhere.
  common::Rng rng(7);
  std::vector<geo::GeoPoint> pts;
  for (int i = 0; i < 900; ++i) {
    pts.push_back({0.1 + rng.Gaussian() * 0.01, 0.1 + rng.Gaussian() * 0.01});
  }
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Uniform(0.5, 1.0), rng.Uniform(0.5, 1.0)});
  }
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 40});
  double cluster_leaf_area = tree.node(tree.LocateLeaf({0.1, 0.1})).bounds.AreaKm2();
  double sparse_leaf_area = tree.node(tree.LocateLeaf({0.8, 0.8})).bounds.AreaKm2();
  EXPECT_LT(cluster_leaf_area, sparse_leaf_area / 8.0);
}

TEST(QuadTreeTest, UniformDispersionAcrossLeaves) {
  // The paper's rationale: POI counts per leaf should be balanced (bounded by
  // capacity) even for very skewed inputs.
  common::Rng rng(8);
  std::vector<geo::GeoPoint> pts;
  for (int i = 0; i < 2000; ++i) {
    double t = rng.Uniform();
    pts.push_back({t * t * 0.9, rng.Uniform() * t});  // strongly skewed
  }
  QuadTree::Options opt{.max_depth = 9, .leaf_capacity = 50};
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, opt);
  int64_t max_count = 0;
  for (int32_t leaf : tree.LeafNodes()) {
    max_count = std::max(
        max_count, static_cast<int64_t>(tree.node(leaf).point_ids.size()));
  }
  EXPECT_LE(max_count, opt.leaf_capacity);
}

TEST(QuadTreeTest, LeafIndexRoundTrips) {
  auto pts = RandomPoints(300, 9);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  const auto& leaves = tree.LeafNodes();
  for (int64_t i = 0; i < static_cast<int64_t>(leaves.size()); ++i) {
    EXPECT_EQ(tree.LeafIndexOf(leaves[static_cast<size_t>(i)]), i);
  }
  // Internal nodes have no leaf index.
  for (int64_t n = 0; n < tree.NumNodes(); ++n) {
    if (!tree.node(n).is_leaf()) {
      EXPECT_EQ(tree.LeafIndexOf(static_cast<int32_t>(n)), -1);
    }
  }
}

TEST(QuadTreeTest, MinimalSubtreeOfSingleLeafIsLeafItself) {
  auto pts = RandomPoints(300, 10);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  int32_t leaf = tree.LeafNodes()[0];
  std::vector<int32_t> subtree = tree.MinimalSubtree({leaf});
  ASSERT_EQ(subtree.size(), 1u);
  EXPECT_EQ(subtree[0], leaf);
}

TEST(QuadTreeTest, MinimalSubtreeCoversAllRequestedLeaves) {
  auto pts = RandomPoints(600, 11);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  std::vector<int32_t> targets = {tree.LocateLeaf({0.05, 0.05}),
                                  tree.LocateLeaf({0.95, 0.95}),
                                  tree.LocateLeaf({0.5, 0.1})};
  std::vector<int32_t> subtree = tree.MinimalSubtree(targets);
  std::set<int32_t> in_subtree(subtree.begin(), subtree.end());
  for (int32_t t : targets) EXPECT_TRUE(in_subtree.count(t) > 0);
  // Closed under parent within the subtree: every non-root member's parent
  // is either in the subtree or the member is the subtree root.
  int roots = 0;
  for (int32_t id : subtree) {
    int32_t parent = tree.node(id).parent;
    if (parent < 0 || in_subtree.count(parent) == 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(QuadTreeTest, MinimalSubtreeIsMinimal) {
  // For nearby leaves under one quadrant, the subtree must not contain the
  // global root (a smaller subtree suffices).
  common::Rng rng(12);
  std::vector<geo::GeoPoint> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform()});
  }
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 20});
  // Two leaves well inside the SW quadrant.
  std::vector<int32_t> targets = {tree.LocateLeaf({0.1, 0.1}),
                                  tree.LocateLeaf({0.2, 0.2})};
  std::vector<int32_t> subtree = tree.MinimalSubtree(targets);
  EXPECT_EQ(std::count(subtree.begin(), subtree.end(), tree.root()), 0)
      << "subtree should be rooted below the global root";
}

/// MinimalSubtree as first written (hash-set ancestor marks, a walk to the
/// root for every marked node), kept as the reference the flat-array
/// version must match id for id.
std::vector<int32_t> ReferenceMinimalSubtree(
    const QuadTree& tree, const std::vector<int32_t>& leaf_node_ids) {
  if (leaf_node_ids.empty()) return {};
  std::unordered_set<int32_t> unique_leaves(leaf_node_ids.begin(),
                                            leaf_node_ids.end());
  std::unordered_set<int32_t> on_path;
  for (int32_t leaf : unique_leaves) {
    int32_t cur = leaf;
    while (cur >= 0) {
      on_path.insert(cur);
      cur = tree.node(cur).parent;
    }
  }
  int32_t subtree_root = 0;
  while (true) {
    const QuadTreeNode& n = tree.node(subtree_root);
    if (n.is_leaf()) break;
    int32_t next = -1;
    int children_on_path = 0;
    for (int32_t child : n.children) {
      if (on_path.count(child) > 0) {
        ++children_on_path;
        next = child;
      }
    }
    if (children_on_path != 1) break;
    subtree_root = next;
  }
  std::vector<int32_t> result;
  for (int32_t id : on_path) {
    int32_t cur = id;
    bool inside = false;
    while (cur >= 0) {
      if (cur == subtree_root) {
        inside = true;
        break;
      }
      cur = tree.node(cur).parent;
    }
    if (inside) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// The quad-tree a city profile's dataset builds over its POIs.
QuadTree CityTree(const data::CityProfile& profile) {
  const data::World world = data::BuildWorld(profile);
  std::vector<geo::GeoPoint> points;
  for (const data::Poi& poi : world.pois) points.push_back(poi.loc);
  return QuadTree::Build(profile.bbox, points,
                         {.max_depth = profile.quadtree_max_depth,
                          .leaf_capacity = profile.quadtree_leaf_capacity});
}

TEST(QuadTreeTest, MinimalSubtreeMatchesReferenceOnCityTrees) {
  data::CityProfile metro = data::CityProfile::FoursquareTky();
  metro.num_pois *= 8;
  metro.num_users *= 8;
  for (const data::CityProfile& profile :
       {data::CityProfile::FoursquareNyc(), data::CityProfile::FoursquareTky(),
        metro}) {
    SCOPED_TRACE(profile.name + " x" + std::to_string(profile.num_pois));
    const QuadTree tree = CityTree(profile);
    const std::vector<int32_t>& leaves = tree.LeafNodes();
    const int64_t num_leaves = static_cast<int64_t>(leaves.size());
    common::Rng rng(static_cast<uint64_t>(profile.num_pois));
    std::vector<std::vector<int32_t>> cases = {{leaves.front()},
                                               {leaves.back()},
                                               leaves};
    // Leaves drawn with repeats from the whole tree, and from under one
    // random internal node (a sub-tree rooted below the global root).
    for (int64_t size : {1, 2, 3, 5, 20, 60, 150}) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<int32_t> drawn;
        for (int64_t i = 0; i < size; ++i) {
          drawn.push_back(leaves[static_cast<size_t>(rng.UniformInt(num_leaves))]);
        }
        cases.push_back(drawn);
        int32_t top = static_cast<int32_t>(rng.UniformInt(tree.NumNodes()));
        while (tree.node(top).is_leaf()) top = tree.node(top).parent;
        std::vector<int32_t> under;
        for (int32_t leaf : leaves) {
          int32_t cur = leaf;
          while (cur >= 0 && cur != top) cur = tree.node(cur).parent;
          if (cur == top) under.push_back(leaf);
        }
        rng.Shuffle(under);
        under.resize(std::min<size_t>(under.size(), static_cast<size_t>(size)));
        cases.push_back(under);
      }
    }
    for (const std::vector<int32_t>& targets : cases) {
      ASSERT_EQ(tree.MinimalSubtree(targets), ReferenceMinimalSubtree(tree, targets))
          << targets.size() << " target leaves";
    }
  }
}

TEST(QuadTreeTest, TilePartitionInterface) {
  auto pts = RandomPoints(300, 13);
  QuadTree tree = QuadTree::Build(UnitRegion(), pts, {.max_depth = 8, .leaf_capacity = 16});
  const TilePartition& partition = tree;
  EXPECT_EQ(partition.NumTiles(), static_cast<int64_t>(tree.LeafNodes().size()));
  geo::GeoPoint p{0.4, 0.6};
  int64_t tile = partition.TileOf(p);
  EXPECT_TRUE(partition.TileBounds(tile).Contains(p));
}

}  // namespace
}  // namespace tspn::spatial
