#include "graph/clustering.hpp"

#include <gtest/gtest.h>

namespace whatsup::graph {
namespace {

TEST(Clustering, TriangleIsOne) {
  UGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(g), 1.0);
}

TEST(Clustering, StarIsZero) {
  UGraph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(g), 0.0);
}

TEST(Clustering, PathIgnoresDegreeOneNodes) {
  UGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // Only node 1 has degree >= 2; its neighbors are not linked.
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(g), 0.0);
}

TEST(Clustering, TriangleWithTail) {
  UGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  // Nodes 0,1: coefficient 1. Node 2: 1 link among 3 pairs = 1/3. Node 3 skipped.
  EXPECT_NEAR(avg_clustering_coefficient(g), (1.0 + 1.0 + 1.0 / 3.0) / 3.0, 1e-12);
}

TEST(Clustering, DirectedGraphUsesUndirectedClosure) {
  // A directed 3-cycle closes into a triangle.
  const StaticGraph g = StaticGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(g), 1.0);
}

TEST(Clustering, EmptyGraphIsZero) {
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(UGraph{}), 0.0);
  EXPECT_DOUBLE_EQ(avg_clustering_coefficient(StaticGraph{}), 0.0);
}

}  // namespace
}  // namespace whatsup::graph
