#include "graph/components.hpp"

#include <gtest/gtest.h>

namespace whatsup::graph {
namespace {

TEST(WeakComponents, DirectionIgnored) {
  // 0,1,2 weakly connected through 1.
  const StaticGraph g = StaticGraph::from_edges(5, {{0, 1}, {2, 1}, {3, 4}});
  const auto result = weak_components(g);
  EXPECT_EQ(result.count, 2u);
  EXPECT_EQ(result.largest, 3u);
  EXPECT_EQ(result.component[0], result.component[2]);
  EXPECT_NE(result.component[0], result.component[3]);
}

TEST(WeakComponents, AllIsolated) {
  const auto result = weak_components(StaticGraph::from_edges(4, {}));
  EXPECT_EQ(result.count, 4u);
  EXPECT_EQ(result.largest, 1u);
}

TEST(ConnectedComponents, UndirectedGraph) {
  UGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(4, 5);
  const auto result = connected_components(g);
  EXPECT_EQ(result.count, 3u);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(result.largest, 3u);
}

}  // namespace
}  // namespace whatsup::graph
