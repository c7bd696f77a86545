#include "graph/scc.hpp"

#include <gtest/gtest.h>

namespace whatsup::graph {
namespace {

TEST(Scc, EmptyGraph) {
  const auto result = strongly_connected_components(StaticGraph{});
  EXPECT_EQ(result.count, 0u);
  EXPECT_EQ(result.largest, 0u);
  EXPECT_EQ(largest_scc_fraction(StaticGraph{}), 0.0);
}

TEST(Scc, SingleCycleIsOneComponent) {
  const StaticGraph g =
      StaticGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const auto result = strongly_connected_components(g);
  EXPECT_EQ(result.count, 1u);
  EXPECT_EQ(result.largest, 5u);
  EXPECT_DOUBLE_EQ(largest_scc_fraction(g), 1.0);
}

TEST(Scc, DagHasSingletonComponents) {
  const StaticGraph g = StaticGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto result = strongly_connected_components(g);
  EXPECT_EQ(result.count, 4u);
  EXPECT_EQ(result.largest, 1u);
  EXPECT_DOUBLE_EQ(largest_scc_fraction(g), 0.25);
}

TEST(Scc, TwoCyclesJoinedByOneWayBridge) {
  // Cycle A: 0-1-2, cycle B: 3-4-5, bridge 2 -> 3.
  const StaticGraph g = StaticGraph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  const auto result = strongly_connected_components(g);
  EXPECT_EQ(result.count, 2u);
  EXPECT_EQ(result.largest, 3u);
  // Nodes within each cycle share a component label.
  EXPECT_EQ(result.component[0], result.component[1]);
  EXPECT_EQ(result.component[1], result.component[2]);
  EXPECT_EQ(result.component[3], result.component[4]);
  EXPECT_NE(result.component[0], result.component[3]);
}

TEST(Scc, BidirectionalBridgeMergesComponents) {
  const StaticGraph g = StaticGraph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}, {3, 2}});
  const auto result = strongly_connected_components(g);
  EXPECT_EQ(result.count, 1u);
  EXPECT_EQ(result.largest, 6u);
}

TEST(Scc, IsolatedNodesAreSingletons) {
  const StaticGraph g = StaticGraph::from_edges(3, {{0, 1}, {1, 0}});
  const auto result = strongly_connected_components(g);
  EXPECT_EQ(result.count, 2u);
  EXPECT_EQ(result.largest, 2u);
}

TEST(Scc, LargeRandomGraphTerminatesAndLabelsEveryone) {
  // Deep chains exercise the iterative Tarjan (no stack overflow).
  constexpr NodeId kN = 20000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < kN; ++v) edges.emplace_back(v, v + 1);
  edges.emplace_back(kN - 1, 0);  // giant cycle
  const auto result = strongly_connected_components(StaticGraph::from_edges(kN, edges));
  EXPECT_EQ(result.count, 1u);
  EXPECT_EQ(result.largest, kN);
}

}  // namespace
}  // namespace whatsup::graph
