#include "graph/clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"

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

// The pairwise formulation the stamped row scan replaced: for every
// neighbour pair (i < j), binary-search nbrs[j] in nbrs[i]'s row.
double pairwise_clustering(const std::vector<std::vector<NodeId>>& adj) {
  if (adj.empty()) return 0.0;
  double total = 0.0;
  std::size_t counted = 0;
  for (const std::vector<NodeId>& nbrs : adj) {
    const std::size_t k = nbrs.size();
    if (k < 2) continue;
    std::size_t links = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::vector<NodeId>& wi = adj[nbrs[i]];
      for (std::size_t j = i + 1; j < k; ++j) {
        if (std::binary_search(wi.begin(), wi.end(), nbrs[j])) ++links;
      }
    }
    total += 2.0 * static_cast<double>(links) / (static_cast<double>(k) * static_cast<double>(k - 1));
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

TEST(Clustering, MatchesPairwiseCountOnRandomDigraphs) {
  Rng rng(2024);
  for (const std::size_t n : {2u, 3u, 10u, 60u, 300u}) {
    for (const std::size_t out_degree : {1u, 3u, 8u, 25u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " out_degree=" << out_degree);
      std::vector<std::pair<NodeId, NodeId>> edges;
      std::vector<std::vector<NodeId>> closure(n);
      for (NodeId v = 0; v < n; ++v) {
        for (std::size_t e = 0; e < out_degree; ++e) {
          const auto w = static_cast<NodeId>(rng.index(n));
          edges.emplace_back(v, w);
          if (w == v) continue;  // from_edges drops self-loops
          closure[v].push_back(w);
          closure[w].push_back(v);
        }
      }
      UGraph undirected(n);
      for (NodeId v = 0; v < n; ++v) {
        std::sort(closure[v].begin(), closure[v].end());
        closure[v].erase(std::unique(closure[v].begin(), closure[v].end()), closure[v].end());
        for (const NodeId w : closure[v]) undirected.add_edge(v, w);
      }
      const double expected = pairwise_clustering(closure);
      EXPECT_EQ(avg_clustering_coefficient(StaticGraph::from_edges(n, edges)), expected);
      EXPECT_EQ(avg_clustering_coefficient(undirected), expected);
    }
  }
}

}  // namespace
}  // namespace whatsup::graph
