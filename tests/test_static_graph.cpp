// CSR StaticGraph (graph/static_graph.hpp): builder contract plus
// property tests checking scc / weak_components /
// avg_clustering_coefficient against independent oracles on random
// overlays and graph::generators instances: a brute-force
// mutual-reachability SCC, and UGraph's connected components and
// clustering coefficient over the same edges.
#include "graph/static_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/clustering.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"

namespace whatsup::graph {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// Overlay-shaped random edge list: every node draws `k` random out-edges
// (duplicates and self-draws allowed, to exercise dedupe and the
// self-loop filter — exactly what a gossip view dump produces).
EdgeList random_view_edges(std::size_t n, std::size_t k, Rng& rng) {
  EdgeList edges;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < k; ++i) {
      edges.emplace_back(v, static_cast<NodeId>(rng.index(n)));
    }
  }
  return edges;
}

EdgeList both_directions(const UGraph& u) {
  EdgeList edges;
  for (const auto& [a, b] : u.edges()) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  }
  return edges;
}

// Brute force: v and w share an SCC iff each reaches the other. One BFS
// per node over the raw edge list, so only for small graphs.
void expect_scc_matches_mutual_reachability(std::size_t n, const EdgeList& edges,
                                            const SccResult& scc) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [v, w] : edges) adj[v].push_back(w);
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (NodeId s = 0; s < n; ++s) {
    std::vector<NodeId> frontier{s};
    reach[s][s] = 1;
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      for (const NodeId w : adj[v]) {
        if (!reach[s][w]) {
          reach[s][w] = 1;
          frontier.push_back(w);
        }
      }
    }
  }
  std::size_t count = 0;
  std::size_t largest = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::size_t size = 0;
    bool first = true;
    for (NodeId w = 0; w < n; ++w) {
      const bool mutual = reach[v][w] && reach[w][v];
      ASSERT_EQ(mutual, scc.component[v] == scc.component[w]) << v << " vs " << w;
      if (mutual) {
        ++size;
        if (w < v) first = false;
      }
    }
    if (first) ++count;  // v is its component's smallest member
    largest = std::max(largest, size);
  }
  EXPECT_EQ(scc.count, count);
  EXPECT_EQ(scc.largest, largest);
}

void expect_matches_oracles(std::size_t n, const EdgeList& edges) {
  const StaticGraph csr = StaticGraph::from_edges(n, edges);

  std::vector<std::set<NodeId>> rows(n);
  UGraph undirected(n);
  for (const auto& [v, w] : edges) {
    if (v != w) rows[v].insert(w);
    undirected.add_edge(v, w);
  }
  ASSERT_EQ(csr.num_nodes(), n);
  std::size_t num_edges = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto got = csr.out(v);
    ASSERT_TRUE(std::equal(rows[v].begin(), rows[v].end(), got.begin(), got.end()))
        << "row " << v;
    num_edges += rows[v].size();
  }
  EXPECT_EQ(csr.num_edges(), num_edges);

  const SccResult scc = strongly_connected_components(csr);
  EXPECT_EQ(largest_scc_fraction(csr),
            static_cast<double>(scc.largest) / static_cast<double>(n));
  if (n <= 300) expect_scc_matches_mutual_reachability(n, edges, scc);

  // Both label components in order of their smallest node.
  const ComponentsResult weak = weak_components(csr);
  const ComponentsResult connected = connected_components(undirected);
  EXPECT_EQ(weak.count, connected.count);
  EXPECT_EQ(weak.largest, connected.largest);
  EXPECT_EQ(weak.component, connected.component);

  // Same sorted rows, same iteration order, same summation order:
  // exact double equality, not an approximation.
  EXPECT_EQ(avg_clustering_coefficient(csr), avg_clustering_coefficient(undirected));
}

TEST(StaticGraph, EmptyAndSingleton) {
  const StaticGraph empty = StaticGraph::from_edges(0, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(largest_scc_fraction(empty), 0.0);

  const StaticGraph one = StaticGraph::from_edges(1, {{0, 0}});
  EXPECT_EQ(one.num_nodes(), 1u);
  EXPECT_EQ(one.out(0).size(), 0u);
  EXPECT_EQ(weak_components(one).count, 1u);
}

TEST(StaticGraph, BuilderDropsSelfLoopsDuplicatesAndSlack) {
  StaticGraph::Builder b(3);
  b.set_degree(0, 6);  // deliberate over-reservation
  b.set_degree(1, 2);
  b.set_degree(2, 1);
  b.finish_degrees();
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 0);  // self-loop: ignored
  b.add_edge(0, 2);  // duplicate: deduped
  b.add_edge(1, 0);
  b.add_edge(2, 1);
  b.dedupe_rows(0, 3);
  const StaticGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 4u);
  ASSERT_EQ(g.out(0).size(), 2u);
  EXPECT_EQ(g.out(0)[0], 1u);  // sorted
  EXPECT_EQ(g.out(0)[1], 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 1u);
}

TEST(StaticGraph, BuilderChunkedDedupeMatchesWholeGraphDedupe) {
  // dedupe_rows over disjoint partitions (how the overlay collection
  // calls it from worker chunks) must equal one whole-range call.
  constexpr std::size_t kN = 97;
  constexpr std::size_t kK = 5;
  Rng rng(7);
  const EdgeList raw = random_view_edges(kN, kK, rng);  // grouped by source
  const StaticGraph whole = StaticGraph::from_edges(kN, raw);

  StaticGraph::Builder b(kN);
  for (NodeId v = 0; v < kN; ++v) b.set_degree(v, kK);
  b.finish_degrees();
  for (const auto& [v, w] : raw) b.add_edge(v, w);
  for (NodeId lo = 0; lo < kN; lo += 10) {
    b.dedupe_rows(lo, std::min<NodeId>(lo + 10, static_cast<NodeId>(kN)));
  }
  const StaticGraph chunked = b.build();
  ASSERT_EQ(chunked.num_edges(), whole.num_edges());
  for (NodeId v = 0; v < whole.num_nodes(); ++v) {
    const auto a = whole.out(v);
    const auto c = chunked.out(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
  }
}

TEST(StaticGraphProperty, MatchesOraclesOnRandomViewOverlays) {
  Rng rng(20260731);
  for (const std::size_t n : {2u, 17u, 64u, 300u}) {
    for (const std::size_t k : {1u, 4u, 12u}) {
      expect_matches_oracles(n, random_view_edges(n, k, rng));
    }
  }
}

TEST(StaticGraphProperty, MatchesOraclesOnErdosRenyi) {
  Rng rng(42);
  for (const double p : {0.01, 0.05, 0.2}) {
    expect_matches_oracles(120, both_directions(erdos_renyi(120, p, rng)));
  }
}

TEST(StaticGraphProperty, MatchesOraclesOnWattsStrogatzAndBarabasiAlbert) {
  Rng rng(99);
  expect_matches_oracles(150, both_directions(watts_strogatz(150, 6, 0.1, rng)));
  expect_matches_oracles(150, both_directions(barabasi_albert(150, 3, rng)));
}

TEST(StaticGraphProperty, MatchesOraclesOnPlantedPartition) {
  Rng rng(5);
  std::vector<int> membership;
  const std::vector<std::size_t> sizes{40, 35, 25};
  expect_matches_oracles(
      100, both_directions(planted_partition(sizes, 0.3, 0.02, rng, membership)));
}

}  // namespace
}  // namespace whatsup::graph
