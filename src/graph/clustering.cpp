#include "graph/clustering.hpp"

#include <algorithm>
#include <vector>

namespace whatsup::graph {

namespace {

// Shared triangle-counting core. `rows(v)` must return the sorted, unique
// undirected neighborhood of v (any span-like range of NodeId). For each
// node, its neighbours are stamped, then each neighbour's row is scanned
// once past that neighbour's own id: every stamped id there closes one
// neighbour pair (i < j), so `links` counts the same pairs a pairwise
// membership test would.
template <typename RowFn>
double avg_local_clustering_rows(std::size_t n, const RowFn& rows) {
  if (n == 0) return 0.0;
  std::vector<NodeId> stamp(n, kNoNode);
  double total = 0.0;
  std::size_t counted = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = rows(v);
    const std::size_t k = nbrs.size();
    if (k < 2) continue;
    for (const NodeId w : nbrs) stamp[w] = v;
    std::size_t links = 0;
    for (const NodeId w : nbrs) {
      const auto wi = rows(w);
      for (auto it = std::upper_bound(wi.begin(), wi.end(), w); it != wi.end(); ++it) {
        links += stamp[*it] == v ? 1 : 0;
      }
    }
    total += 2.0 * static_cast<double>(links) / (static_cast<double>(k) * static_cast<double>(k - 1));
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

// Undirected closure of a CSR digraph, as another CSR: an edge exists if
// it exists in either direction. Two-pass (symmetric degree count, fill),
// then per-row sort+unique via the builder.
StaticGraph undirected_closure(const StaticGraph& g) {
  const std::size_t n = g.num_nodes();
  StaticGraph::Builder b(n);
  std::vector<std::size_t> degree(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    degree[v] += g.out_degree(v);
    for (const NodeId w : g.out(v)) ++degree[w];
  }
  for (NodeId v = 0; v < n; ++v) b.set_degree(v, degree[v]);
  b.finish_degrees();
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId w : g.out(v)) {
      b.add_edge(v, w);
      b.add_edge(w, v);
    }
  }
  b.dedupe_rows(0, static_cast<NodeId>(n));
  return b.build();
}

}  // namespace

double avg_clustering_coefficient(const StaticGraph& g) {
  const StaticGraph closure = undirected_closure(g);
  return avg_local_clustering_rows(
      closure.num_nodes(), [&closure](NodeId v) { return closure.out(v); });
}

double avg_clustering_coefficient(const UGraph& g) {
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    adj[v].assign(nbrs.begin(), nbrs.end());
    std::sort(adj[v].begin(), adj[v].end());
  }
  return avg_local_clustering_rows(
      adj.size(), [&adj](NodeId v) -> std::span<const NodeId> { return adj[v]; });
}

}  // namespace whatsup::graph
