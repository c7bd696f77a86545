#include "graph/static_graph.hpp"

#include <algorithm>
#include <cassert>

namespace whatsup::graph {

StaticGraph::Builder::Builder(std::size_t n)
    : row_cap_(n, 0), row_start_(n + 1, 0), row_len_(n, 0) {}

void StaticGraph::Builder::finish_degrees() {
  std::size_t total = 0;
  for (std::size_t v = 0; v < row_cap_.size(); ++v) {
    row_start_[v] = total;
    total += row_cap_[v];
  }
  row_start_[row_cap_.size()] = total;
  edges_.resize(total);
}

void StaticGraph::Builder::add_edge(NodeId v, NodeId w) {
  if (v == w) return;
  assert(row_len_[v] < row_cap_[v] && "pass-2 fill exceeds reserved degree");
  edges_[row_start_[v] + row_len_[v]++] = w;
}

void StaticGraph::Builder::dedupe_rows(NodeId lo, NodeId hi) {
  for (NodeId v = lo; v < hi; ++v) {
    NodeId* begin = edges_.data() + row_start_[v];
    NodeId* end = begin + row_len_[v];
    std::sort(begin, end);
    row_len_[v] = static_cast<std::size_t>(std::unique(begin, end) - begin);
  }
}

StaticGraph StaticGraph::Builder::build() {
  StaticGraph g;
  const std::size_t n = row_len_.size();
  g.offsets_.resize(n + 1);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v] = total;
    total += row_len_[v];
  }
  g.offsets_[n] = total;
  if (total == edges_.size()) {
    // No slack anywhere: reuse the fill buffer as-is.
    g.edges_ = std::move(edges_);
  } else {
    g.edges_.resize(total);
    for (std::size_t v = 0; v < n; ++v) {
      std::copy_n(edges_.data() + row_start_[v], row_len_[v],
                  g.edges_.data() + g.offsets_[v]);
    }
  }
  return g;
}

StaticGraph StaticGraph::from_edges(
    std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [v, w] : edges) {
    assert(v < n && w < n);
    ++degree[v];
  }
  Builder b(n);
  for (NodeId v = 0; v < n; ++v) b.set_degree(v, degree[v]);
  b.finish_degrees();
  for (const auto& [v, w] : edges) b.add_edge(v, w);
  b.dedupe_rows(0, static_cast<NodeId>(n));
  return b.build();
}

}  // namespace whatsup::graph
