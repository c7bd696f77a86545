#include "graph/components.hpp"

#include <algorithm>

namespace whatsup::graph {

namespace {

// Union-find with path halving.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<NodeId>(i);
  }
  NodeId find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(NodeId a, NodeId b) { parent_[find(a)] = find(b); }

 private:
  std::vector<NodeId> parent_;
};

ComponentsResult label_from_sets(DisjointSets& sets, std::size_t n) {
  ComponentsResult result;
  result.component.assign(n, -1);
  std::vector<int> root_label(n, -1);
  std::vector<std::size_t> sizes;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = sets.find(v);
    if (root_label[root] < 0) {
      root_label[root] = static_cast<int>(result.count++);
      sizes.push_back(0);
    }
    result.component[v] = root_label[root];
    ++sizes[static_cast<std::size_t>(root_label[root])];
  }
  result.largest = sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
  return result;
}

}  // namespace

// Edge direction is irrelevant for weak connectivity.
ComponentsResult weak_components(const StaticGraph& g) {
  DisjointSets sets(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.out(v)) sets.unite(v, w);
  }
  return label_from_sets(sets, g.num_nodes());
}

ComponentsResult connected_components(const UGraph& g) {
  DisjointSets sets(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.neighbors(v)) sets.unite(v, w);
  }
  return label_from_sets(sets, g.num_nodes());
}

}  // namespace whatsup::graph
