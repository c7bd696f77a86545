#include "graph/scc.hpp"

#include <algorithm>

namespace whatsup::graph {

// Iterative Tarjan to avoid deep recursion on large overlays.
SccResult strongly_connected_components(const StaticGraph& g) {
  const std::size_t n = g.num_nodes();
  SccResult result;
  result.component.assign(n, -1);
  if (n == 0) return result;

  constexpr int kUnvisited = -1;
  std::vector<int> index(n, kUnvisited);
  std::vector<int> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  struct Frame {
    NodeId v;
    std::size_t next_child;
  };
  std::vector<Frame> frames;
  int next_index = 0;
  std::vector<std::size_t> sizes;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const NodeId v = frame.v;
      const auto children = g.out(v);
      if (frame.next_child < children.size()) {
        const NodeId w = children[frame.next_child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          std::size_t size = 0;
          for (;;) {
            const NodeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component[w] = static_cast<int>(result.count);
            ++size;
            if (w == v) break;
          }
          sizes.push_back(size);
          ++result.count;
        }
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] = std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }

  result.largest = sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
  return result;
}

double largest_scc_fraction(const StaticGraph& g) {
  if (g.num_nodes() == 0) return 0.0;
  return static_cast<double>(strongly_connected_components(g).largest) /
         static_cast<double>(g.num_nodes());
}

}  // namespace whatsup::graph
