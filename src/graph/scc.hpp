// Strongly connected components (iterative Tarjan). Used to reproduce
// Fig. 4: the fraction of nodes in the largest SCC of the WUP overlay.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/static_graph.hpp"

namespace whatsup::graph {

struct SccResult {
  std::vector<int> component;  // component id per node, -1 never occurs
  std::size_t count = 0;       // number of components
  std::size_t largest = 0;     // size of the largest component
};

SccResult strongly_connected_components(const StaticGraph& g);

// |largest SCC| / |V| — 0 for the empty graph.
double largest_scc_fraction(const StaticGraph& g);

}  // namespace whatsup::graph
