// Weakly connected components of a digraph / connected components of an
// undirected graph. §V-A reports average component counts of the overlays.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/static_graph.hpp"
#include "graph/ugraph.hpp"

namespace whatsup::graph {

struct ComponentsResult {
  std::vector<int> component;
  std::size_t count = 0;
  std::size_t largest = 0;
};

ComponentsResult weak_components(const StaticGraph& g);
ComponentsResult connected_components(const UGraph& g);

}  // namespace whatsup::graph
