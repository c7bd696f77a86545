// Local clustering coefficient. §V-A compares the clustering coefficient of
// the WUP-metric overlay (~0.15) against the cosine overlay (~0.40): the
// WUP metric avoids concentrating nodes around hubs.
#pragma once

#include "graph/static_graph.hpp"
#include "graph/ugraph.hpp"

namespace whatsup::graph {

// Average local clustering coefficient of the undirected closure of `g`
// (an edge exists if it exists in either direction).
double avg_clustering_coefficient(const StaticGraph& g);
double avg_clustering_coefficient(const UGraph& g);

}  // namespace whatsup::graph
