// Immutable CSR digraph for overlay analysis at scale (WUP views form a
// digraph: node -> members of its view).
//
// An adjacency-list vector<vector<NodeId>> costs one heap block plus vector
// header per node and scatters adjacency across the allocator — at 100k+
// nodes the pointer-chasing dominates every traversal. StaticGraph keeps
// the whole edge set in two flat arrays (offsets[n+1] + edges[m], the layout
// libgrape-lite style graph engines use), built by the classic two-pass
// degree-count / fill scheme. Both passes are safe to run concurrently
// over disjoint node ranges, which is how analysis::overlay_graph streams
// view edges out of each engine shard without ever materializing an
// adjacency-list graph.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace whatsup::graph {

class StaticGraph {
 public:
  StaticGraph() = default;

  std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const NodeId> out(NodeId v) const {
    return {edges_.data() + offsets_[v], edges_.data() + offsets_[v + 1]};
  }
  std::size_t out_degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  // Builds from an edge list (tests, small drivers): self-loops are
  // dropped, rows end up sorted and deduplicated.
  static StaticGraph from_edges(
      std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& edges);

  // Two-pass builder.
  //
  //   Builder b(n);
  //   for each node v:        b.set_degree(v, upper bound on out-edges);
  //   b.finish_degrees();                       // serial prefix sum
  //   for each node v:        b.add_edge(v, w)  // at most the reserved count
  //   b.dedupe_rows(lo, hi);                    // sort+unique, any partition
  //   StaticGraph g = b.build();                // serial compaction
  //
  // set_degree/add_edge/dedupe_rows touch only node v's slice, so the
  // passes parallelize over disjoint node ranges with no synchronization.
  // add_edge ignores self-loops and build() drops slack left by skipped or
  // deduplicated edges, so the degree pass may over-reserve.
  class Builder {
   public:
    explicit Builder(std::size_t n);

    std::size_t num_nodes() const { return row_len_.size(); }

    // Pass 1: reserve row capacity for v (an upper bound is fine).
    void set_degree(NodeId v, std::size_t degree) { row_cap_[v] = degree; }
    // Turns the per-row capacities into row starts. Call once, serially,
    // between the passes.
    void finish_degrees();
    // Pass 2: append an out-edge of v. Self-loops are ignored (overlay
    // semantics: a node never lists itself in its view).
    void add_edge(NodeId v, NodeId w);
    // Sorts and deduplicates the rows of nodes [lo, hi).
    void dedupe_rows(NodeId lo, NodeId hi);
    // Compacts rows to their final lengths. The builder is spent after.
    StaticGraph build();

   private:
    std::vector<std::size_t> row_cap_;    // pass 1: per-row capacity
    std::vector<std::size_t> row_start_;  // after finish_degrees
    std::vector<std::size_t> row_len_;    // filled length per row
    std::vector<NodeId> edges_;
  };

 private:
  std::vector<std::size_t> offsets_;  // n + 1
  std::vector<NodeId> edges_;
};

}  // namespace whatsup::graph
