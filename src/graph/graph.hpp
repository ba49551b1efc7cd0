// Immutable simple undirected graph in compressed-sparse-row form.
//
// This is the substrate every other module consumes: generators produce it,
// the MPC/LOCAL simulators distribute it, validators recompute quality
// measures from it. Vertices are dense ids [0, n); the builder guarantees no
// self-loops and no parallel edges, so degree(v) == |N(v)|.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace arbor::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

/// An undirected edge with endpoints in canonical order (u < v).
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

struct InducedSubgraph;  // defined after Graph (holds one)

class Graph {
 public:
  Graph() = default;

  /// Construct from CSR arrays. `offsets` has n+1 entries; `adjacency`
  /// stores sorted neighbor lists; `edges` lists each undirected edge once
  /// in canonical order, sorted. Used by GraphBuilder; validated there.
  Graph(std::vector<EdgeId> offsets, std::vector<VertexId> adjacency,
        std::vector<Edge> edges)
      : offsets_(std::move(offsets)),
        adjacency_(std::move(adjacency)),
        edges_(std::move(edges)) {}

  std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  std::size_t degree(VertexId v) const noexcept {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::size_t max_degree() const noexcept;

  /// Sorted neighbor list of v.
  std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// All undirected edges, canonical order (u < v), sorted lexicographically.
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// O(log degree) membership test.
  bool has_edge(VertexId u, VertexId v) const noexcept;

  /// Average degree 2m/n (0 for the empty graph).
  double average_degree() const noexcept;

  /// Subgraph induced by `vertices` (need not be sorted; duplicates
  /// rejected). Also returns the mapping from new ids to original ids;
  /// new id i is `vertices[i]`.
  ///
  /// Cost: O(|S| + vol(S) + Σ d_S(v) log d_S(v)) for the selection S, never
  /// O(n). The relabel goes through a dense table kept per calling thread,
  /// sized to the largest graph that thread has seen and reset slot by slot
  /// after every call, also when a check rejects the selection. Concurrent
  /// calls from different threads, on the same graph or on different ones,
  /// are therefore safe.
  InducedSubgraph induced(std::span<const VertexId> vertices) const;

 private:
  std::vector<EdgeId> offsets_;      // n+1
  std::vector<VertexId> adjacency_;  // 2m, sorted per vertex
  std::vector<Edge> edges_;          // m, canonical + sorted
};

struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> to_original;  ///< new id -> original id
};

}  // namespace arbor::graph
