#include "graph/graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace arbor::graph {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v)
    best = std::max(best, degree(v));
  return best;
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the shorter list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto ns = neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

double Graph::average_degree() const noexcept {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

namespace {

constexpr VertexId kUnmapped = ~VertexId{0};

/// The calling thread's dense relabel table: slot v holds the new id of
/// original vertex v while an induced() call runs, kUnmapped otherwise.
/// It only grows (to the largest graph the thread has seen) and every call
/// resets exactly the slots it set, so no call pays O(n) after the first.
std::vector<VertexId>& relabel_table(std::size_t n) {
  thread_local std::vector<VertexId> table;
  if (table.size() < n) table.resize(n, kUnmapped);
  return table;
}

/// Clears the slots of the first `mapped` selected vertices on scope exit,
/// so a selection rejected halfway leaves the table clean.
class RelabelReset {
 public:
  RelabelReset(std::vector<VertexId>& table,
               std::span<const VertexId> vertices)
      : table_(table), vertices_(vertices) {}
  ~RelabelReset() {
    for (std::size_t i = 0; i < mapped; ++i) table_[vertices_[i]] = kUnmapped;
  }
  RelabelReset(const RelabelReset&) = delete;
  RelabelReset& operator=(const RelabelReset&) = delete;

  std::size_t mapped = 0;

 private:
  std::vector<VertexId>& table_;
  std::span<const VertexId> vertices_;
};

}  // namespace

InducedSubgraph Graph::induced(std::span<const VertexId> vertices) const {
  std::vector<VertexId>& to_new = relabel_table(num_vertices());
  RelabelReset reset(to_new, vertices);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ARBOR_CHECK_MSG(vertices[i] < num_vertices(),
                    "induced(): vertex id out of range");
    ARBOR_CHECK_MSG(to_new[vertices[i]] == kUnmapped,
                    "induced(): duplicate vertex in selection");
    to_new[vertices[i]] = static_cast<VertexId>(i);
    reset.mapped = i + 1;
  }

  // Build CSR for the subgraph directly: count, then fill.
  const std::size_t sub_n = vertices.size();
  std::vector<EdgeId> offsets(sub_n + 1, 0);
  for (std::size_t i = 0; i < sub_n; ++i) {
    for (VertexId w : neighbors(vertices[i]))
      if (to_new[w] != kUnmapped) ++offsets[i + 1];
  }
  for (std::size_t i = 0; i < sub_n; ++i) offsets[i + 1] += offsets[i];

  std::vector<VertexId> adjacency(offsets[sub_n]);
  for (std::size_t i = 0; i < sub_n; ++i) {
    EdgeId cursor = offsets[i];
    for (VertexId w : neighbors(vertices[i]))
      if (to_new[w] != kUnmapped) adjacency[cursor++] = to_new[w];
  }
  // Neighbor lists inherit the original order keyed by *original* ids; the
  // subgraph must be sorted by *new* ids. Walking the sorted lists in
  // vertex order then emits the canonical edges already sorted.
  std::vector<Edge> edges;
  edges.reserve(offsets[sub_n] / 2);
  for (std::size_t i = 0; i < sub_n; ++i) {
    const auto first =
        adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
    const auto last =
        adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]);
    std::sort(first, last);
    for (auto it = std::upper_bound(first, last, static_cast<VertexId>(i));
         it != last; ++it)
      edges.push_back({static_cast<VertexId>(i), *it});
  }

  return {Graph(std::move(offsets), std::move(adjacency), std::move(edges)),
          std::vector<VertexId>(vertices.begin(), vertices.end())};
}

}  // namespace arbor::graph
