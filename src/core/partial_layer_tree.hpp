// Algorithm 3: PartialLayerAssignmentTree — peel a rooted tree view into
// layers.
//
// Given a tree T with valid mapping into G and a budget a, the peeling
// process assigns layer j to every still-unassigned tree node x whose
// unassigned-children count plus missing-neighbor count is at most a:
//     V_j = { x ∈ V_{≥j} : |children(x) ∩ V_{≥j}| + |Missing(x)| ≤ a }.
// Nodes never assigned within L iterations get ∞. Runs locally on one
// machine (the tree is a single vertex's bundle); costs no MPC rounds.
//
// Correctness anchors (tested): Lemma 3.8 — strictly monotonically
// reachable nodes satisfy ℓ_T(x) ≤ ℓ_G(map(x)) whenever a ≥ d + missing;
// Lemma 3.10 — the min-projection of ℓ_T onto G has out-degree ≤ a.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/layering.hpp"
#include "core/tree_view.hpp"
#include "graph/graph.hpp"

namespace arbor::core {

/// Algorithm 3 on a tree's wire words (tree_view.hpp layout). The working
/// arrays are flat and reused across calls, like LocalPruner's.
class TreePeeler {
 public:
  /// Per-tree-node layer assignment (kInfiniteLayer for ∞): a view of this
  /// peeler's scratch, valid until the next peel().
  std::span<const Layer> peel(const graph::Graph& g,
                              std::span<const TreeView::Word> tree,
                              std::size_t a, Layer L);

 private:
  using NodeId = TreeView::NodeId;

  std::vector<Layer> layer_;
  std::vector<std::size_t> missing_;
  std::vector<std::size_t> unassigned_children_;
  std::vector<NodeId> remaining_;
  std::vector<NodeId> next_remaining_;
  std::vector<NodeId> assigned_now_;
};

/// One-tree convenience over TreePeeler (tests).
std::vector<Layer> partial_layer_assignment_tree(const graph::Graph& g,
                                                 const TreeView& tree,
                                                 std::size_t a, Layer L);

}  // namespace arbor::core
