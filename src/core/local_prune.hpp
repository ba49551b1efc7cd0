// Algorithm 1: LocalPrune — recursively remove the k heaviest subtrees.
//
// Semantics (paper, Algorithm 1):
//   * if the root has at most k children, return the single-node tree {r}
//     (all children are dropped);
//   * otherwise recursively prune every child's subtree, sort the pruned
//     subtrees by size descending, drop the k largest, and attach the rest.
// Guarantees exercised by tests:
//   * Claim 3.1 — each surviving node's missing-neighbor count grows by at
//     most k;
//   * Lemma 3.2 — if the root's vertex has a finite layer under a partial
//     layer assignment with out-degree d ≤ k, the pruned size is at most
//     NumPathsIn(map(root)).
// Runs locally on one machine; costs no MPC rounds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/tree_view.hpp"

namespace arbor::core {

/// Algorithm 1 on a tree's wire words (tree_view.hpp layout). All working
/// arrays are flat and reused across calls, so pruning n trees in a row
/// allocates only when a tree is larger than every one before it.
///
/// Deterministic tie-breaking: subtrees of equal size are ordered by the
/// child's mapped vertex id, then by node id ("ties broken arbitrarily" in
/// the paper; fixing them makes runs reproducible). The pruned tree is laid
/// out in preorder, each node's kept children in that order, so its
/// children lists are increasing too.
class LocalPruner {
 public:
  using Word = TreeView::Word;

  /// The pruned tree's wire words: a view of this pruner's scratch, valid
  /// until the next prune().
  std::span<const Word> prune(std::span<const Word> tree, std::size_t k);

 private:
  using NodeId = TreeView::NodeId;

  TreeIndex index_;
  std::vector<std::uint32_t> pruned_size_;
  // Kept children of x: kept_[kept_begin_[x] .. + kept_count_[x]), in
  // prune order.
  std::vector<std::uint32_t> kept_begin_;
  std::vector<std::uint32_t> kept_count_;
  std::vector<NodeId> kept_;
  std::vector<std::pair<NodeId, NodeId>> stack_;  // (source, output parent)
  std::vector<Word> out_;
};

/// One-tree convenience over LocalPruner (tests and benches).
TreeView local_prune(const TreeView& tree, std::size_t k);

}  // namespace arbor::core
