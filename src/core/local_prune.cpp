#include "core/local_prune.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace arbor::core {

std::span<const LocalPruner::Word> LocalPruner::prune(
    std::span<const Word> tree, std::size_t k) {
  index_.build(tree);
  const std::size_t n = index_.size();

  // The recursion's decision at every node x depends only on the pruned
  // sizes of x's children, so we evaluate bottom-up. The arena invariant
  // (parent id < child id, checked by TreeIndex::build) makes a reverse
  // scan a valid bottom-up order.
  pruned_size_.resize(n);
  kept_begin_.resize(n);
  kept_count_.resize(n);
  kept_.clear();
  for (std::size_t i = n; i-- > 0;) {
    const auto x = static_cast<NodeId>(i);
    const std::span<const NodeId> children = index_.children(x);
    kept_count_[x] = 0;
    if (children.size() <= k) {
      // Rule 1: return the single-node tree — drop all children.
      pruned_size_[x] = 1;
      continue;
    }
    // Rule 2: drop the k largest pruned child subtrees. Sort the children
    // in place at the end of kept_ and keep the part after the first k.
    const std::size_t first = kept_.size();
    kept_.insert(kept_.end(), children.begin(), children.end());
    std::sort(kept_.begin() + static_cast<std::ptrdiff_t>(first),
              kept_.end(), [&](NodeId a, NodeId b) {
                if (pruned_size_[a] != pruned_size_[b])
                  return pruned_size_[a] > pruned_size_[b];
                const graph::VertexId va = tree_words::vertex_of(tree, a);
                const graph::VertexId vb = tree_words::vertex_of(tree, b);
                if (va != vb) return va < vb;
                return a < b;
              });
    std::uint32_t total = 1;
    for (std::size_t j = first + k; j < kept_.size(); ++j)
      total += pruned_size_[kept_[j]];
    pruned_size_[x] = total;
    kept_begin_[x] = static_cast<std::uint32_t>(first + k);
    kept_count_[x] = static_cast<std::uint32_t>(children.size() - k);
  }

  // Top-down: materialize the kept nodes in preorder (which keeps the
  // parent-before-child invariant for downstream passes).
  const std::size_t size = pruned_size_[0];
  out_.resize(tree_words::word_count(size));
  out_[0] = size;
  std::size_t next = 0;
  stack_.clear();
  stack_.emplace_back(NodeId{0}, TreeView::kNoNode);
  while (!stack_.empty()) {
    const auto [src, parent] = stack_.back();
    stack_.pop_back();
    const auto id = static_cast<NodeId>(next++);
    out_[1 + 2 * std::size_t{id}] = tree_words::vertex_of(tree, src);
    out_[2 + 2 * std::size_t{id}] = parent;
    // Push in reverse so children materialize in their kept order.
    const std::uint32_t begin = kept_begin_[src];
    for (std::uint32_t j = kept_count_[src]; j-- > 0;)
      stack_.emplace_back(kept_[begin + j], id);
  }
  ARBOR_CHECK(next == size);
  return out_;
}

TreeView local_prune(const TreeView& tree, std::size_t k) {
  LocalPruner pruner;
  return TreeView::deserialize(pruner.prune(tree.words(), k));
}

}  // namespace arbor::core
