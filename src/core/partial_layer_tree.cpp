#include "core/partial_layer_tree.hpp"

#include "util/assert.hpp"

namespace arbor::core {

std::span<const Layer> TreePeeler::peel(const graph::Graph& g,
                                        std::span<const TreeView::Word> tree,
                                        std::size_t a, Layer L) {
  const std::size_t n = tree_words::size(tree);
  ARBOR_CHECK_MSG(n >= 1 && tree.size() == tree_words::word_count(n),
                  "tree arena: length mismatch");
  layer_.assign(n, kInfiniteLayer);

  // |Missing(x)| = deg(map(x)) - #children(x) is fixed throughout;
  // unassigned-children counts shrink as children get assigned. One
  // counting pass over the parents gives the children counts.
  unassigned_children_.assign(n, 0);
  for (NodeId x = 1; x < n; ++x) {
    const NodeId parent = tree_words::parent_of(tree, x);
    ARBOR_CHECK_MSG(parent < x, "tree arena: parent-before-child violated");
    ++unassigned_children_[parent];
  }
  missing_.resize(n);
  for (NodeId x = 0; x < n; ++x) {
    const std::size_t deg = g.degree(tree_words::vertex_of(tree, x));
    ARBOR_CHECK_MSG(unassigned_children_[x] <= deg,
                    "more children than graph neighbors — invalid mapping");
    missing_[x] = deg - unassigned_children_[x];
  }

  remaining_.resize(n);
  for (NodeId x = 0; x < n; ++x) remaining_[x] = x;
  for (Layer j = 1; j <= L && !remaining_.empty(); ++j) {
    next_remaining_.clear();
    assigned_now_.clear();
    // Selection is synchronous: V_j is decided from the state at the start
    // of iteration j, so we first select, then update counters.
    for (NodeId x : remaining_) {
      if (unassigned_children_[x] + missing_[x] <= a)
        assigned_now_.push_back(x);
      else
        next_remaining_.push_back(x);
    }
    for (NodeId x : assigned_now_) {
      layer_[x] = j;
      if (x != 0) {
        const NodeId parent = tree_words::parent_of(tree, x);
        ARBOR_CHECK(unassigned_children_[parent] > 0);
        --unassigned_children_[parent];
      }
    }
    remaining_.swap(next_remaining_);
  }
  return layer_;
}

std::vector<Layer> partial_layer_assignment_tree(const graph::Graph& g,
                                                 const TreeView& tree,
                                                 std::size_t a, Layer L) {
  TreePeeler peeler;
  const std::span<const Layer> layers = peeler.peel(g, tree.words(), a, L);
  return {layers.begin(), layers.end()};
}

}  // namespace arbor::core
