// Rooted trees with valid mappings into a graph — Definitions 2.3–2.7.
//
// During graph exponentiation every vertex v maintains a rooted tree T_v
// whose nodes map to graph vertices (the root to v itself). The mapping is
// "valid" (Def 2.3) when every tree edge maps to a graph edge and the
// children of any tree node map to *distinct* graph vertices; a vertex of G
// may still appear many times across different branches — once per path
// that reaches it — which is exactly how the algorithm forces a tree-like
// view of a general graph's neighborhoods (paper §1.4).
//
// Arena layout. A tree is stored exactly as it ships through the Lemma 4.1
// bundle fetch: the wire words
//     [size, maps_to_0, parent_0, maps_to_1, parent_1, ...]
// with the root at node 0 (parent kNoNode) and every parent before its
// children. Depths and children are not stored in the words; TreeIndex
// derives them with one counting pass over the parents into flat arrays
// (a children CSR whose lists are in strictly increasing node-id order).
// TreeView owns one tree's words plus its index. The exponentiation hot
// path (core/exponentiate) keeps all n trees of a step back to back in one
// word buffer and runs prune, fetch and attach on spans of it with reused
// TreeIndex scratch, never materializing a TreeView.
//
// Supported operations mirror the paper's definitions: pruning (Def 2.4,
// implemented in core/local_prune), attachment of other trees at leaves
// (Def 2.5), missing-neighbor counts (Def 2.6), and strict monotone
// reachability w.r.t. a layer assignment (Def 2.7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"

namespace arbor::core {

/// Depths and children of a tree given as wire words, in flat arrays.
/// build() reuses the arrays' capacity, so one TreeIndex can serve as
/// scratch for many trees.
class TreeIndex {
 public:
  using NodeId = std::uint32_t;
  using Word = std::uint64_t;

  /// Index `words` (validating the arena invariants: exact length, a root
  /// with no parent, every parent before its child).
  void build(std::span<const Word> words);

  std::size_t size() const noexcept { return depth_.size(); }
  std::uint32_t depth(NodeId x) const { return depth_[x]; }
  std::size_t num_children(NodeId x) const {
    return child_begin_[x + 1] - child_begin_[x];
  }
  /// Children of x in strictly increasing id order.
  std::span<const NodeId> children(NodeId x) const {
    return {child_ids_.data() + child_begin_[x], num_children(x)};
  }
  /// Appends the leaves whose depth is exactly `depth`, in id order.
  void leaves_at_depth(std::uint32_t depth, std::vector<NodeId>& out) const;

 private:
  std::vector<std::uint32_t> depth_;
  std::vector<NodeId> child_begin_;  // size() + 1 offsets into child_ids_
  std::vector<NodeId> child_ids_;
};

/// Accessors on a tree's wire words (no index needed).
namespace tree_words {
inline std::size_t size(std::span<const std::uint64_t> words) {
  return static_cast<std::size_t>(words[0]);
}
inline std::size_t word_count(std::size_t nodes) { return 2 * nodes + 1; }
inline graph::VertexId vertex_of(std::span<const std::uint64_t> words,
                                 std::uint32_t x) {
  return static_cast<graph::VertexId>(words[1 + 2 * std::size_t{x}]);
}
inline std::uint32_t parent_of(std::span<const std::uint64_t> words,
                               std::uint32_t x) {
  return static_cast<std::uint32_t>(words[2 + 2 * std::size_t{x}]);
}
}  // namespace tree_words

class TreeView {
 public:
  using NodeId = TreeIndex::NodeId;
  using Word = TreeIndex::Word;
  static constexpr NodeId kNoNode = 0xffffffffu;

  /// One node of an explicitly built arena (from_nodes).
  struct Node {
    graph::VertexId maps_to = 0;
    NodeId parent = kNoNode;
    std::uint32_t depth = 0;
  };

  /// Replace leaf `leaf` by the tree whose wire words are `tree`.
  struct Attachment {
    NodeId leaf = kNoNode;
    std::span<const Word> tree;
  };

  /// Single-node tree whose root maps to v (the inactive-vertex initial
  /// tree of Algorithm 2).
  static TreeView single(graph::VertexId v);

  /// Star: root maps to v, one child per (distinct) neighbor — the active-
  /// vertex initial tree of Algorithm 2.
  static TreeView star(graph::VertexId v,
                       std::span<const graph::VertexId> neighbors);

  std::size_t size() const noexcept { return index_.size(); }
  NodeId root() const noexcept { return 0; }
  graph::VertexId vertex_of(NodeId x) const {
    return tree_words::vertex_of(words_, checked(x));
  }
  NodeId parent(NodeId x) const {
    return tree_words::parent_of(words_, checked(x));
  }
  std::uint32_t depth(NodeId x) const { return index_.depth(checked(x)); }
  /// Children of x in strictly increasing id order.
  std::span<const NodeId> children(NodeId x) const {
    return index_.children(checked(x));
  }
  graph::VertexId root_vertex() const { return vertex_of(0); }
  std::uint32_t height() const noexcept;

  /// Leaves whose depth is exactly `depth` (Algorithm 2's attachment
  /// frontier at distance 2^{i-1}).
  std::vector<NodeId> leaves_at_depth(std::uint32_t depth) const;

  /// Definition 2.5: replace each given leaf x_i by a fresh copy of the
  /// tree T_i given by its wire words, whose root must map to the same
  /// graph vertex as x_i. Leaves must be distinct. Returns the attached
  /// tree; `this` is unchanged. Node ids are those of attach_words().
  TreeView attach(std::span<const Attachment> attachments) const;

  /// Definition 2.6: |Missing(x)| = |N_G(map(x)) \ {map(c) : c child of x}|.
  /// With a valid mapping the children map to distinct neighbors, so this
  /// equals deg_G(map(x)) - #children(x).
  std::size_t missing_count(const graph::Graph& g, NodeId x) const;

  /// Definition 2.3: full validation of the mapping against g (every tree
  /// edge is a graph edge; siblings map to distinct vertices). O(size·log).
  bool is_valid_mapping(const graph::Graph& g) const;

  /// Definition 2.7: per node, whether the path from the node up to the
  /// root has strictly increasing finite layers under `assignment`.
  std::vector<bool> monotonically_reachable(
      const LayerAssignment& assignment) const;

  /// Words needed to ship this tree as an MPC bundle: (maps_to, parent) per
  /// node plus a length header.
  std::size_t serialized_words() const noexcept { return words_.size(); }

  /// The arena's wire words: [size, maps_to_0, parent_0, ...] in arena
  /// order (root first, parent-before-child). Exactly serialized_words()
  /// words — what Algorithm 2 ships through the Lemma 4.1 bundle fetch.
  std::span<const Word> words() const noexcept { return words_; }
  std::vector<Word> serialize() const { return words_; }

  /// Inverse of serialize(); validates the arena invariants.
  static TreeView deserialize(std::span<const Word> words);

  /// Internal consistency of the index against the words (parent/child/
  /// depth agreement, increasing children); used by tests.
  bool structurally_sound() const;

  /// Build from an explicit arena (testing). Node 0 must be the root;
  /// parents must precede children; each given depth must be its parent's
  /// plus one.
  static TreeView from_nodes(const std::vector<Node>& nodes);

 private:
  TreeView() = default;
  NodeId checked(NodeId x) const;

  std::vector<Word> words_;
  TreeIndex index_;
};

/// Definition 2.5 on wire words: writes into `out` (exactly
/// attached_words(base, attachments) words) the tree `base` with each
/// attachment's leaf replaced by a copy of its tree. The copy's root reuses
/// the leaf's id; its other nodes are appended after base's nodes, one
/// attachment after another in the given order, each in its own id order.
/// The caller guarantees the leaves are distinct leaves of base.
void attach_words(std::span<const TreeView::Word> base,
                  std::span<const TreeView::Attachment> attachments,
                  std::span<TreeView::Word> out);

/// Node count of base with the attachments spliced in: size + Σ(|T_i| - 1).
std::size_t attached_size(std::span<const TreeView::Word> base,
                          std::span<const TreeView::Attachment> attachments);

}  // namespace arbor::core
