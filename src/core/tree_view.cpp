#include "core/tree_view.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"

namespace arbor::core {

void TreeIndex::build(std::span<const Word> words) {
  ARBOR_CHECK_MSG(!words.empty(), "tree arena: empty payload");
  const std::size_t n = tree_words::size(words);
  ARBOR_CHECK_MSG(n >= 1, "tree arena: no root");
  ARBOR_CHECK_MSG(n <= words.size() / 2 &&
                      words.size() == tree_words::word_count(n),
                  "tree arena: length mismatch");
  ARBOR_CHECK_MSG(words[2] == TreeView::kNoNode,
                  "tree arena: root has a parent");
  depth_.resize(n);
  child_begin_.assign(n + 1, 0);
  child_ids_.resize(n - 1);
  depth_[0] = 0;
  // Counting pass: child_begin_[p + 1] counts p's children.
  for (NodeId x = 1; x < n; ++x) {
    const Word p = words[2 + 2 * std::size_t{x}];
    ARBOR_CHECK_MSG(p < x, "tree arena: parent-before-child violated");
    depth_[x] = depth_[p] + 1;
    ++child_begin_[p + 1];
  }
  for (std::size_t x = 0; x < n; ++x) child_begin_[x + 1] += child_begin_[x];
  // Fill in id order (so every list is increasing), advancing each
  // parent's start to its end, then shift the starts back.
  for (NodeId x = 1; x < n; ++x)
    child_ids_[child_begin_[tree_words::parent_of(words, x)]++] = x;
  for (std::size_t x = n; x > 0; --x) child_begin_[x] = child_begin_[x - 1];
  child_begin_[0] = 0;
}

void TreeIndex::leaves_at_depth(std::uint32_t depth,
                                std::vector<NodeId>& out) const {
  for (NodeId x = 0; x < size(); ++x)
    if (depth_[x] == depth && num_children(x) == 0) out.push_back(x);
}

TreeView TreeView::single(graph::VertexId v) {
  return star(v, {});
}

TreeView TreeView::star(graph::VertexId v,
                        std::span<const graph::VertexId> neighbors) {
  TreeView t;
  t.words_.reserve(tree_words::word_count(neighbors.size() + 1));
  t.words_.push_back(neighbors.size() + 1);
  t.words_.push_back(v);
  t.words_.push_back(kNoNode);
  for (graph::VertexId w : neighbors) {
    t.words_.push_back(w);
    t.words_.push_back(0);
  }
  t.index_.build(t.words_);
  return t;
}

TreeView::NodeId TreeView::checked(NodeId x) const {
  ARBOR_CHECK_MSG(x < size(), "tree view: no such node");
  return x;
}

std::uint32_t TreeView::height() const noexcept {
  std::uint32_t h = 0;
  for (NodeId x = 0; x < size(); ++x) h = std::max(h, index_.depth(x));
  return h;
}

std::vector<TreeView::NodeId> TreeView::leaves_at_depth(
    std::uint32_t depth) const {
  std::vector<NodeId> out;
  index_.leaves_at_depth(depth, out);
  return out;
}

std::size_t attached_size(std::span<const TreeView::Word> base,
                          std::span<const TreeView::Attachment> attachments) {
  std::size_t nodes = tree_words::size(base);
  for (const TreeView::Attachment& a : attachments)
    nodes += tree_words::size(a.tree) - 1;
  return nodes;
}

void attach_words(std::span<const TreeView::Word> base,
                  std::span<const TreeView::Attachment> attachments,
                  std::span<TreeView::Word> out) {
  const std::size_t base_words = base.size();
  ARBOR_CHECK(out.size() ==
              tree_words::word_count(attached_size(base, attachments)));
  std::copy(base.begin(), base.end(), out.begin());
  out[0] = (out.size() - 1) / 2;
  // The replacement's root takes the leaf's slot (same mapping, parent and
  // depth); its node x >= 1 becomes next + x - 1.
  std::size_t next = tree_words::size(base);
  std::size_t pos = base_words;
  for (const TreeView::Attachment& a : attachments) {
    ARBOR_CHECK_MSG(tree_words::vertex_of(a.tree, 0) ==
                        tree_words::vertex_of(base, a.leaf),
                    "attach: replacement root maps to different vertex");
    const std::size_t r = tree_words::size(a.tree);
    for (std::uint32_t x = 1; x < r; ++x) {
      const std::uint32_t p = tree_words::parent_of(a.tree, x);
      out[pos++] = tree_words::vertex_of(a.tree, x);
      out[pos++] = p == 0 ? a.leaf : next + p - 1;
    }
    next += r - 1;
  }
}

TreeView TreeView::attach(std::span<const Attachment> attachments) const {
  // Validate the preconditions of Definition 2.5.
  std::vector<bool> attached(size(), false);
  for (const Attachment& a : attachments) {
    ARBOR_CHECK_MSG(a.leaf < size(), "attach: no such node");
    ARBOR_CHECK_MSG(index_.num_children(a.leaf) == 0, "attach: not a leaf");
    ARBOR_CHECK_MSG(!attached[a.leaf], "attach: duplicate leaf");
    attached[a.leaf] = true;
    ARBOR_CHECK_MSG(!a.tree.empty() && tree_words::size(a.tree) >= 1,
                    "attach: empty replacement tree");
    TreeIndex replacement;
    replacement.build(a.tree);  // validates the replacement's arena
  }
  TreeView out;
  out.words_.resize(
      tree_words::word_count(attached_size(words_, attachments)));
  attach_words(words_, attachments, out.words_);
  out.index_.build(out.words_);
  return out;
}

std::size_t TreeView::missing_count(const graph::Graph& g, NodeId x) const {
  const std::size_t deg = g.degree(vertex_of(x));
  const std::size_t kids = index_.num_children(x);
  ARBOR_CHECK_MSG(kids <= deg,
                  "more children than graph neighbors — invalid mapping");
  return deg - kids;
}

bool TreeView::is_valid_mapping(const graph::Graph& g) const {
  std::unordered_set<std::uint64_t> sibling_guard;
  for (NodeId x = 0; x < size(); ++x) {
    const graph::VertexId v = vertex_of(x);
    if (v >= g.num_vertices()) return false;
    // Tree edge must map to a graph edge (Def 2.3 condition 1).
    if (x != 0 && !g.has_edge(v, vertex_of(parent(x)))) return false;
    // Children of x must map to distinct vertices (condition 2).
    sibling_guard.clear();
    for (NodeId c : children(x))
      if (!sibling_guard.insert(vertex_of(c)).second) return false;
  }
  return true;
}

std::vector<bool> TreeView::monotonically_reachable(
    const LayerAssignment& assignment) const {
  // Walk top-down: a node is reachable iff its parent is reachable and the
  // layers strictly DECREASE going away from the root (Def 2.7 reads the
  // path from the node up to the root as strictly increasing).
  std::vector<bool> reachable(size(), false);
  const auto layer_of = [&](NodeId x) {
    return assignment.layer.at(vertex_of(x));
  };
  reachable[0] = layer_of(0) != kInfiniteLayer;
  for (NodeId x = 0; x < size(); ++x) {
    if (!reachable[x]) continue;
    for (NodeId c : children(x)) {
      const Layer lc = layer_of(c);
      reachable[c] = lc != kInfiniteLayer && lc < layer_of(x);
    }
  }
  return reachable;
}

bool TreeView::structurally_sound() const {
  if (size() == 0 || words_.size() != tree_words::word_count(size()))
    return false;
  if (parent(0) != kNoNode || depth(0) != 0) return false;
  std::size_t edges = 0;
  for (NodeId x = 0; x < size(); ++x) {
    NodeId previous = x;  // children ids exceed their parent's
    for (NodeId c : children(x)) {
      if (c <= previous || c >= size()) return false;
      if (parent(c) != x || depth(c) != depth(x) + 1) return false;
      previous = c;
      ++edges;
    }
  }
  return edges + 1 == size();
}

TreeView TreeView::from_nodes(const std::vector<Node>& nodes) {
  ARBOR_CHECK_MSG(!nodes.empty(), "from_nodes: malformed arena");
  TreeView t;
  t.words_.reserve(tree_words::word_count(nodes.size()));
  t.words_.push_back(nodes.size());
  for (const Node& nd : nodes) {
    t.words_.push_back(nd.maps_to);
    t.words_.push_back(nd.parent);
  }
  t.index_.build(t.words_);
  for (NodeId x = 0; x < nodes.size(); ++x)
    ARBOR_CHECK_MSG(nodes[x].depth == t.index_.depth(x),
                    "from_nodes: malformed arena");
  return t;
}

TreeView TreeView::deserialize(std::span<const Word> words) {
  TreeView t;
  t.words_.assign(words.begin(), words.end());
  t.index_.build(t.words_);
  return t;
}

}  // namespace arbor::core
