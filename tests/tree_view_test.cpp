// Tests for TreeView: Definitions 2.3 (valid mappings), 2.5 (attachment),
// 2.6 (missing neighbors), 2.7 (monotone reachability), and the arena
// invariants — including properties on seeded random trees checked against
// direct reference constructions written here (attachment, and Algorithm 1
// / Definition 2.4 for local prune).
#include <gtest/gtest.h>

#include <algorithm>

#include "util/assert.hpp"
#include "core/local_prune.hpp"
#include "core/tree_view.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;
using NodeId = TreeView::NodeId;

TEST(TreeView, SingleNode) {
  const TreeView t = TreeView::single(7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root_vertex(), 7u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, StarShape) {
  const Graph g = graph::star(5);
  const TreeView t = TreeView::star(0, g.neighbors(0));
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.children(0).size(), 4u);
  EXPECT_TRUE(t.is_valid_mapping(g));
  EXPECT_TRUE(t.structurally_sound());
}

TEST(TreeView, LeavesAtDepth) {
  const Graph g = graph::star(4);
  const TreeView t = TreeView::star(0, g.neighbors(0));
  EXPECT_EQ(t.leaves_at_depth(1).size(), 3u);
  EXPECT_TRUE(t.leaves_at_depth(0).empty());  // root has children
  EXPECT_TRUE(t.leaves_at_depth(2).empty());
  const TreeView s = TreeView::single(2);
  EXPECT_EQ(s.leaves_at_depth(0).size(), 1u);  // lone root is a leaf
}

TEST(TreeView, MissingCountEqualsDegreeMinusChildren) {
  // Path 0-1-2; star tree rooted at 1 has children {0, 2}: missing = 0.
  const Graph g = graph::path(3);
  const TreeView t = TreeView::star(1, g.neighbors(1));
  EXPECT_EQ(t.missing_count(g, 0), 0u);
  // Leaves have no children: leaf mapping to 0 has degree 1 → missing 1.
  EXPECT_EQ(t.missing_count(g, 1), 1u);
}

TEST(TreeView, AttachReplacesLeafAndExtendsDepth) {
  // Graph: path 0-1-2-3. Tree A = star at 1 (children 0,2); tree B = star
  // at 2 (children 1,3). Attach B at A's leaf mapping to 2.
  const Graph g = graph::path(4);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::star(2, g.neighbors(2));

  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  ASSERT_NE(leaf_to_2, TreeView::kNoNode);

  const std::vector<TreeView::Attachment> attachments{
      {leaf_to_2, b.words()}};
  const TreeView merged = a.attach(attachments);
  EXPECT_EQ(merged.size(), a.size() + b.size() - 1);  // leaf slot reused
  EXPECT_EQ(merged.height(), 2u);
  EXPECT_TRUE(merged.is_valid_mapping(g));
  EXPECT_TRUE(merged.structurally_sound());
  // The leaf now has B's children (mapping to 1 and 3).
  EXPECT_EQ(merged.children(leaf_to_2).size(), 2u);
}

TEST(TreeView, AttachRejectsMismatchedRoot) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView wrong = TreeView::single(0);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const std::vector<TreeView::Attachment> attachments{
      {leaf_to_2, wrong.words()}};
  EXPECT_THROW(a.attach(attachments), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsNonLeaf) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::single(1);
  const std::vector<TreeView::Attachment> attachments{
      {a.root(), b.words()}};  // root is not a leaf here
  EXPECT_THROW(a.attach(attachments), arbor::InvariantError);
}

TEST(TreeView, AttachRejectsDuplicateLeaf) {
  const Graph g = graph::path(3);
  const TreeView a = TreeView::star(1, g.neighbors(1));
  const TreeView b = TreeView::single(2);
  NodeId leaf_to_2 = TreeView::kNoNode;
  for (NodeId x : a.leaves_at_depth(1))
    if (a.vertex_of(x) == 2) leaf_to_2 = x;
  const std::vector<TreeView::Attachment> attachments{
      {leaf_to_2, b.words()}, {leaf_to_2, b.words()}};
  EXPECT_THROW(a.attach(attachments), arbor::InvariantError);
}

TEST(TreeView, ValidMappingDetectsNonEdges) {
  // Tree claims an edge 0-2 that does not exist in the path 0-1-2.
  std::vector<TreeView::Node> nodes(2);
  nodes[0] = {0, TreeView::kNoNode, 0};
  nodes[1] = {2, 0, 1};
  const TreeView t = TreeView::from_nodes(nodes);
  EXPECT_FALSE(t.is_valid_mapping(graph::path(3)));
  // On a triangle the same tree IS valid (0-2 exists there).
  EXPECT_TRUE(t.is_valid_mapping(graph::cycle(3)));
}

TEST(TreeView, ValidMappingDetectsDuplicateSiblings) {
  // Root 1 with two children both mapping to 0 (0-1 is an edge of path(2)).
  std::vector<TreeView::Node> nodes(3);
  nodes[0] = {1, TreeView::kNoNode, 0};
  nodes[1] = {0, 0, 1};
  nodes[2] = {0, 0, 1};
  const TreeView t = TreeView::from_nodes(nodes);
  EXPECT_FALSE(t.is_valid_mapping(graph::path(2)));
}

TEST(TreeView, FromNodesRejectsMalformedArena) {
  // Child points to parent with wrong depth.
  std::vector<TreeView::Node> nodes(2);
  nodes[0] = {0, TreeView::kNoNode, 0};
  nodes[1] = {1, 0, 5};  // depth should be 1
  EXPECT_THROW(TreeView::from_nodes(nodes),
               arbor::InvariantError);
}

TEST(TreeView, MonotoneReachability) {
  // Chain tree: root→a→b mapping to vertices 2,1,0 of path(3) with layers
  // ℓ(0)=1 < ℓ(1)=2 < ℓ(2)=3. Reading each node's path UP to the root must
  // be strictly increasing — true for all three nodes here.
  std::vector<TreeView::Node> nodes(3);
  nodes[0] = {2, TreeView::kNoNode, 0};
  nodes[1] = {1, 0, 1};
  nodes[2] = {0, 1, 2};
  const TreeView t = TreeView::from_nodes(nodes);
  LayerAssignment a;
  a.layer = {1, 2, 3};
  a.num_layers = 3;
  const auto reach = t.monotonically_reachable(a);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);

  // Break monotonicity: make ℓ(1) = 3 (equal to root's vertex layer).
  a.layer = {1, 3, 3};
  const auto reach2 = t.monotonically_reachable(a);
  EXPECT_TRUE(reach2[0]);
  EXPECT_FALSE(reach2[1]);
  EXPECT_FALSE(reach2[2]);  // blocked by its ancestor
}

TEST(TreeView, MonotoneReachabilityInfinityBlocks) {
  std::vector<TreeView::Node> nodes(2);
  nodes[0] = {1, TreeView::kNoNode, 0};
  nodes[1] = {0, 0, 1};
  const TreeView t = TreeView::from_nodes(nodes);
  LayerAssignment a;
  a.layer = {kInfiniteLayer, 2};
  a.num_layers = 2;
  const auto reach = t.monotonically_reachable(a);
  EXPECT_TRUE(reach[0]);
  EXPECT_FALSE(reach[1]);  // maps to an ∞ vertex

  a.layer = {1, kInfiniteLayer};
  const auto reach2 = t.monotonically_reachable(a);
  EXPECT_FALSE(reach2[0]);  // root itself at ∞
}

TEST(TreeView, SerializedWords) {
  EXPECT_EQ(TreeView::single(0).serialized_words(), 3u);
  const Graph g = graph::star(4);
  EXPECT_EQ(TreeView::star(0, g.neighbors(0)).serialized_words(), 9u);
}

// ---------------- properties on seeded random trees ----------------

/// A random arena of `size` nodes: node x's parent is uniform among the
/// first ⌈x/bushiness⌉ nodes (larger bushiness → wider, shallower trees);
/// every node maps to a uniform vertex in [0, vertices).
std::vector<TreeView::Node> random_nodes(util::SplitRng& rng,
                                         std::size_t size,
                                         std::size_t bushiness,
                                         std::size_t vertices) {
  std::vector<TreeView::Node> nodes(size);
  nodes[0] = {static_cast<VertexId>(rng.next_below(vertices)),
              TreeView::kNoNode, 0};
  for (NodeId x = 1; x < size; ++x) {
    const auto parent = static_cast<NodeId>(
        rng.next_below((x + bushiness - 1) / bushiness));
    nodes[x] = {static_cast<VertexId>(rng.next_below(vertices)), parent,
                nodes[parent].depth + 1};
  }
  return nodes;
}

TEST(TreeViewProperty, SerializeRoundTripsToTheSameWords) {
  util::SplitRng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto nodes =
        random_nodes(rng, 1 + rng.next_below(300), 1 + trial % 5, 1000);
    const TreeView t = TreeView::from_nodes(nodes);
    const std::vector<TreeView::Word> words = t.serialize();
    ASSERT_EQ(words.size(), t.serialized_words());
    ASSERT_EQ(words[0], nodes.size());
    for (NodeId x = 0; x < nodes.size(); ++x) {
      EXPECT_EQ(words[1 + 2 * x], nodes[x].maps_to);
      EXPECT_EQ(words[2 + 2 * x], nodes[x].parent);
    }
    const TreeView back = TreeView::deserialize(words);
    EXPECT_EQ(back.serialize(), words);
    EXPECT_TRUE(back.structurally_sound());
    for (NodeId x = 0; x < t.size(); ++x) {
      EXPECT_EQ(back.depth(x), nodes[x].depth);
      EXPECT_TRUE(std::equal(back.children(x).begin(), back.children(x).end(),
                             t.children(x).begin(), t.children(x).end()));
    }
  }
}

TEST(TreeViewProperty, ChildrenAreStrictlyIncreasingAndComplete) {
  util::SplitRng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const auto nodes =
        random_nodes(rng, 1 + rng.next_below(300), 1 + trial % 5, 1000);
    const TreeView t = TreeView::from_nodes(nodes);
    std::vector<std::size_t> expected_children(nodes.size(), 0);
    for (NodeId x = 1; x < nodes.size(); ++x)
      ++expected_children[nodes[x].parent];
    for (NodeId x = 0; x < t.size(); ++x) {
      const auto kids = t.children(x);
      EXPECT_EQ(kids.size(), expected_children[x]);
      for (std::size_t i = 0; i < kids.size(); ++i) {
        EXPECT_EQ(t.parent(kids[i]), x);
        if (i > 0) {
          EXPECT_LT(kids[i - 1], kids[i]) << "node " << x;
        }
      }
    }
  }
}

TEST(TreeViewProperty, AttachMatchesHandBuiltArena) {
  // Hand-built: base = root 7 with leaves {3, 5}; replace leaf 1 (maps to
  // 3) by 3→{8, 9} and leaf 2 (maps to 5) by 5→{6→{4}}. The replacement
  // roots keep the leaves' ids; the other nodes follow in order.
  const TreeView base = TreeView::from_nodes(
      {{7, TreeView::kNoNode, 0}, {3, 0, 1}, {5, 0, 1}});
  const TreeView t3 =
      TreeView::from_nodes({{3, TreeView::kNoNode, 0}, {8, 0, 1}, {9, 0, 1}});
  const TreeView t5 =
      TreeView::from_nodes({{5, TreeView::kNoNode, 0}, {6, 0, 1}, {4, 1, 2}});
  const std::vector<TreeView::Attachment> attachments{{2, t5.words()},
                                                      {1, t3.words()}};
  const TreeView merged = base.attach(attachments);
  const TreeView expected = TreeView::from_nodes({{7, TreeView::kNoNode, 0},
                                                  {3, 0, 1},
                                                  {5, 0, 1},
                                                  {6, 2, 2},
                                                  {4, 3, 3},
                                                  {8, 1, 2},
                                                  {9, 1, 2}});
  EXPECT_EQ(merged.serialize(), expected.serialize());
  EXPECT_TRUE(merged.structurally_sound());
}

TEST(TreeViewProperty, AttachMatchesReferenceOnRandomTrees) {
  util::SplitRng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const auto base_nodes =
        random_nodes(rng, 1 + rng.next_below(60), 1 + trial % 4, 50);
    const TreeView base = TreeView::from_nodes(base_nodes);
    // Replace a random subset of the leaves, each by a random tree whose
    // root maps to the leaf's vertex.
    std::vector<std::vector<TreeView::Node>> replacement_nodes;
    std::vector<NodeId> leaves;
    for (NodeId x = 0; x < base.size(); ++x) {
      if (!base.children(x).empty() || rng.next_below(3) == 0) continue;
      auto nodes = random_nodes(rng, 1 + rng.next_below(20), 2, 50);
      nodes[0].maps_to = base.vertex_of(x);
      replacement_nodes.push_back(std::move(nodes));
      leaves.push_back(x);
    }
    // Attach in a shuffled order: ids follow the attachment order.
    std::vector<std::size_t> order(leaves.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<TreeView> replacements;
    for (const auto& nodes : replacement_nodes)
      replacements.push_back(TreeView::from_nodes(nodes));
    std::vector<TreeView::Attachment> attachments;
    for (std::size_t i : order)
      attachments.push_back({leaves[i], replacements[i].words()});

    // Reference: copy base, then append each replacement's non-root nodes
    // with remapped parents and shifted depths.
    std::vector<TreeView::Node> expected = base_nodes;
    for (std::size_t i : order) {
      const auto& nodes = replacement_nodes[i];
      std::vector<NodeId> id(nodes.size());
      id[0] = leaves[i];
      for (NodeId x = 1; x < nodes.size(); ++x) {
        id[x] = static_cast<NodeId>(expected.size());
        expected.push_back({nodes[x].maps_to, id[nodes[x].parent],
                            base_nodes[leaves[i]].depth + nodes[x].depth});
      }
    }
    const TreeView merged = base.attach(attachments);
    EXPECT_EQ(merged.serialize(), TreeView::from_nodes(expected).serialize())
        << "trial " << trial;
    for (NodeId x = 0; x < merged.size(); ++x)
      EXPECT_EQ(merged.depth(x), expected[x].depth);
    EXPECT_EQ(merged.size(), attached_size(base.words(), attachments));
  }
}

/// Algorithm 1 / Definition 2.4 written directly: recursive, on an explicit
/// node structure, returning the pruned tree in preorder (each node's kept
/// children in prune order).
struct RefTree {
  VertexId vertex = 0;
  std::vector<RefTree> children;
  std::size_t size() const {
    std::size_t total = 1;
    for (const RefTree& c : children) total += c.size();
    return total;
  }
};

RefTree reference_prune(const TreeView& t, NodeId x, std::size_t k) {
  RefTree out{t.vertex_of(x), {}};
  const auto kids = t.children(x);
  if (kids.size() <= k) return out;  // at most k children: the root alone
  std::vector<std::pair<RefTree, NodeId>> pruned;
  for (NodeId c : kids) pruned.emplace_back(reference_prune(t, c, k), c);
  std::sort(pruned.begin(), pruned.end(), [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size())
      return a.first.size() > b.first.size();
    if (a.first.vertex != b.first.vertex)
      return a.first.vertex < b.first.vertex;
    return a.second < b.second;
  });
  for (std::size_t i = k; i < pruned.size(); ++i)
    out.children.push_back(std::move(pruned[i].first));
  return out;
}

void flatten(const RefTree& t, NodeId parent, std::uint32_t depth,
             std::vector<TreeView::Node>& out) {
  const auto id = static_cast<NodeId>(out.size());
  out.push_back({t.vertex, parent, depth});
  for (const RefTree& c : t.children) flatten(c, id, depth + 1, out);
}

TEST(TreeViewProperty, LocalPruneMatchesRecursiveReference) {
  util::SplitRng rng(14);
  for (std::size_t k : {1u, 2u, 3u}) {
    for (int trial = 0; trial < 40; ++trial) {
      // Few vertices, so equal-size siblings often tie on the vertex too.
      const auto nodes = random_nodes(rng, 1 + rng.next_below(400),
                                      1 + trial % 6, 1 + trial % 30);
      const TreeView t = TreeView::from_nodes(nodes);
      std::vector<TreeView::Node> expected;
      flatten(reference_prune(t, 0, k), TreeView::kNoNode, 0, expected);
      const TreeView pruned = local_prune(t, k);
      EXPECT_EQ(pruned.serialize(), TreeView::from_nodes(expected).serialize())
          << "k=" << k << " trial " << trial;
      EXPECT_TRUE(pruned.structurally_sound());
    }
  }
}

TEST(TreeViewProperty, PrunerScratchIsReusableAcrossTrees) {
  // One LocalPruner over many trees of varying sizes gives the same words
  // as a fresh pruner per tree.
  util::SplitRng rng(15);
  LocalPruner shared;
  for (int trial = 0; trial < 60; ++trial) {
    const TreeView t = TreeView::from_nodes(
        random_nodes(rng, 1 + rng.next_below(200), 1 + trial % 4, 40));
    const std::size_t k = 1 + trial % 3;
    const auto words = shared.prune(t.words(), k);
    EXPECT_EQ(std::vector<TreeView::Word>(words.begin(), words.end()),
              local_prune(t, k).serialize())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace arbor::core
