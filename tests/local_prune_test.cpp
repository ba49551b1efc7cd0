// Tests for Algorithm 1 (LocalPrune): exact semantics on hand-built trees,
// plus the paper's guarantees as properties — Claim 3.1 (missing grows by
// ≤ k) and Lemma 3.2 (pruned size ≤ NumPathsIn at the root's vertex).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/assert.hpp"
#include "core/layering.hpp"
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

TEST(LocalPrune, RootWithAtMostKChildrenBecomesSingleton) {
  const Graph g = graph::star(4);
  const TreeView t = TreeView::star(0, g.neighbors(0));  // 3 children
  EXPECT_EQ(local_prune(t, 3).size(), 1u);
  EXPECT_EQ(local_prune(t, 5).size(), 1u);
}

TEST(LocalPrune, RootAboveKDropsKLargest) {
  const Graph g = graph::star(6);
  const TreeView t = TreeView::star(0, g.neighbors(0));  // 5 children
  // All child subtrees have size 1; pruning k=2 keeps 3 of them.
  const TreeView pruned = local_prune(t, 2);
  EXPECT_EQ(pruned.size(), 4u);
  EXPECT_EQ(pruned.children(0).size(), 3u);
  EXPECT_TRUE(pruned.is_valid_mapping(g));
}

TEST(LocalPrune, PrunesHeaviestSubtreesFirst) {
  // Root 0 (on a star+path graph) with three children: one child carries a
  // long chain below it (heavy), two are bare leaves. k=1 must drop the
  // heavy one... but note each child subtree is pruned FIRST, and a chain
  // node has ≤ 1 child ≤ k, so the chain collapses to a single node before
  // the root compares sizes. This is exactly Algorithm 1's bottom-up
  // semantics — verify the collapse.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();

  // Tree: root(0) -> {1, 2, 3}; 3 -> 4 -> 5.
  std::vector<TreeView::Node> nodes(6);
  nodes[0] = {0, TreeView::kNoNode, 0};
  nodes[1] = {1, 0, 1};
  nodes[2] = {2, 0, 1};
  nodes[3] = {3, 0, 1};
  nodes[4] = {4, 3, 2};
  nodes[5] = {5, 4, 3};
  const TreeView t = TreeView::from_nodes(nodes);

  const TreeView pruned = local_prune(t, 1);
  // Chain under 3 collapses (each node ≤ 1 child = k → singleton), so all
  // three child subtrees have size 1; k=1 drops one → root keeps 2.
  EXPECT_EQ(pruned.size(), 3u);
  for (NodeId x = 0; x < pruned.size(); ++x)
    EXPECT_LE(pruned.depth(x), 1u);
}

TEST(LocalPrune, DeterministicTieBreaks) {
  const Graph g = graph::star(8);
  const TreeView t = TreeView::star(0, g.neighbors(0));
  const TreeView p1 = local_prune(t, 3);
  const TreeView p2 = local_prune(t, 3);
  ASSERT_EQ(p1.size(), p2.size());
  for (NodeId x = 0; x < p1.size(); ++x)
    EXPECT_EQ(p1.vertex_of(x), p2.vertex_of(x));
  // star(8): root has 7 children (vertices 1..7), all subtrees size 1.
  // The documented order (size desc, then mapped id asc) puts 1,2,3 first,
  // so those three are dropped and {4,5,6,7} survive.
  std::set<VertexId> kept;
  for (NodeId x = 1; x < p1.size(); ++x) kept.insert(p1.vertex_of(x));
  EXPECT_EQ(kept, (std::set<VertexId>{4, 5, 6, 7}));
}

// Claim 3.1 as a property: for every surviving node,
// missing_after ≤ missing_before + k.
TEST(LocalPrune, Claim31MissingGrowsByAtMostK) {
  util::SplitRng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnm(60, 180, rng);
    // Grow a random tree view by repeated star attachment (valid by
    // construction).
    const auto start = static_cast<VertexId>(rng.next_below(60));
    TreeView t = TreeView::star(start, g.neighbors(start));
    for (int grow = 0; grow < 2; ++grow) {
      std::vector<TreeView> stars;
      std::vector<TreeView::Attachment> attachments;
      const auto leaves = t.leaves_at_depth(t.height());
      stars.reserve(leaves.size());
      for (NodeId leaf : leaves) {
        const VertexId u = t.vertex_of(leaf);
        stars.push_back(TreeView::star(u, g.neighbors(u)));
      }
      attachments.reserve(leaves.size());
      for (std::size_t i = 0; i < leaves.size(); ++i)
        attachments.push_back({leaves[i], stars[i].words()});
      t = t.attach(attachments);
      if (t.size() > 4000) break;
    }
    ASSERT_TRUE(t.is_valid_mapping(g));

    const std::size_t k = 1 + trial % 4;
    // Record missing-before keyed by (vertex path signature): we compare
    // node-wise via the pruned tree's correspondence — prune preserves node
    // identity only implicitly, so compare by matching root-to-node paths.
    // Simpler sound check: missing is determined by (maps_to, #children);
    // children only shrink during pruning, and Claim 3.1 says by ≤ k.
    const TreeView pruned = local_prune(t, k);
    ASSERT_TRUE(pruned.is_valid_mapping(g));

    // Walk both trees in parallel from the roots: children of a pruned
    // node are a subset of the original node's children (by mapped vertex).
    std::vector<std::pair<NodeId, NodeId>> stack{{0, 0}};  // (orig, pruned)
    while (!stack.empty()) {
      const auto [ox, px] = stack.back();
      stack.pop_back();
      const std::size_t missing_before = t.missing_count(g, ox);
      const std::size_t missing_after = pruned.missing_count(g, px);
      EXPECT_LE(missing_after, missing_before + k)
          << "Claim 3.1 violated (trial " << trial << ")";
      std::map<VertexId, NodeId> orig_children;
      for (NodeId c : t.children(ox))
        orig_children[t.vertex_of(c)] = c;
      for (NodeId pc : pruned.children(px)) {
        const auto it = orig_children.find(pruned.vertex_of(pc));
        ASSERT_NE(it, orig_children.end())
            << "pruned tree has a child not present in the original";
        stack.emplace_back(it->second, pc);
      }
    }
  }
}

// Lemma 3.2 as a property: with a partial layer assignment of out-degree
// d ≤ k whose root vertex has a finite layer, |pruned| ≤ NumPathsIn(root).
TEST(LocalPrune, Lemma32SizeBoundedByPathCount) {
  util::SplitRng rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::forest_union(80, 2, rng);
    const LayerAssignment ell = reference_peeling_layering(g, 8);
    ASSERT_TRUE(ell.is_complete());
    const std::size_t d = assignment_outdegree(g, ell);
    const auto paths_in = num_paths_in(g, ell);

    const auto start = static_cast<VertexId>(rng.next_below(80));
    TreeView t = TreeView::star(start, g.neighbors(start));
    // One round of star expansion to create depth-2 trees.
    {
      std::vector<TreeView> stars;
      std::vector<TreeView::Attachment> attachments;
      const auto leaves = t.leaves_at_depth(1);
      stars.reserve(leaves.size());
      for (NodeId leaf : leaves) {
        const VertexId u = t.vertex_of(leaf);
        stars.push_back(TreeView::star(u, g.neighbors(u)));
      }
      for (std::size_t i = 0; i < leaves.size(); ++i)
        attachments.push_back({leaves[i], stars[i].words()});
      t = t.attach(attachments);
    }

    const std::size_t k = std::max<std::size_t>(d, 1);
    const TreeView pruned = local_prune(t, k);
    EXPECT_LE(pruned.size(), paths_in[start])
        << "Lemma 3.2 violated at vertex " << start << " (trial " << trial
        << ")";
  }
}

}  // namespace
}  // namespace arbor::core
