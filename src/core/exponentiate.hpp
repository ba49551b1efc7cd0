// Algorithm 2: ExponentiateAndLocalPrune.
//
// Every vertex v maintains a rooted tree T_v with a valid mapping whose
// root maps to v, within a node budget B. Each of the s steps:
//  1. Local prune (Algorithm 1) with parameter k; a vertex whose pruned
//     tree exceeds √B nodes goes inactive (its tree stops expanding).
//  2. Graph exponentiation: every active v replaces the leaves at distance
//     exactly 2^{i-1} from its root that map to active vertices with those
//     vertices' pruned trees (Definition 2.5) — doubling the tree's reach.
// Invariants maintained (and unit-tested): the mapping stays valid
// (Claim 3.3) and |T_v| ≤ B (Claim 3.4). MPC cost: O(s) rounds with
// O(n^δ + B) local and O(nB + m) global memory (Claim 3.5); the tree
// shipping in step 2 is executed through the Lemma 4.1 bundle-fetch
// primitive so rounds and footprints are charged from real data volumes.
//
// Memory layout. All n trees of a step live back to back in one word
// buffer, each in the TreeView wire layout [size, maps_to_0, parent_0, ...]
// (tree_view.hpp); T_v starts at offset[v]. Local prune rewrites each tree
// in place (a pruned tree is never larger). The bundles handed to the
// Lemma 4.1 fetch are spans of that buffer, and the fetch delivers views
// of them, so the received trees are read straight from the owners' words:
// they stay valid until the step's buffer is replaced. Attachment then
// writes every tree into a new buffer sized exactly from the known sizes
// (|T_v| + Σ(|T_u| - 1) over the attached trees) and the old one is freed.
// The per-vertex index arrays (offsets, bundle spans, request lists) are
// allocated once per call and refilled every step; nothing is kept between
// calls. Each step opens three trace spans, exponentiate.prune,
// exponentiate.fetch and exponentiate.attach.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/tree_view.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct ExponentiateParams {
  std::size_t budget = 256;  ///< B — max tree nodes per vertex
  std::size_t prune_k = 4;   ///< k — subtrees dropped per node per prune
  std::size_t steps = 4;     ///< s — exponentiation steps
};

struct ExponentiateStepStats {
  std::size_t active_vertices = 0;
  std::size_t max_tree_nodes = 0;
  std::size_t total_tree_nodes = 0;
  std::size_t fetch_rounds = 0;
};

struct ExponentiateResult {
  /// Every T_v^{(s)}, back to back in TreeView wire layout;
  /// T_v = words[offset[v] .. offset[v + 1]).
  std::vector<mpc::Word> words;
  std::vector<std::size_t> offset;
  std::vector<bool> active;  ///< activity after the final step
  std::vector<ExponentiateStepStats> per_step;
  std::size_t max_tree_nodes = 0;

  std::size_t num_trees() const noexcept { return offset.size() - 1; }
  std::span<const mpc::Word> tree_words(graph::VertexId v) const {
    return {words.data() + offset[v], offset[v + 1] - offset[v]};
  }
  /// T_v as an indexed TreeView (a copy; tests and debug checks).
  TreeView tree(graph::VertexId v) const {
    return TreeView::deserialize(tree_words(v));
  }
};

ExponentiateResult exponentiate_and_local_prune(const graph::Graph& g,
                                                const ExponentiateParams& p,
                                                mpc::MpcContext& ctx);

}  // namespace arbor::core
