#include "core/partial_layering.hpp"

#include <algorithm>

#include "core/partial_layer_tree.hpp"
#include "util/assert.hpp"

namespace arbor::core {

PartialLayeringResult partial_layer_assignment(
    const graph::Graph& g, const PartialLayeringParams& p,
    mpc::MpcContext& ctx) {
  ARBOR_CHECK_MSG(p.steps > 0 && (std::size_t{1} << p.steps) > p.num_layers,
                  "Lemma 3.7 requires s > log2(L)");
  const std::size_t n = g.num_vertices();

  ExponentiateParams exp_params;
  exp_params.budget = p.budget;
  exp_params.prune_k = p.prune_k;
  exp_params.steps = p.steps;
  ExponentiateResult trees = exponentiate_and_local_prune(g, exp_params, ctx);

  // Per-vertex local peeling of the tree view with a = (s+1)·k.
  const std::size_t a = (p.steps + 1) * p.prune_k;
  // (v, layer) contributions from every tree node, then min-by-key. Each
  // pair is 2 words; this is the Algorithm 4 final line in MPC form.
  std::vector<std::pair<graph::VertexId, Layer>> contributions;
  contributions.reserve((trees.words.size() - n) / 2);
  TreePeeler peeler;
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::span<const mpc::Word> tree = trees.tree_words(v);
    const std::span<const Layer> tree_layers =
        peeler.peel(g, tree, a, p.num_layers);
    for (TreeView::NodeId x = 0; x < tree_layers.size(); ++x)
      contributions.emplace_back(tree_words::vertex_of(tree, x),
                                 tree_layers[x]);
  }

  const auto combined = ctx.aggregate_by_key<graph::VertexId, Layer>(
      std::move(contributions),
      [](Layer lhs, Layer rhs) { return std::min(lhs, rhs); },
      /*words_per_item=*/2, "partial_layering.min_project");

  PartialLayeringResult result;
  result.outdegree_bound = a;
  result.max_tree_nodes = trees.max_tree_nodes;
  result.assignment.num_layers = p.num_layers;
  result.assignment.layer.assign(n, kInfiniteLayer);
  for (const auto& [v, layer] : combined) result.assignment.layer[v] = layer;

  // Claim 3.12 is a theorem, not an assumption — verify in debug builds.
  ARBOR_DCHECK(assignment_outdegree(g, result.assignment) <= a);
  return result;
}

}  // namespace arbor::core
