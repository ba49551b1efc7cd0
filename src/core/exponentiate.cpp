#include "core/exponentiate.hpp"

#include <algorithm>
#include <cmath>

#include "core/local_prune.hpp"
#include "mpc/bundle_fetch.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::core {

namespace {

using Word = mpc::Word;
using NodeId = TreeView::NodeId;

/// The exact words of the tree stored at `offset` (its region may be longer
/// after an in-place prune).
std::span<const Word> tree_at(const std::vector<Word>& words,
                              std::size_t offset) {
  return {words.data() + offset,
          tree_words::word_count(static_cast<std::size_t>(words[offset]))};
}

/// One leaf to replace and the fetched tree replacing it: the index of its
/// target in the step's flat request list (= its slot in fetch.delivered).
struct LeafTarget {
  NodeId leaf = 0;
  std::size_t request = 0;
};

}  // namespace

ExponentiateResult exponentiate_and_local_prune(const graph::Graph& g,
                                                const ExponentiateParams& p,
                                                mpc::MpcContext& ctx) {
  ARBOR_CHECK(p.budget >= 2);
  const std::size_t n = g.num_vertices();
  const auto sqrt_budget = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(p.budget))));
  trace::Tracer& tracer = trace::Tracer::global();

  ExponentiateResult result;
  result.active.assign(n, false);

  // Initialization: star for vertices with degree < B, single node (and
  // inactive) otherwise — written straight into an exactly sized buffer.
  std::vector<std::size_t> offset(n + 1, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    result.active[v] = g.degree(v) < p.budget;
    const std::size_t nodes = result.active[v] ? g.degree(v) + 1 : 1;
    offset[v + 1] = offset[v] + tree_words::word_count(nodes);
  }
  std::vector<Word> words(offset[n]);
  for (graph::VertexId v = 0; v < n; ++v) {
    Word* out = words.data() + offset[v];
    *out++ = (offset[v + 1] - offset[v]) / 2;
    *out++ = v;
    *out++ = TreeView::kNoNode;
    if (!result.active[v]) continue;
    for (graph::VertexId w : g.neighbors(v)) {
      *out++ = w;
      *out++ = 0;
    }
  }
  ctx.charge(1, "exponentiate.init");

  // Scratch reused by every tree of every step.
  LocalPruner pruner;
  TreeIndex index;
  std::vector<NodeId> frontier;
  std::vector<std::pair<std::uint32_t, NodeId>> leaf_slots;  // (slot, leaf)
  std::vector<std::size_t> slot_fill;
  std::vector<TreeView::Attachment> attachments;
  // request_stamp[u] == stamp iff u is already in the request list being
  // built, at slot request_slot[u]; every list takes a fresh stamp, so the
  // array never needs a reset.
  std::vector<std::size_t> request_stamp(n, 0);
  std::vector<std::uint32_t> request_slot(n, 0);
  std::size_t stamp = 0;
  // Per-step arrays, sized once per call and refilled every step.
  mpc::RequestLists requests;
  requests.begin.reserve(n + 1);
  std::vector<std::size_t> targets_begin(n + 1, 0);
  std::vector<LeafTarget> targets;
  std::vector<std::span<const Word>> bundles(n);
  std::vector<std::size_t> next_offset(n + 1, 0);

  for (std::size_t step = 1; step <= p.steps; ++step) {
    ExponentiateStepStats stats;

    // ---- Local prune phase (no communication), in place. ----
    {
      trace::Span span = tracer.span("mpc", "exponentiate.prune");
      for (graph::VertexId v = 0; v < n; ++v) {
        const std::span<const Word> pruned =
            pruner.prune(tree_at(words, offset[v]), p.prune_k);
        std::copy(pruned.begin(), pruned.end(), words.begin() +
                  static_cast<std::ptrdiff_t>(offset[v]));
        if (tree_words::size(pruned) > sqrt_budget) result.active[v] = false;
      }
    }

    // ---- Exponentiation / attachment phase. ----
    // Frontier leaves sit at distance exactly 2^{step-1}. Each active
    // vertex requests its (distinct) active attachment targets in order of
    // first appearance; targets[] holds, per vertex, its frontier leaves
    // grouped by slot (leaf ids increasing within a slot).
    const auto frontier_depth =
        static_cast<std::uint32_t>(std::size_t{1} << (step - 1));
    requests.begin.assign(1, 0);
    requests.targets.clear();
    targets.clear();
    mpc::BundleFetchResult fetch;
    {
      trace::Span span = tracer.span("mpc", "exponentiate.fetch");
      for (graph::VertexId v = 0; v < n; ++v) {
        bundles[v] = tree_at(words, offset[v]);
        targets_begin[v] = targets.size();
        if (!result.active[v]) {
          requests.begin.push_back(requests.targets.size());
          continue;
        }
        const std::size_t first_request = requests.targets.size();
        ++stamp;
        frontier.clear();
        index.build(bundles[v]);
        index.leaves_at_depth(frontier_depth, frontier);
        leaf_slots.clear();
        for (NodeId leaf : frontier) {
          const graph::VertexId u = tree_words::vertex_of(bundles[v], leaf);
          if (!result.active[u]) continue;  // only active vertices expand
          if (request_stamp[u] != stamp) {
            request_stamp[u] = stamp;
            request_slot[u] =
                static_cast<std::uint32_t>(requests.targets.size() -
                                           first_request);
            requests.targets.push_back(u);
          }
          leaf_slots.emplace_back(request_slot[u], leaf);
        }
        requests.begin.push_back(requests.targets.size());
        // Counting sort by slot (stable: leaf ids stay increasing).
        const std::size_t slots = requests.targets.size() - first_request;
        slot_fill.assign(slots + 1, 0);
        for (const auto& [slot, leaf] : leaf_slots) ++slot_fill[slot + 1];
        for (std::size_t s = 0; s < slots; ++s)
          slot_fill[s + 1] += slot_fill[s];
        const std::size_t base = targets.size();
        targets.resize(base + leaf_slots.size());
        for (const auto& [slot, leaf] : leaf_slots)
          targets[base + slot_fill[slot]++] = {leaf, first_request + slot};
      }
      targets_begin[n] = targets.size();

      // Ship the pruned trees through the Lemma 4.1 primitive and attach
      // from the DELIVERED views — the attachment below never indexes
      // another vertex's tree directly, so the simulation's data flow
      // matches the distributed algorithm word-for-word.
      fetch = mpc::fetch_bundles(ctx, bundles, requests, "exponentiate.fetch");
      stats.fetch_rounds = fetch.stats.rounds_charged;
    }

    {
      trace::Span span = tracer.span("mpc", "exponentiate.attach");
      // Attached sizes are known before any word moves, so the next
      // buffer is allocated once, exactly.
      const auto attachments_of = [&](graph::VertexId v) {
        attachments.clear();
        for (std::size_t i = targets_begin[v]; i < targets_begin[v + 1]; ++i)
          attachments.push_back(
              {targets[i].leaf, fetch.delivered[targets[i].request]});
        return std::span<const TreeView::Attachment>(attachments);
      };
      for (graph::VertexId v = 0; v < n; ++v) {
        const std::size_t nodes =
            attached_size(bundles[v], attachments_of(v));
        // Claim 3.4: the budget holds by construction; enforce it.
        ARBOR_CHECK_MSG(!result.active[v] || nodes <= p.budget,
                        "tree exceeded budget B — Claim 3.4 violated");
        next_offset[v + 1] = next_offset[v] + tree_words::word_count(nodes);
        stats.max_tree_nodes = std::max(stats.max_tree_nodes, nodes);
        stats.total_tree_nodes += nodes;
        if (result.active[v]) ++stats.active_vertices;
      }
      std::vector<Word> next(next_offset[n]);
      for (graph::VertexId v = 0; v < n; ++v) {
        const std::span<Word> out(next.data() + next_offset[v],
                                  next_offset[v + 1] - next_offset[v]);
        attach_words(bundles[v], attachments_of(v), out);
        ARBOR_DCHECK(TreeView::deserialize(out).is_valid_mapping(g));
      }
      // The delivered views die with the old buffer.
      fetch = {};
      words.swap(next);
      offset.swap(next_offset);
    }

    result.max_tree_nodes =
        std::max(result.max_tree_nodes, stats.max_tree_nodes);
    // Claim 3.5 accounting: every vertex's tree lives on its machine.
    ctx.note_global_words(2 * stats.total_tree_nodes + n);
    ctx.note_local_words(2 * stats.max_tree_nodes + 1);
    result.per_step.push_back(stats);
  }

  result.words = std::move(words);
  result.offset = std::move(offset);
  return result;
}

}  // namespace arbor::core
