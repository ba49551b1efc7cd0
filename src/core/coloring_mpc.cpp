#include "core/coloring_mpc.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/density_estimate.hpp"
#include "core/orientation_mpc.hpp"
#include "core/partitioning.hpp"
#include "local/list_coloring.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::core {

namespace {

constexpr graph::Color kUncolored = 0xffffffffu;

/// Scratch for the cone gauge, reused by every sample and block of one
/// color_single_part call. set_block() indexes a block once: per member,
/// the neighbors it can influence inside the block (layer in [ℓ(v),
/// block_hi]) as a flat list of member indices, and the count of its
/// boundary neighbors above block_hi. Every sample's BFS then walks only
/// those lists — a hub's full adjacency is read once per block, not once
/// per sample. The visited bitset over member indices and the FIFO are
/// clean between samples (the bitset is cleared by walking the queue).
class ConeGauge {
 public:
  explicit ConeGauge(std::size_t n) : member_index_(n, kOutside) {}

  /// `members` must be every vertex whose layer lies in [block_lo,
  /// block_hi]. Influence flows along non-decreasing layers, so from a
  /// member v (ℓ(v) ≥ block_lo) it reaches either members or vertices
  /// above the block; nothing below block_lo is ever looked at.
  void set_block(const graph::Graph& g, const LayerAssignment& layering,
                 std::span<const graph::VertexId> members, Layer block_hi) {
    for (graph::VertexId v : members_) member_index_[v] = kOutside;
    members_.assign(members.begin(), members.end());
    for (std::size_t i = 0; i < members_.size(); ++i)
      member_index_[members_[i]] = static_cast<std::uint32_t>(i);
    influence_begin_.assign(1, 0);
    influence_.clear();
    boundary_.resize(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const graph::VertexId v = members_[i];
      const Layer lv = layering.layer[v];
      std::size_t above = 0;
      for (graph::VertexId w : g.neighbors(v)) {
        const Layer lw = layering.layer[w];
        if (lw < lv) continue;
        if (lw > block_hi) {
          ++above;
          continue;
        }
        ARBOR_CHECK_MSG(member_index_[w] != kOutside,
                        "cone gauge: block members incomplete");
        influence_.push_back(member_index_[w]);
      }
      influence_begin_.push_back(influence_.size());
      boundary_[i] = above;
    }
    visited_.assign((members_.size() + 63) / 64, 0);
  }

  /// Size (in tree-of-influence nodes) of member `start`'s cone: members
  /// reachable along paths whose layers never decrease, up to `radius`
  /// hops, plus the immediate boundary neighbors in layers above the block
  /// (their colors are inputs to the replay), counted once per edge.
  std::size_t measure(graph::VertexId start, std::size_t radius) {
    ARBOR_CHECK(member_index_[start] != kOutside);
    std::size_t boundary = 0;
    visit(member_index_[start]);
    std::size_t level_begin = 0;
    for (std::size_t dist = 0; dist < radius && level_begin < queue_.size();
         ++dist) {
      const std::size_t level_end = queue_.size();
      for (std::size_t q = level_begin; q < level_end; ++q) {
        const std::uint32_t i = queue_[q];
        boundary += boundary_[i];  // one word of color per boundary edge
        for (std::size_t e = influence_begin_[i]; e < influence_begin_[i + 1];
             ++e)
          visit(influence_[e]);
      }
      level_begin = level_end;
    }
    const std::size_t discovered = queue_.size();
    for (std::uint32_t i : queue_) visited_[i >> 6] = 0;
    queue_.clear();
    return discovered + boundary;
  }

 private:
  static constexpr std::uint32_t kOutside = 0xffffffffu;

  void visit(std::uint32_t i) {
    std::uint64_t& word = visited_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (word & bit) return;
    word |= bit;
    queue_.push_back(i);
  }

  std::vector<std::uint32_t> member_index_;  // per vertex; kOutside if none
  std::vector<graph::VertexId> members_;
  std::vector<std::size_t> influence_begin_;
  std::vector<std::uint32_t> influence_;
  std::vector<std::size_t> boundary_;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint32_t> queue_;
};

struct LayerColoringOutcome {
  std::size_t local_rounds = 0;
};

/// Color the vertices of one layer given the committed colors of all
/// strictly higher layers. Palette: [palette_base, palette_base+C) minus
/// higher-layer neighbor colors. Writes into `colors`.
LayerColoringOutcome color_one_layer(
    const graph::Graph& g, const LayerAssignment& layering, Layer j,
    const std::vector<graph::VertexId>& members, graph::Color palette_base,
    std::size_t palette_count, const std::vector<std::uint64_t>& global_keys,
    const util::StatelessCoin& coin, std::size_t trials,
    std::vector<graph::Color>& colors) {
  LayerColoringOutcome outcome;
  if (members.empty()) return outcome;

  trace::Span layer_span = trace::Tracer::global().span("mpc", "color.layer");
  const auto sub = g.induced(members);
  std::vector<std::vector<graph::Color>> palettes(members.size());
  std::vector<std::uint64_t> keys(members.size());
  // forbidden_by[c] == i + 1 iff color palette_base + c is taken by a
  // higher-layer neighbor of member i; the stamps never need a reset.
  std::vector<std::uint32_t> forbidden_by(palette_count, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const graph::VertexId v = sub.to_original[i];
    keys[i] = global_keys[v];
    const auto stamp = static_cast<std::uint32_t>(i + 1);
    std::size_t forbidden = 0;
    for (graph::VertexId w : g.neighbors(v)) {
      if (layering.layer[w] <= j || colors[w] == kUncolored) continue;
      const std::size_t c = colors[w] - palette_base;
      if (c < palette_count && forbidden_by[c] != stamp) {
        forbidden_by[c] = stamp;
        ++forbidden;
      }
    }
    palettes[i].reserve(palette_count - forbidden);
    for (std::size_t c = 0; c < palette_count; ++c) {
      if (forbidden_by[c] != stamp)
        palettes[i].push_back(static_cast<graph::Color>(palette_base + c));
    }
  }

  const local::ListColoringResult colored = local::list_color(
      sub.graph, keys, palettes, coin, /*phase_tag=*/j, /*max_rounds=*/trials);
  ARBOR_CHECK_MSG(colored.complete,
                  "layer list-coloring did not converge — raise trials");
  for (std::size_t i = 0; i < members.size(); ++i)
    colors[sub.to_original[i]] = colored.colors[i];
  outcome.local_rounds = colored.rounds;
  return outcome;
}

struct SinglePartResult {
  std::vector<graph::Color> colors;
  std::size_t palette_size = 0;
  std::size_t layering_outdegree = 0;
  std::size_t blocks = 0;
  std::size_t local_rounds_replayed = 0;
  std::size_t tail_mpc_rounds = 0;
  std::size_t max_sampled_cone_nodes = 0;
};

/// Color one low-arboricity (sub)graph. `global_keys[v]` gives the stable
/// coin identity of vertex v (original ids when g is an induced part).
SinglePartResult color_single_part(const graph::Graph& g,
                                   const ColoringParams& params,
                                   std::size_t k, graph::Color palette_base,
                                   const std::vector<std::uint64_t>&
                                       global_keys,
                                   mpc::MpcContext& ctx) {
  SinglePartResult result;
  const std::size_t n = g.num_vertices();
  result.colors.assign(n, kUncolored);
  if (n == 0) return result;

  // ---- Layering (Lemma 3.15). ----
  PipelineParams pipeline = params.pipeline;
  pipeline.k = std::max<std::size_t>(k, 1);
  const CompleteLayeringResult layering = complete_layering(g, pipeline, ctx);
  const std::size_t d = std::max<std::size_t>(
      1, assignment_outdegree(g, layering.assignment));
  ctx.charge(1, "color.measure_d");  // one aggregate to publish d
  result.layering_outdegree = d;

  const auto palette_count = static_cast<std::size_t>(
      std::ceil(params.palette_factor * static_cast<double>(d)));
  result.palette_size = palette_count;

  const util::StatelessCoin coin(params.seed);
  const Layer top = layering.assignment.num_layers;

  // Bucket vertices by layer once; layers are complete, so every vertex
  // lands in [1, top].
  std::vector<std::vector<graph::VertexId>> layer_members(top + 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    const Layer lv = layering.assignment.layer[v];
    ARBOR_CHECK(lv >= 1 && lv <= top);
    layer_members[lv].push_back(v);
  }

  util::SplitRng sample_rng(params.seed ^ 0x5a3b1e50ULL);
  ConeGauge gauge(n);

  // ---- Blocked descent with directed exponentiation. ----
  Layer j = top;
  while (j > params.tail_threshold) {
    const auto width = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               params.block_fraction * static_cast<double>(j))));
    const Layer j_lo = static_cast<Layer>(
        std::max<std::size_t>(params.tail_threshold + 1,
                              j >= width ? j - width + 1 : 1));
    ++result.blocks;

    // Gather cost: exponentiation along outgoing edges to reach radius R.
    std::vector<graph::VertexId> block_members;
    std::size_t block_words = 0;
    for (Layer layer = j_lo; layer <= j; ++layer) {
      for (graph::VertexId v : layer_members[layer]) {
        block_members.push_back(v);
        block_words += 1 + g.degree(v);
      }
    }
    std::size_t block_local_rounds = 0;
    for (Layer layer = j; layer >= j_lo && layer >= 1; --layer) {
      const LayerColoringOutcome outcome = color_one_layer(
          g, layering.assignment, layer, layer_members[layer], palette_base,
          palette_count, global_keys, coin, params.trials_per_layer,
          result.colors);
      block_local_rounds += outcome.local_rounds;
    }
    result.local_rounds_replayed += block_local_rounds;

    // Influence radius actually realized by the replay: every LOCAL round
    // propagates one hop, plus one hop per layer hand-off.
    const std::size_t radius =
        block_local_rounds + (j - j_lo + 1);
    const std::size_t per_fetch =
        2 * ctx.sort_rounds(std::max<std::size_t>(block_words, 2)) + 1;
    const auto doublings = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(radius) + 1.0)));
    ctx.charge(std::max<std::size_t>(1, doublings) * per_fetch,
               "color.block_gather");

    // Cone gauge on a sample of block vertices.
    if (!block_members.empty()) {
      trace::Span gauge_span =
          trace::Tracer::global().span("mpc", "color.cone_gauge");
      gauge.set_block(g, layering.assignment, block_members, j);
      const std::size_t samples =
          std::min(params.cone_sample, block_members.size());
      for (std::size_t i = 0; i < samples; ++i) {
        const graph::VertexId v = block_members[static_cast<std::size_t>(
            sample_rng.next_below(block_members.size()))];
        const std::size_t cone = gauge.measure(v, radius);
        result.max_sampled_cone_nodes =
            std::max(result.max_sampled_cone_nodes, cone);
      }
      ctx.note_local_words(result.max_sampled_cone_nodes);
    }

    j = j_lo - 1;
  }

  // ---- Tail: direct LOCAL simulation, one MPC round per LOCAL round. ----
  for (Layer layer = j; layer >= 1; --layer) {
    const LayerColoringOutcome outcome = color_one_layer(
        g, layering.assignment, layer, layer_members[layer], palette_base,
        palette_count, global_keys, coin, params.trials_per_layer,
        result.colors);
    result.tail_mpc_rounds += outcome.local_rounds;
    ctx.charge(outcome.local_rounds, "color.tail");
  }

  for (graph::Color c : result.colors) ARBOR_CHECK(c != kUncolored);
  return result;
}

}  // namespace

MpcColoringResult mpc_color(const graph::Graph& g,
                            const ColoringParams& params,
                            mpc::MpcContext& ctx) {
  trace::Span stage_span = trace::Tracer::global().span("mpc", "coloring");
  const std::size_t n = g.num_vertices();
  MpcColoringResult result;
  result.colors.assign(n, kUncolored);
  if (n == 0) return result;

  std::size_t k = params.k;
  if (k == 0) {
    if (params.estimator == KEstimator::kParallelGuess) {
      k = estimate_density_mpc(g, ctx).k;
    } else {
      k = estimate_density_parameter(g);
      const auto log_n = static_cast<std::size_t>(std::ceil(
          std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
      ctx.charge(1, "color.estimate_k");
      ctx.note_global_words((n + g.num_edges()) * log_n);
    }
  }
  result.k_used = k;

  std::vector<std::uint64_t> identity_keys(n);
  for (graph::VertexId v = 0; v < n; ++v) identity_keys[v] = v;

  const double log_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  const bool needs_partition =
      static_cast<double>(k) > params.high_k_factor * log_n;

  if (!needs_partition) {
    SinglePartResult part = color_single_part(g, params, k,
                                              /*palette_base=*/0,
                                              identity_keys, ctx);
    result.colors = std::move(part.colors);
    result.palette_size = part.palette_size;
    result.layering_outdegree = part.layering_outdegree;
    result.blocks = part.blocks;
    result.local_rounds_replayed = part.local_rounds_replayed;
    result.tail_mpc_rounds = part.tail_mpc_rounds;
    result.max_sampled_cone_nodes = part.max_sampled_cone_nodes;
    return result;
  }

  // ---- Lemma 2.2 path: vertex partition, disjoint palettes. ----
  util::SplitRng rng(params.seed);
  const std::size_t parts = partition_count(k, n);
  result.parts = parts;
  VertexPartition partition = random_vertex_partition(g, parts, rng);
  ctx.charge(1, "color.vertex_partition");

  graph::Color palette_base = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const graph::Graph& part_graph = partition.parts[p];
    mpc::RoundLedger sub_ledger(ctx.config());
    // Shares the parent's worker pool (one engine per pipeline run).
    mpc::MpcContext sub_ctx(ctx.config(), &sub_ledger, ctx.ensure_engine());
    std::vector<std::uint64_t> part_keys(part_graph.num_vertices());
    for (graph::VertexId sv = 0; sv < part_graph.num_vertices(); ++sv)
      part_keys[sv] = partition.to_original[p][sv];
    const std::size_t part_k = std::max<std::size_t>(
        1, estimate_density_parameter(part_graph));
    SinglePartResult part = color_single_part(part_graph, params, part_k,
                                              palette_base, part_keys,
                                              sub_ctx);
    for (graph::VertexId sv = 0; sv < part_graph.num_vertices(); ++sv)
      result.colors[partition.to_original[p][sv]] = part.colors[sv];
    palette_base += static_cast<graph::Color>(part.palette_size);
    result.layering_outdegree =
        std::max(result.layering_outdegree, part.layering_outdegree);
    result.blocks = std::max(result.blocks, part.blocks);
    result.local_rounds_replayed =
        std::max(result.local_rounds_replayed, part.local_rounds_replayed);
    result.tail_mpc_rounds =
        std::max(result.tail_mpc_rounds, part.tail_mpc_rounds);
    result.max_sampled_cone_nodes =
        std::max(result.max_sampled_cone_nodes, part.max_sampled_cone_nodes);
    if (ctx.ledger()) ctx.ledger()->absorb_parallel(sub_ledger);
  }
  result.palette_size = palette_base;

  for (graph::Color c : result.colors) ARBOR_CHECK(c != kUncolored);
  return result;
}

}  // namespace arbor::core
