#include "core/directed_exponentiation.hpp"

#include <algorithm>
#include <unordered_map>

#include "mpc/bundle_fetch.hpp"
#include "util/assert.hpp"

namespace arbor::core {

namespace {

/// Distance-annotated reach set: vertex -> exact hop distance (≤ current
/// horizon). Kept sorted by vertex for deterministic wire format.
using ReachMap = std::vector<std::pair<graph::VertexId, std::uint32_t>>;

}  // namespace

DirectedGatherResult directed_gather(const graph::Graph& g,
                                     const LayerAssignment& layering,
                                     const DirectedGatherParams& params,
                                     mpc::MpcContext& ctx) {
  ARBOR_CHECK(params.block_lo >= 1 && params.block_lo <= params.block_hi);
  ARBOR_CHECK(layering.layer.size() == g.num_vertices());
  const std::size_t n = g.num_vertices();

  DirectedGatherResult result;
  result.reachable.resize(n);
  result.overflowed.assign(n, false);

  const auto in_block = [&](graph::VertexId v) {
    const Layer l = layering.layer[v];
    return l >= params.block_lo && l <= params.block_hi &&
           l != kInfiniteLayer;
  };

  // Base maps: exact distances ≤ 1 (self + allowed influence neighbors).
  std::vector<ReachMap> reach(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!in_block(v)) continue;
    ReachMap& map = reach[v];
    map.emplace_back(v, 0);
    if (params.radius >= 1) {
      const Layer lv = layering.layer[v];
      for (graph::VertexId w : g.neighbors(v)) {
        const Layer lw = layering.layer[w];
        if (lw >= lv && lw <= params.block_hi && lw != kInfiniteLayer)
          map.emplace_back(w, 1);
      }
    }
    std::sort(map.begin(), map.end());
  }

  // Doubling with exact distances: composing two ≤h-bounded distance maps
  // by min-plus yields the exact ≤2h map, so after ⌈log2 radius⌉ fetches
  // every in-radius vertex carries its true hop count and the final filter
  // `dist ≤ radius` is exact for any radius, not just powers of two.
  std::size_t horizon = 1;
  while (horizon < params.radius) {
    ++result.doublings;
    // Every vertex's bundle is its reach map (empty outside the block) as
    // (vertex, distance) word pairs, all in one buffer; the fetch delivers
    // views of it.
    std::vector<std::size_t> offset(n + 1, 0);
    for (graph::VertexId v = 0; v < n; ++v)
      offset[v + 1] = offset[v] + 2 * reach[v].size();
    std::vector<mpc::Word> words;
    words.reserve(offset[n]);
    mpc::RequestLists requests;
    for (graph::VertexId v = 0; v < n; ++v) {
      for (const auto& [w, d] : reach[v]) {
        words.push_back(w);
        words.push_back(d);
        if (!result.overflowed[v]) requests.targets.push_back(w);
      }
      requests.begin.push_back(requests.targets.size());
    }
    std::vector<std::span<const mpc::Word>> bundles(n);
    for (graph::VertexId v = 0; v < n; ++v)
      bundles[v] = {words.data() + offset[v], offset[v + 1] - offset[v]};
    const mpc::BundleFetchResult fetch =
        mpc::fetch_bundles(ctx, bundles, requests, "directed_gather.fetch");

    for (graph::VertexId v = 0; v < n; ++v) {
      const std::span<const graph::VertexId> requested = requests.of(v);
      if (requested.empty()) continue;
      std::unordered_map<graph::VertexId, std::uint32_t> best;
      best.reserve(reach[v].size() * 2);
      for (const auto& [w, d] : reach[v]) best.emplace(w, d);
      for (std::size_t slot = 0; slot < requested.size(); ++slot) {
        const std::uint32_t via = reach[v][slot].second;
        const std::span<const mpc::Word> payload =
            fetch.delivered[requests.begin[v] + slot];
        ARBOR_CHECK(payload.size() % 2 == 0);
        for (std::size_t i = 0; i < payload.size(); i += 2) {
          const auto x = static_cast<graph::VertexId>(payload[i]);
          const auto dx = static_cast<std::uint32_t>(payload[i + 1]);
          const std::uint32_t total = via + dx;
          if (total > params.radius) continue;
          auto [it, inserted] = best.emplace(x, total);
          if (!inserted && total < it->second) it->second = total;
        }
      }
      ReachMap merged(best.begin(), best.end());
      std::sort(merged.begin(), merged.end());
      reach[v] = std::move(merged);
      if (params.max_set_words != 0 &&
          2 * reach[v].size() > params.max_set_words)
        result.overflowed[v] = true;
    }
    horizon *= 2;
  }

  for (graph::VertexId v = 0; v < n; ++v) {
    auto& out = result.reachable[v];
    out.reserve(reach[v].size());
    for (const auto& [w, d] : reach[v])
      if (d <= params.radius) out.push_back(w);
    result.max_set_size = std::max(result.max_set_size, out.size());
  }
  return result;
}

}  // namespace arbor::core
