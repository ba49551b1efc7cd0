// Theorem 1.2: the end-to-end scalable-MPC coloring algorithm.
//
// Pipeline (paper §4):
//  1. if k = Θ(λ) exceeds Θ(log n), randomly partition the VERTICES into
//     ⌈k/log n⌉ parts (Lemma 2.2) and color each part with a disjoint
//     palette — parts run in parallel, cross-part edges are bichromatic for
//     free;
//  2. per part: compute the complete layering of Lemma 3.15 (out-degree
//     d = O(λ log log n)), then color layer by layer from the TOP (highest
//     layer first) with palette size 3d: a vertex avoids the committed
//     colors of its ≤ d higher-or-equal-layer neighbors and list-colors the
//     ≤ d-degree graph induced by its own layer (degree+1 list coloring,
//     palette slack 2d);
//  3. MPC speed-up: instead of paying one MPC round per LOCAL round, whole
//     BLOCKS of layers are colored at once. Each node in a block gathers —
//     via directed graph exponentiation along non-decreasing-layer edges
//     (the Lemma 4.1 primitive, O(log R) rounds for reach R) — everything
//     that can influence its color, then replays the LOCAL algorithm
//     locally. Replays agree across machines because all coins come from a
//     StatelessCoin keyed by (layer, vertex, trial) — see
//     local/list_coloring.hpp. Once the remaining top layer index falls
//     below the tail threshold (paper: Θ(log^{2.67} log n)), blocks stop
//     paying off and the LOCAL algorithm runs directly, one MPC round per
//     LOCAL round.
//
// Cone-size accounting: the influence cone of v is its reachable set along
// paths with non-decreasing layers inside the block, up to the radius the
// replay realized (its LOCAL rounds plus one hop per layer), plus one word
// per edge into a higher, already-colored layer. We measure cones on a
// vertex sample per block (`cone_sample`; exact cones for every vertex
// would cost more than the coloring itself) and gauge the local-memory
// envelope from the sample maximum; E10 sweeps this. The gauge is a
// level-by-level BFS over one scratch per part — a visited bitset of ⌈n/64⌉
// words and a vertex-id queue, cleared by walking the queue — so a sample
// costs O(cone volume) and never O(n). The trace attributes it to the
// `color.cone_gauge` span, and each layer's palettes + induced subgraph +
// list coloring to `color.layer`, both nested under `coloring`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/density_estimate.hpp"
#include "core/layering_pipeline.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "mpc/primitives.hpp"

namespace arbor::core {

struct ColoringParams {
  std::size_t k = 0;  ///< density parameter; 0 → estimate per `estimator`
  KEstimator estimator = KEstimator::kDegeneracyOracle;
  PipelineParams pipeline = PipelineParams::practical(1);
  double palette_factor = 3.0;      ///< palette = ⌈f·d⌉ colors (paper: 3d)
  std::size_t trials_per_layer = 64;///< LOCAL round cap per layer
  double high_k_factor = 4.0;       ///< vertex partition when k > f·log2 n
  std::size_t tail_threshold = 4;   ///< direct LOCAL below this layer index
  double block_fraction = 0.25;     ///< block width ≈ max(1, f·j)
  std::size_t cone_sample = 64;     ///< cones measured per block
  std::uint64_t seed = 0xc0105ULL;
};

struct MpcColoringResult {
  std::vector<graph::Color> colors;
  std::size_t palette_size = 0;  ///< total palette budget across parts
  std::size_t parts = 1;
  std::size_t k_used = 0;
  std::size_t layering_outdegree = 0;  ///< measured d of the layering
  std::size_t blocks = 0;              ///< gather-and-replay phases
  std::size_t local_rounds_replayed = 0;  ///< LOCAL rounds inside cones
  std::size_t tail_mpc_rounds = 0;        ///< direct-simulation rounds
  std::size_t max_sampled_cone_nodes = 0;
};

MpcColoringResult mpc_color(const graph::Graph& g,
                            const ColoringParams& params,
                            mpc::MpcContext& ctx);

}  // namespace arbor::core
