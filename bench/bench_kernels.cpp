// Microbenchmarks (google-benchmark) for the computational kernels:
// LocalPrune, tree attachment, the full exponentiation step, degeneracy
// peeling, list coloring, and the exact densest-subgraph oracle. These are
// wall-clock numbers for the simulator itself (the paper's claims are
// about MPC rounds, covered by E1..E10); they document what a user pays to
// run the reproduction.
#include <benchmark/benchmark.h>

#include "core/exponentiate.hpp"
#include "core/local_prune.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "local/list_coloring.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

namespace {

using namespace arbor;

graph::Graph bench_graph(std::size_t n) {
  util::SplitRng rng(123);
  return graph::gnm(n, 4 * n, rng);
}

void BM_LocalPrune(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  // A depth-2 tree at the max-degree vertex (the heaviest realistic input).
  graph::VertexId center = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(center)) center = v;
  core::TreeView tree = core::TreeView::star(center, g.neighbors(center));
  {
    std::vector<core::TreeView> stars;
    std::vector<core::TreeView::Attachment> attachments;
    const auto leaves = tree.leaves_at_depth(1);
    stars.reserve(leaves.size());
    for (auto leaf : leaves)
      stars.push_back(core::TreeView::star(tree.vertex_of(leaf),
                                           g.neighbors(tree.vertex_of(leaf))));
    for (std::size_t i = 0; i < leaves.size(); ++i)
      attachments.push_back({leaves[i], stars[i].words()});
    tree = tree.attach(attachments);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::local_prune(tree, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.size()));
}
BENCHMARK(BM_LocalPrune)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExponentiateStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  const mpc::ClusterConfig cfg{64, 4096};
  for (auto _ : state) {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    core::ExponentiateParams p{/*budget=*/64, /*prune_k=*/4, /*steps=*/2};
    benchmark::DoNotOptimize(core::exponentiate_and_local_prune(g, p, ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExponentiateStep)->Arg(1 << 10)->Arg(1 << 12);

void BM_Degeneracy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::degeneracy(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_Degeneracy)->Arg(1 << 12)->Arg(1 << 16);

void BM_ListColoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = bench_graph(n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t v = 0; v < n; ++v) keys[v] = v;
  std::vector<graph::Color> palette(g.max_degree() + 1);
  for (std::size_t c = 0; c < palette.size(); ++c)
    palette[c] = static_cast<graph::Color>(c);
  const std::vector<std::vector<graph::Color>> palettes(n, palette);
  const util::StatelessCoin coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::list_color(g, keys, palettes, coin, state.iterations()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ListColoring)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExactDensestSubgraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitRng rng(5);
  const graph::Graph g = graph::planted_clique(n, 2 * n, 24, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::exact_densest_subgraph(g));
  }
}
BENCHMARK(BM_ExactDensestSubgraph)->Arg(1 << 8)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
