// End-to-end tests for Theorem 1.2 (MPC coloring): properness, palette
// size O(λ log log n), the vertex-partition path, determinism, and the
// block/tail round accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "util/assert.hpp"
#include "core/coloring_mpc.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;

mpc::MpcContext make_ctx(const Graph& g, mpc::RoundLedger*& ledger_out,
                         double delta = 0.6) {
  const auto cfg = mpc::ClusterConfig::for_problem(
      g.num_vertices(), g.num_edges(), delta);
  static thread_local std::vector<std::unique_ptr<mpc::RoundLedger>> keep;
  keep.push_back(std::make_unique<mpc::RoundLedger>(cfg));
  ledger_out = keep.back().get();
  return mpc::MpcContext(cfg, ledger_out);
}

TEST(MpcColor, ProperOnForestUnions) {
  util::SplitRng rng(1);
  for (std::size_t lambda : {1u, 2u, 4u}) {
    const Graph g = graph::forest_union(600, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const MpcColoringResult result = mpc_color(g, {}, ctx);
    const auto check = graph::check_coloring(g, result.colors);
    EXPECT_TRUE(check.proper) << "λ=" << lambda;
    EXPECT_LE(check.colors_used, result.palette_size);
  }
}

TEST(MpcColor, PaletteIsLambdaLogLogShaped) {
  util::SplitRng rng(2);
  for (std::size_t lambda : {1u, 2u, 4u, 8u}) {
    const Graph g = graph::forest_union(800, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const MpcColoringResult result = mpc_color(g, {}, ctx);
    const double loglog =
        std::log2(std::log2(static_cast<double>(g.num_vertices())));
    EXPECT_LE(static_cast<double>(result.palette_size),
              3.0 * 24.0 * static_cast<double>(lambda) * loglog)
        << "λ=" << lambda;
  }
}

TEST(MpcColor, StarUsesFewColorsDespiteHugeDegree) {
  // The paper's motivating example: Δ = n-1 but λ = 1, so the palette must
  // stay tiny even though a Δ-based algorithm would use ~n colors.
  const Graph g = graph::star(2000);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  EXPECT_LE(result.palette_size, 64u);  // vs Δ+1 = 2000
}

TEST(MpcColor, HighArboricityTakesVertexPartitionPath) {
  const Graph g = graph::clique(200);  // λ = 100
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_GT(result.parts, 1u);
  const auto check = graph::check_coloring(g, result.colors);
  EXPECT_TRUE(check.proper);
  // A clique needs ≥ n colors; sanity: palette covers it but stays O(n).
  EXPECT_GE(result.palette_size, 200u);
  EXPECT_LE(result.palette_size, 200u * 24u);
}

TEST(MpcColor, GnmProper) {
  util::SplitRng rng(3);
  const Graph g = graph::gnm(1000, 4000, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
}

TEST(MpcColor, DeterministicForFixedSeed) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(400, 3, rng);
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  const auto r1 = mpc_color(g, {}, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  const auto r2 = mpc_color(g, {}, c2);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(l1->total_rounds(), l2->total_rounds());
}

TEST(MpcColor, SeedChangesColoring) {
  util::SplitRng rng(5);
  const Graph g = graph::gnm(500, 1500, rng);
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  ColoringParams p1;
  p1.seed = 111;
  const auto r1 = mpc_color(g, p1, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  ColoringParams p2;
  p2.seed = 222;
  const auto r2 = mpc_color(g, p2, c2);
  EXPECT_NE(r1.colors, r2.colors);
  EXPECT_TRUE(graph::check_coloring(g, r1.colors).proper);
  EXPECT_TRUE(graph::check_coloring(g, r2.colors).proper);
}

TEST(MpcColor, BlockAndTailAccountingPopulated) {
  util::SplitRng rng(6);
  const Graph g = graph::forest_union(5000, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  // A graph with > tail_threshold layers must have used at least one block.
  EXPECT_GE(result.blocks, 1u);
  EXPECT_GT(result.local_rounds_replayed, 0u);
  EXPECT_GT(ledger->rounds_by_label().count("color.block_gather"), 0u);
}

TEST(MpcColor, EmptyAndEdgelessGraphs) {
  mpc::RoundLedger* ledger = nullptr;
  const Graph none = graph::GraphBuilder(0).build();
  auto c0 = make_ctx(none, ledger);
  EXPECT_TRUE(mpc_color(none, {}, c0).colors.empty());

  const Graph isolated = graph::GraphBuilder(7).build();
  auto c1 = make_ctx(isolated, ledger);
  const auto result = mpc_color(isolated, {}, c1);
  EXPECT_TRUE(graph::check_coloring(isolated, result.colors).proper);
}

TEST(MpcColor, PaletteFactorIsHonored) {
  util::SplitRng rng(7);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  ColoringParams params;
  params.palette_factor = 5.0;
  const MpcColoringResult result = mpc_color(g, params, ctx);
  EXPECT_TRUE(graph::check_coloring(g, result.colors).proper);
  EXPECT_GE(result.palette_size, 5u * result.layering_outdegree);
}

// ---- Golden pin: the coloring hot path must stay bit-identical. ----
//
// Values recorded from the hash-container implementation of the cone gauge,
// the layer palettes and Graph::induced; any rewrite of those must
// reproduce colors, cone gauge, block count and ledger exactly.

struct Golden {
  std::uint64_t colors_hash = 0;
  std::size_t max_sampled_cone_nodes = 0;
  std::size_t blocks = 0;
  std::size_t total_rounds = 0;
  std::size_t peak_local_words = 0;
};

std::uint64_t colors_hash(const std::vector<graph::Color>& colors) {
  std::uint64_t h = util::mix64(colors.size());
  for (graph::Color c : colors) h = util::hash_combine(h, c);
  return h;
}

void expect_golden(const Graph& g, const Golden& want,
                   std::size_t* parts_out = nullptr) {
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcColoringResult result = mpc_color(g, {}, ctx);
  ASSERT_TRUE(graph::check_coloring(g, result.colors).proper);
  EXPECT_EQ(colors_hash(result.colors), want.colors_hash);
  EXPECT_EQ(result.max_sampled_cone_nodes, want.max_sampled_cone_nodes);
  EXPECT_EQ(result.blocks, want.blocks);
  EXPECT_EQ(ledger->total_rounds(), want.total_rounds);
  EXPECT_EQ(ledger->peak_local_words(), want.peak_local_words);
  if (parts_out != nullptr) *parts_out = result.parts;
}

TEST(MpcColorGolden, ForestUnion) {
  util::SplitRng rng(41);
  const Graph g = graph::forest_union(5000, 2, rng);
  expect_golden(g, {14720400743286260775ULL, 15, 3, 52, 15});
}

TEST(MpcColorGolden, BarabasiAlbert) {
  util::SplitRng rng(42);
  const Graph g = graph::barabasi_albert(5000, 4, rng);
  expect_golden(g, {12861968543160172654ULL, 1396, 4, 85, 1396});
}

// Every part stays under the tail threshold (no blocks, no cone gauge), so
// this pins the per-part palettes and induced subgraphs of Lemma 2.2.
TEST(MpcColorGolden, PlantedCliqueVertexPartition) {
  util::SplitRng rng(43);
  const Graph g = graph::planted_clique(5000, 10000, 120, rng);
  std::size_t parts = 0;
  expect_golden(g, {17065311185975988159ULL, 0, 0, 7, 0}, &parts);
  EXPECT_GT(parts, 1u);  // the Lemma 2.2 path, not the single-part one
}

}  // namespace
}  // namespace arbor::core
