// End-to-end tests for Theorem 1.1 (MPC orientation): validity, out-degree
// quality, the high-arboricity edge-partition path, and memory/round
// accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "baselines/be08_mpc.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/arboricity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mpc/ledger.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace arbor::core {
namespace {

using graph::Graph;
using graph::VertexId;

mpc::MpcContext make_ctx(const Graph& g, mpc::RoundLedger*& ledger_out,
                         double delta = 0.6) {
  const auto cfg = mpc::ClusterConfig::for_problem(
      g.num_vertices(), g.num_edges(), delta);
  static thread_local std::vector<std::unique_ptr<mpc::RoundLedger>> keep;
  keep.push_back(std::make_unique<mpc::RoundLedger>(cfg));
  ledger_out = keep.back().get();
  return mpc::MpcContext(cfg, ledger_out);
}

TEST(MpcOrient, OutdegreeWithinBoundOnForestUnions) {
  util::SplitRng rng(1);
  for (std::size_t lambda : {1u, 2u, 4u, 8u}) {
    const Graph g = graph::forest_union(800, lambda, rng);
    mpc::RoundLedger* ledger = nullptr;
    auto ctx = make_ctx(g, ledger);
    const OrientationParams params;
    const MpcOrientationResult result = mpc_orient(g, params, ctx);
    const std::size_t measured = result.orientation.max_outdegree(g);
    EXPECT_LE(measured, result.outdegree_bound) << "λ=" << lambda;
    // O(λ log log n) with small constants.
    const double loglog =
        std::log2(std::log2(static_cast<double>(g.num_vertices())));
    EXPECT_LE(static_cast<double>(measured),
              24.0 * static_cast<double>(lambda) * loglog) << "λ=" << lambda;
  }
}

TEST(MpcOrient, EveryEdgeOrientedExactlyOnce) {
  util::SplitRng rng(2);
  const Graph g = graph::gnm(300, 900, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  // Sum of out-degrees equals m: every edge has exactly one tail.
  const auto out = result.orientation.outdegrees(g);
  std::size_t total = 0;
  for (std::size_t d : out) total += d;
  EXPECT_EQ(total, g.num_edges());
}

TEST(MpcOrient, SinglePartPathUsesCompleteLayering) {
  util::SplitRng rng(3);
  const Graph g = graph::forest_union(400, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_EQ(result.parts, 1u);
  EXPECT_TRUE(result.layering.is_complete());
  // The orientation must agree with the layering rule.
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Layer lu = result.layering.layer[edges[i].u];
    const Layer lv = result.layering.layer[edges[i].v];
    EXPECT_EQ(result.orientation.oriented_towards_v(i), lu <= lv);
  }
}

TEST(MpcOrient, HighArboricityTakesPartitionPath) {
  // K_200: λ = 100 ≫ 4·log2(200) ≈ 31 → edge partitioning engages.
  const Graph g = graph::clique(200);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_GT(result.parts, 1u);
  const std::size_t measured = result.orientation.max_outdegree(g);
  EXPECT_LE(measured, result.outdegree_bound);
  // Quality: within O(log log n) of λ with generous constant; λ(K_200)=100.
  EXPECT_LE(measured, 100u * 24u);
  // Must beat the trivial all-one-way orientation (out-degree 199).
  EXPECT_LT(measured, 199u);
}

TEST(MpcOrient, ExplicitKOverridesEstimate) {
  util::SplitRng rng(4);
  const Graph g = graph::forest_union(300, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  OrientationParams params;
  params.k = 6;
  const MpcOrientationResult result = mpc_orient(g, params, ctx);
  EXPECT_EQ(result.k_used, 6u);
  EXPECT_LE(result.orientation.max_outdegree(g), result.outdegree_bound);
}

TEST(MpcOrient, EstimateDensityParameterSandwich) {
  util::SplitRng rng(5);
  for (std::size_t lambda : {1u, 3u, 6u}) {
    const Graph g = graph::forest_union(400, lambda, rng);
    const std::size_t k = estimate_density_parameter(g);
    EXPECT_GE(k, std::max<std::size_t>(lambda / 2, 1));  // ≥ λ/2 loosely
    EXPECT_LE(k, 2 * lambda);                            // ≤ 2λ-1 exactly
  }
}

TEST(MpcOrient, FewerRoundsThanBe08AtScale) {
  util::SplitRng rng(6);
  const Graph g = graph::forest_union(1 << 15, 2, rng);

  mpc::RoundLedger* ours_ledger = nullptr;
  auto ours_ctx = make_ctx(g, ours_ledger);
  (void)mpc_orient(g, {}, ours_ctx);

  mpc::RoundLedger* be_ledger = nullptr;
  auto be_ctx = make_ctx(g, be_ledger);
  (void)baselines::be08_orient(g, 0, 0.2, be_ctx);

  // The headline: at this size our poly(log log n) round count should not
  // exceed BE08's Θ(log n)·(constant) — with practical constants we expect
  // the same order, so only assert we are not dramatically worse, and that
  // BE08 grows with log n while we stay sub-logarithmic (cross-checked in
  // the pipeline growth test and bench E1).
  EXPECT_LT(ours_ledger->total_rounds(),
            6 * be_ledger->total_rounds() + 200);
}

TEST(MpcOrient, MemoryEnvelopeRespected) {
  util::SplitRng rng(7);
  const Graph g = graph::forest_union(2000, 2, rng);
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger, /*delta=*/0.7);
  OrientationParams params;
  // Keep the exponentiation budget within the machine size.
  params.pipeline.budget_cap = ctx.config().words_per_machine / 4;
  (void)mpc_orient(g, params, ctx);
  EXPECT_EQ(ledger->local_violations(), 0u)
      << "peak local " << ledger->peak_local_words() << " vs S="
      << ledger->config().words_per_machine;
}

TEST(MpcOrient, EmptyAndEdgelessGraphs) {
  mpc::RoundLedger* ledger = nullptr;
  const Graph g = graph::GraphBuilder(10).build();
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  EXPECT_EQ(result.orientation.max_outdegree(g), 0u);
}

TEST(MpcOrient, DeterministicForFixedSeed) {
  util::SplitRng rng(8);
  const Graph g = graph::clique(150);  // partition path, uses the seed
  mpc::RoundLedger* l1 = nullptr;
  auto c1 = make_ctx(g, l1);
  const auto r1 = mpc_orient(g, {}, c1);
  mpc::RoundLedger* l2 = nullptr;
  auto c2 = make_ctx(g, l2);
  const auto r2 = mpc_orient(g, {}, c2);
  for (std::size_t i = 0; i < g.num_edges(); ++i)
    EXPECT_EQ(r1.orientation.oriented_towards_v(i),
              r2.orientation.oriented_towards_v(i));
  EXPECT_EQ(l1->total_rounds(), l2->total_rounds());
}

// ---- Golden pin: the layering hot path must stay bit-identical. ----
//
// Values recorded from the node-vector TreeView implementation of graph
// exponentiation and local prune (per-node children vectors, deserialize-
// then-attach, copying bundle fetch); any rewrite of those must reproduce
// the orientation, the layering statistics and the ledger exactly.

struct OrientGolden {
  std::uint64_t orientation_hash = 0;
  std::size_t outdegree_bound = 0;
  LayeringRunStats stats;
  std::size_t total_rounds = 0;
  std::size_t fetch_rounds = 0;
  std::size_t peak_local_words = 0;
  std::size_t peak_global_words = 0;
};

std::uint64_t orientation_hash(const Graph& g, const graph::Orientation& o) {
  std::uint64_t h = util::mix64(g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i)
    h = util::hash_combine(h, o.oriented_towards_v(i) ? 1u : 0u);
  return h;
}

void expect_orient_golden(const Graph& g, const OrientGolden& want,
                          std::size_t* parts_out = nullptr) {
  mpc::RoundLedger* ledger = nullptr;
  auto ctx = make_ctx(g, ledger);
  const MpcOrientationResult result = mpc_orient(g, {}, ctx);
  ASSERT_LE(result.orientation.max_outdegree(g), result.outdegree_bound);
  EXPECT_EQ(orientation_hash(g, result.orientation), want.orientation_hash);
  EXPECT_EQ(result.outdegree_bound, want.outdegree_bound);
  EXPECT_EQ(result.stats.phases, want.stats.phases);
  EXPECT_EQ(result.stats.partial_iterations, want.stats.partial_iterations);
  EXPECT_EQ(result.stats.fallback_peel_rounds,
            want.stats.fallback_peel_rounds);
  EXPECT_EQ(result.stats.escalations, want.stats.escalations);
  EXPECT_EQ(result.stats.max_budget_used, want.stats.max_budget_used);
  EXPECT_EQ(ledger->total_rounds(), want.total_rounds);
  const auto& by_label = ledger->rounds_by_label();
  const auto fetch = by_label.find("exponentiate.fetch");
  ASSERT_NE(fetch, by_label.end());
  EXPECT_EQ(fetch->second, want.fetch_rounds);
  EXPECT_EQ(ledger->peak_local_words(), want.peak_local_words);
  EXPECT_EQ(ledger->peak_global_words(), want.peak_global_words);
  if (parts_out != nullptr) *parts_out = result.parts;
}

TEST(MpcOrientGolden, ForestUnion) {
  util::SplitRng rng(41);
  const Graph g = graph::forest_union(5000, 4, rng);
  expect_orient_golden(
      g, {3300183149675429268ULL, 25, {1, 1, 6, 0, 125}, 28, 17, 76, 324792});
}

TEST(MpcOrientGolden, BarabasiAlbert) {
  util::SplitRng rng(42);
  const Graph g = graph::barabasi_albert(5000, 4, rng);
  expect_orient_golden(
      g, {14041752193641128807ULL, 20, {1, 2, 6, 0, 64}, 36, 23, 121, 324870});
}

// k is far above 4·log2(n), so this pins the Lemma 2.1 edge partition: every
// part runs its own exponentiation on a small subgraph.
TEST(MpcOrientGolden, PlantedCliqueEdgePartition) {
  util::SplitRng rng(43);
  const Graph g = graph::planted_clique(5000, 10000, 120, rng);
  std::size_t parts = 0;
  expect_orient_golden(
      g, {15279623660670654029ULL, 216, {1, 1, 7, 0, 0}, 20, 10, 49, 288842},
      &parts);
  EXPECT_GT(parts, 1u);  // the Lemma 2.1 path, not the single-part one
}

}  // namespace
}  // namespace arbor::core
