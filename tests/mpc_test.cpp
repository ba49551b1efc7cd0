// Tests for the MPC simulation framework: config derivation, ledger
// accounting, Level-0 cluster semantics (including a real bucketed
// distributed sort that stays within the per-round traffic caps — the
// grounding for the Level-1 analytic costs), primitives, distributed graph
// storage, and the Lemma 4.1 bundle-fetch.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "util/assert.hpp"
#include "graph/generators.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "util/rng.hpp"

namespace arbor::mpc {
namespace {

TEST(ClusterConfig, DerivesSublinearMemory) {
  const auto cfg = ClusterConfig::for_problem(1 << 20, 1 << 22, 0.5);
  EXPECT_GE(cfg.words_per_machine, 1000u);  // ~ 2^10
  EXPECT_LE(cfg.words_per_machine, 1100u);
  EXPECT_GE(cfg.global_words(), (1u << 22));
}

TEST(ClusterConfig, MinWordsFloorApplies) {
  const auto cfg = ClusterConfig::for_problem(16, 32, 0.3);
  EXPECT_GE(cfg.words_per_machine, 256u);
}

TEST(ClusterConfig, RejectsBadDelta) {
  EXPECT_THROW(ClusterConfig::for_problem(100, 100, 0.0),
               arbor::InvariantError);
  EXPECT_THROW(ClusterConfig::for_problem(100, 100, 1.5),
               arbor::InvariantError);
}

// The three retired fields accept only `true`: both constructors reject
// `false` by field name, along with the zero-sized shapes no cluster can
// run.
TEST(ClusterConfig, RetiredFieldsAcceptOnlyTrue) {
  const auto expect_rejected = [](const ClusterConfig& cfg,
                                  const std::string& field) {
    for (const bool as_context : {false, true}) {
      try {
        if (as_context)
          MpcContext ctx(cfg, nullptr);
        else
          Cluster cluster(cfg, nullptr);
        ADD_FAILURE() << field << " accepted (context=" << as_context << ")";
      } catch (const arbor::InvariantError& e) {
        EXPECT_NE(std::string(e.what()).find("ClusterConfig::" + field),
                  std::string::npos)
            << e.what();
      }
    }
  };
  ClusterConfig cfg{4, 64};
  cfg.route_aggregation = false;
  expect_rejected(cfg, "route_aggregation");
  cfg = ClusterConfig{4, 64};
  cfg.merge_path = false;
  expect_rejected(cfg, "merge_path");
  cfg = ClusterConfig{4, 64};
  cfg.fetch_cache = false;
  expect_rejected(cfg, "fetch_cache");
  expect_rejected(ClusterConfig{0, 64}, "num_machines");
  expect_rejected(ClusterConfig{4, 0}, "words_per_machine");

  EXPECT_NO_THROW(Cluster(ClusterConfig{4, 64}, nullptr));
  EXPECT_NO_THROW(MpcContext(ClusterConfig{4, 64}, nullptr));
}

TEST(RoundLedger, ChargesAndLabels) {
  RoundLedger ledger(ClusterConfig{4, 100});
  ledger.charge(3, "sort");
  ledger.charge(2, "sort");
  ledger.charge(1, "shuffle");
  EXPECT_EQ(ledger.total_rounds(), 6u);
  EXPECT_EQ(ledger.rounds_by_label().at("sort"), 5u);
  EXPECT_EQ(ledger.rounds_by_label().at("shuffle"), 1u);
}

TEST(RoundLedger, RecordsViolationsWhenNotStrict) {
  RoundLedger ledger(ClusterConfig{4, 100});
  ledger.note_local_words(150);
  EXPECT_EQ(ledger.local_violations(), 1u);
  EXPECT_EQ(ledger.peak_local_words(), 150u);
}

TEST(RoundLedger, StrictModeThrows) {
  RoundLedger ledger(ClusterConfig{4, 100}, /*strict=*/true);
  EXPECT_THROW(ledger.note_local_words(150), arbor::InvariantError);
}

TEST(RoundLedger, ParallelAbsorbTakesMaxRoundsSumGlobal) {
  RoundLedger a(ClusterConfig{4, 100});
  a.charge(5, "x");
  a.note_global_words(50);
  RoundLedger b(ClusterConfig{4, 100});
  b.charge(3, "x");
  b.note_global_words(70);
  a.absorb_parallel(b);
  EXPECT_EQ(a.total_rounds(), 5u);
  EXPECT_EQ(a.peak_global_words(), 120u);
}

TEST(RoundLedger, SequentialAbsorbSumsRounds) {
  RoundLedger a(ClusterConfig{4, 100});
  a.charge(5, "x");
  RoundLedger b(ClusterConfig{4, 100});
  b.charge(3, "y");
  a.absorb_sequential(b);
  EXPECT_EQ(a.total_rounds(), 8u);
}

TEST(Cluster, DeliversMessagesBetweenMachines) {
  RoundLedger ledger(ClusterConfig{3, 64});
  Cluster cluster(ClusterConfig{3, 64}, &ledger);
  cluster.preload(0, {42});
  cluster.run_round([](std::size_t m, const auto& inbox, Sender& send) {
    // Machine 0 forwards its preloaded word to machine 2.
    if (m == 0 && !inbox.empty()) send.send(2, {inbox[0][0] + 1});
  });
  ASSERT_EQ(cluster.inbox(2).size(), 1u);
  EXPECT_EQ(cluster.inbox(2)[0][0], 43u);
  EXPECT_EQ(cluster.rounds_executed(), 1u);
  EXPECT_EQ(ledger.total_rounds(), 1u);
}

TEST(Cluster, SendCapacityEnforced) {
  Cluster cluster(ClusterConfig{2, 4}, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        if (m == 0) send.send(1, {1, 2, 3, 4, 5});  // 5 > 4 words
      }),
      arbor::InvariantError);
}

TEST(Cluster, ReceiveCapacityEnforced) {
  Cluster cluster(ClusterConfig{3, 4}, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        // Both senders fit individually, but machine 2 receives 6 words.
        if (m == 0) send.send(2, {1, 2, 3});
        if (m == 1) send.send(2, {4, 5, 6});
      }),
      arbor::InvariantError);
}

// A real distributed bucket sort on the Level-0 cluster: values are routed
// to machines by range, sorted locally, and the concatenation must be
// globally sorted — all without tripping the traffic caps. This grounds
// the O(1)-round sort cost the Level-1 primitives charge.
TEST(Cluster, DistributedBucketSortWorksWithinCaps) {
  const std::size_t machines = 8;
  const std::size_t capacity = 64;
  Cluster cluster(ClusterConfig{machines, capacity}, nullptr);

  // Each machine starts with 16 random words in [0, 256).
  util::SplitRng rng(99);
  std::vector<std::vector<Word>> initial(machines);
  std::vector<Word> all;
  for (std::size_t m = 0; m < machines; ++m) {
    for (int i = 0; i < 16; ++i) {
      initial[m].push_back(rng.next_below(256));
      all.push_back(initial[m].back());
    }
    cluster.preload(m, initial[m]);
  }

  // Round 1: route each word to bucket = value / 32.
  cluster.run_round([&](std::size_t, const auto& inbox, Sender& send) {
    std::vector<std::vector<Word>> outgoing(machines);
    for (const auto& msg : inbox)
      for (Word w : msg) outgoing[w / 32].push_back(w);
    for (std::size_t dst = 0; dst < machines; ++dst)
      if (!outgoing[dst].empty()) send.send(dst, std::move(outgoing[dst]));
  });

  // Local sort + verification: concatenation across machines is sorted.
  std::vector<Word> result;
  for (std::size_t m = 0; m < machines; ++m) {
    std::vector<Word> local;
    for (const auto& msg : cluster.inbox(m))
      for (Word w : msg) local.push_back(w);
    std::sort(local.begin(), local.end());
    for (Word w : local) {
      EXPECT_GE(w, m * 32);
      EXPECT_LT(w, (m + 1) * 32);
    }
    result.insert(result.end(), local.begin(), local.end());
  }
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(result, all);
}

TEST(MpcContext, SortRoundsMatchLogFormula) {
  RoundLedger ledger(ClusterConfig{16, 1024});
  MpcContext ctx(ClusterConfig{16, 1024}, &ledger);
  EXPECT_EQ(ctx.sort_rounds(1), 1u);
  EXPECT_EQ(ctx.sort_rounds(1024), 1u);
  EXPECT_EQ(ctx.sort_rounds(1 << 20), 2u);   // log_1024(2^20) = 2
  EXPECT_EQ(ctx.sort_rounds(1u << 31), 4u);  // ⌈31/10⌉ = 4
}

// Regression: sort_rounds used to compute ⌈log_S N⌉ through a floating-
// point log ratio, which an ulp of error can push over the ceiling at
// exact powers of S. The integer powering must be exact at N = S^k and at
// N = S^k ± 1, for any S.
TEST(MpcContext, SortRoundsExactAtPowersOfS) {
  MpcContext ctx(ClusterConfig{16, 1024}, nullptr);
  const std::size_t s = 1024;
  EXPECT_EQ(ctx.sort_rounds(s), 1u);
  EXPECT_EQ(ctx.sort_rounds(s + 1), 2u);
  EXPECT_EQ(ctx.sort_rounds(s * s - 1), 2u);
  EXPECT_EQ(ctx.sort_rounds(s * s), 2u);          // N = S² is exactly 2
  EXPECT_EQ(ctx.sort_rounds(s * s + 1), 3u);
  EXPECT_EQ(ctx.sort_rounds(s * s * s), 3u);      // N = S³ is exactly 3
  EXPECT_EQ(ctx.sort_rounds(s * s * s + 1), 4u);

  // Non-power-of-two S hits the float drift hardest.
  MpcContext odd(ClusterConfig{16, 1000}, nullptr);
  EXPECT_EQ(odd.sort_rounds(1000u * 1000u), 2u);
  EXPECT_EQ(odd.sort_rounds(1000u * 1000u * 1000u), 3u);

  // Degenerate one-word machines clamp the base to 2 instead of dividing
  // by log(1) = 0; huge N terminates via the saturating power.
  MpcContext tiny(ClusterConfig{2, 1}, nullptr);
  EXPECT_EQ(tiny.sort_rounds(8), 3u);
  EXPECT_LE(ctx.sort_rounds(std::numeric_limits<std::size_t>::max()), 7u);
}

TEST(MpcContext, SortItemsSortsAndCharges) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<int> items{5, 3, 9, 1};
  ctx.sort_items(items, std::less<int>{}, 1, "sort.test");
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_GE(ledger.rounds_by_label().at("sort.test"), 1u);
}

TEST(MpcContext, AggregateByKeyCombines) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::pair<int, int>> items{{2, 5}, {1, 3}, {2, 7}, {1, 1}};
  const auto out = ctx.aggregate_by_key<int, int>(
      items, [](int a, int b) { return a + b; }, 2, "agg");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<int, int>{1, 4}));
  EXPECT_EQ(out[1], (std::pair<int, int>{2, 12}));
}

TEST(MpcContext, CountByKey) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto out =
      ctx.count_by_key<int>({3, 1, 3, 3, 1}, "count");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<int, std::size_t>{1, 2}));
  EXPECT_EQ(out[1], (std::pair<int, std::size_t>{3, 3}));
}

TEST(DistributedGraph, StorageAccounting) {
  util::SplitRng rng(1);
  const graph::Graph g = graph::gnm(500, 1500, rng);
  const ClusterConfig cfg = ClusterConfig::for_problem(500, 1500, 0.6);
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const DistributedGraph dg(g, ctx);
  // Total storage = n vertex records + 2m adjacency entries.
  EXPECT_EQ(dg.total_storage_words(), 500u + 2 * 1500u);
  EXPECT_GE(ledger.peak_global_words(), dg.total_storage_words());
  std::size_t sum = 0;
  for (std::size_t m = 0; m < cfg.num_machines; ++m)
    sum += dg.storage_words(m);
  EXPECT_EQ(sum, dg.total_storage_words());
  EXPECT_LE(dg.max_storage_words(), dg.total_storage_words());
}

RequestLists request_lists(
    const std::vector<std::vector<graph::VertexId>>& lists) {
  RequestLists requests;
  for (const auto& list : lists) requests.add(list);
  return requests;
}

std::vector<Word> words_of(std::span<const Word> view) {
  return {view.begin(), view.end()};
}

TEST(BundleFetch, DeliversRequestedBundles) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::vector<Word>> bundles{{10}, {20, 21}, {30}};
  const std::vector<std::span<const Word>> views(bundles.begin(),
                                                 bundles.end());
  const RequestLists requests = request_lists({{1, 2}, {}, {0}});
  const auto result = fetch_bundles(ctx, views, requests, "fetch");
  ASSERT_EQ(result.delivered.size(), 3u);
  ASSERT_EQ(requests.of(0).size(), 2u);
  EXPECT_EQ(words_of(result.delivered[0]), (std::vector<Word>{20, 21}));
  EXPECT_EQ(words_of(result.delivered[1]), (std::vector<Word>{30}));
  EXPECT_EQ(words_of(result.delivered[2]), (std::vector<Word>{10}));
  EXPECT_TRUE(requests.of(1).empty());
  // Views of the owners' storage, not copies.
  EXPECT_EQ(result.delivered[0].data(), bundles[1].data());
  EXPECT_EQ(result.delivered[2].data(), bundles[0].data());
}

TEST(BundleFetch, StatsReflectVolumes) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::vector<Word>> bundles{{1, 2, 3}, {4}};
  const std::vector<std::span<const Word>> views(bundles.begin(),
                                                 bundles.end());
  const auto result =
      fetch_bundles(ctx, views, request_lists({{0, 1}, {0}}), "fetch");
  EXPECT_EQ(result.stats.max_request_list, 2u);
  EXPECT_EQ(result.stats.max_bundle_words, 3u);
  EXPECT_EQ(result.stats.max_copies, 2u);  // bundle 0 requested twice
  EXPECT_EQ(result.stats.total_delivered_words, 3u + 3u + 1u);
  EXPECT_EQ(result.stats.max_requester_words, 4u);  // requester 0: 3+1
  EXPECT_GE(ledger.total_rounds(), result.stats.rounds_charged);
}

TEST(BundleFetch, RejectsUnknownVertex) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::vector<Word>> bundles{{1}};
  const std::vector<std::span<const Word>> views(bundles.begin(),
                                                 bundles.end());
  EXPECT_THROW(fetch_bundles(ctx, views, request_lists({{5}}), "fetch"),
               arbor::InvariantError);
}

}  // namespace
}  // namespace arbor::mpc
