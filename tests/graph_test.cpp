// Unit tests for the graph substrate: builder invariants, CSR accessors,
// induced subgraphs, edge-list I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/assert.hpp"

namespace arbor::graph {
namespace {

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, reversed
  b.add_edge(2, 2);  // self loop
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), InvariantError);
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
}

TEST(GraphBuilder, BuildAndClearEmptiesPending) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  (void)b.build_and_clear();
  EXPECT_EQ(b.num_pending_edges(), 0u);
  EXPECT_EQ(b.build().num_edges(), 0u);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, DegreesAndNeighborsSorted) {
  GraphBuilder b(5);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  b.add_edge(0, 4);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(2), 1u);
  const auto ns = g.neighbors(0);
  ASSERT_EQ(ns.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ns.begin(), ns.end()));
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

TEST(Graph, EdgesCanonicalAndSorted) {
  GraphBuilder b(4);
  b.add_edge(3, 1);
  b.add_edge(2, 0);
  const Graph g = b.build();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = from_edges(2, std::vector<Edge>{{0, 1}});
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(7, 9));
}

/// Run `fn`, expect an InvariantError whose message names `fragment`.
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected rejection: " << fragment;
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

/// Path 0-1-...-(n-1).
Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t v = 0; v + 1 < n; ++v)
    b.add_edge(static_cast<VertexId>(v), static_cast<VertexId>(v + 1));
  return b.build();
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(0, 5);
  const Graph g = b.build();

  const std::vector<VertexId> pick{1, 2, 3};
  const auto sub = g.induced(pick);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 1-2 and 2-3
  EXPECT_EQ(sub.to_original, pick);
  // New ids follow selection order: 0->1, 1->2, 2->3.
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(1, 2));
  EXPECT_FALSE(sub.graph.has_edge(0, 2));
}

TEST(Graph, InducedRejectsDuplicates) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}});
  const std::vector<VertexId> pick{1, 1};
  expect_rejected([&] { (void)g.induced(pick); },
                  "induced(): duplicate vertex in selection");
}

TEST(Graph, InducedEmptySelection) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}});
  const auto sub = g.induced(std::vector<VertexId>{});
  EXPECT_EQ(sub.graph.num_vertices(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(Graph, InducedRejectsOutOfRangeByName) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}});
  const std::vector<VertexId> pick{0, 3};
  expect_rejected([&] { (void)g.induced(pick); },
                  "induced(): vertex id out of range");
}

TEST(Graph, InducedRelabelTableIsCleanAfterRejection) {
  const Graph g = path_graph(6);
  // Both rejections happen after earlier vertices were relabelled.
  const std::vector<VertexId> duplicate{4, 2, 3, 2};
  expect_rejected([&] { (void)g.induced(duplicate); }, "duplicate vertex");
  const std::vector<VertexId> out_of_range{4, 2, 3, 6};
  expect_rejected([&] { (void)g.induced(out_of_range); }, "out of range");

  // A stale slot would read as a duplicate or wire in a wrong neighbor.
  const std::vector<VertexId> pick{4, 2, 3};
  const auto sub = g.induced(pick);
  EXPECT_EQ(sub.to_original, pick);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 2-3 and 3-4
  EXPECT_TRUE(sub.graph.has_edge(1, 2));   // 2-3
  EXPECT_TRUE(sub.graph.has_edge(0, 2));   // 4-3
  EXPECT_FALSE(sub.graph.has_edge(0, 1));  // 4, 2 not adjacent
}

TEST(Graph, InducedOfInduced) {
  const Graph g = path_graph(10);
  const std::vector<VertexId> outer{9, 7, 8, 6, 5, 1};
  const auto first = g.induced(outer);
  // first: 0=9 1=7 2=8 3=6 4=5 5=1; edges 9-8, 7-8, 7-6, 6-5.
  ASSERT_EQ(first.graph.num_edges(), 4u);
  const std::vector<VertexId> inner{3, 1, 4};  // originals 6, 7, 5
  const auto second = first.graph.induced(inner);
  EXPECT_EQ(second.graph.num_vertices(), 3u);
  EXPECT_EQ(second.graph.num_edges(), 2u);
  EXPECT_TRUE(second.graph.has_edge(0, 1));  // 6-7
  EXPECT_TRUE(second.graph.has_edge(0, 2));  // 6-5
  EXPECT_FALSE(second.graph.has_edge(1, 2));
  const std::vector<Edge> want{{0, 1}, {0, 2}};
  EXPECT_TRUE(std::equal(second.graph.edges().begin(),
                         second.graph.edges().end(), want.begin(),
                         want.end()));
}

TEST(Graph, InducedSmallGraphAfterLargeGraph) {
  const Graph large = path_graph(5000);
  std::vector<VertexId> tail;
  for (VertexId v = 4990; v < 5000; ++v) tail.push_back(v);
  EXPECT_EQ(large.induced(tail).graph.num_edges(), 9u);

  // Ids 0..2 of the small graph share table slots the large call used.
  const Graph small = from_edges(3, std::vector<Edge>{{0, 2}});
  const std::vector<VertexId> pick{2, 1, 0};
  const auto sub = small.induced(pick);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_TRUE(sub.graph.has_edge(0, 2));
  expect_rejected([&] { (void)small.induced(std::vector<VertexId>{4990}); },
                  "out of range");
}

TEST(Graph, InducedFromConcurrentThreads) {
  const Graph g = path_graph(4000);
  std::vector<std::vector<std::size_t>> edge_counts(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&g, &edge_counts, t] {
      for (std::size_t rep = 0; rep < 50; ++rep) {
        // Overlapping windows: every thread relabels vertices the others
        // are relabelling at the same time.
        std::vector<VertexId> window;
        for (std::size_t v = t * 500 + rep; v < t * 500 + rep + 1500; ++v)
          window.push_back(static_cast<VertexId>(v));
        edge_counts[t].push_back(g.induced(window).graph.num_edges());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& counts : edge_counts) {
    ASSERT_EQ(counts.size(), 50u);
    for (std::size_t c : counts) EXPECT_EQ(c, 1499u);
  }
}

TEST(GraphIo, RoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();

  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST(GraphIo, SkipsComments) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(GraphIo, RejectsBadHeader) {
  std::stringstream ss("nonsense\n");
  EXPECT_THROW(read_edge_list(ss), InvariantError);
}

TEST(GraphIo, RejectsCountMismatch) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), InvariantError);
}

// Malformed lines fail by line number; none may be read as some other
// edge (an id past 2^32 truncated, a negative id wrapped) or accepted with
// trailing junk.
void expect_edge_list_rejected(const std::string& text,
                               const std::string& fragment) {
  std::stringstream ss(text);
  try {
    read_edge_list(ss);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, RejectsEndpointPastVertexIdRange) {
  expect_edge_list_rejected("3 1\n4294967296 1\n",
                            "edge list line 2: endpoint=\"4294967296\": "
                            "value out of range");
}

TEST(GraphIo, RejectsNegativeEndpoint) {
  expect_edge_list_rejected("3 1\n-4294967295 2\n",
                            "edge list line 2: endpoint=\"-4294967295\": "
                            "value is not a number");
}

TEST(GraphIo, RejectsTrailingTokens) {
  expect_edge_list_rejected("3 1\n0 1 junk\n",
                            "edge list line 2: want 'u v', got 3 fields");
  expect_edge_list_rejected("3 1 9\n0 1\n", "edge list line 1: want header");
}

TEST(GraphIo, ErrorsNameTheLine) {
  expect_edge_list_rejected("# c\n3 1\n\n0 5\n",
                            "edge list line 4: endpoint 5 out of range");
  expect_edge_list_rejected("3 1\n0 1\n1 2\n",
                            "edge list line 3: more edges than the header");
  expect_edge_list_rejected("+3 1\n0 1\n",
                            "edge list line 1: vertex count=\"+3\"");
  expect_edge_list_rejected("", "edge list line 0: no header line");
}

TEST(GraphIo, AcceptsCrlfAndTabs) {
  std::stringstream ss("3\t2\r\n0 1\r\n 1\t2 \r\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

}  // namespace
}  // namespace arbor::graph
