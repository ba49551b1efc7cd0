// The Lemma 4.1 primitive: every node u holds an information bundle B_u and
// a request list L_u of nodes whose bundles it wants; deliver all bundles in
// O(1) MPC rounds.
//
// The paper's implementation (proof sketch of Lemma 4.1) is:
//  1. one sort to compute k_v = #requesters of each v,
//  2. broadcast trees of fan-out n^{δ/2} to make k_v copies of B_v,
//  3. one sort + rank matching to route copy i of B_v to its requester.
// We execute those semantics and charge exactly that round breakdown. The
// graph-exponentiation steps of Algorithm 2 and the directed exponentiation
// of the coloring algorithm are both expressed as bundle fetches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"

namespace arbor::net {
class Registry;
}

namespace arbor::mpc {

struct BundleFetchStats {
  std::size_t rounds_charged = 0;
  std::size_t total_delivered_words = 0;  ///< Lemma 4.1 condition (B) gauge
  std::size_t max_request_list = 0;       ///< Lemma 4.1 condition (A) gauge
  std::size_t max_bundle_words = 0;
  std::size_t max_requester_words = 0;  ///< largest per-machine delivery
  std::size_t max_copies = 0;           ///< largest k_v
};

/// The request lists L_u of every requester u, flat:
/// L_u = targets[begin[u] .. begin[u + 1]).
struct RequestLists {
  std::vector<std::size_t> begin{0};
  std::vector<graph::VertexId> targets;

  std::size_t num_requesters() const noexcept { return begin.size() - 1; }
  std::span<const graph::VertexId> of(std::size_t u) const {
    return {targets.data() + begin[u], begin[u + 1] - begin[u]};
  }
  /// Appends the next requester's list.
  void add(std::span<const graph::VertexId> list) {
    targets.insert(targets.end(), list.begin(), list.end());
    begin.push_back(targets.size());
  }
};

/// `bundles[v]` views vertex v's bundle; `requests` holds the lists L_u.
/// The delivery is a view, not a copy: delivered[requests.begin[u] + slot]
/// is bundles[requests.of(u)[slot]] itself, so it stays valid exactly as
/// long as the storage behind `bundles` (for graph exponentiation, the
/// step's tree buffer). Rounds are charged and words noted for the full
/// Lemma 4.1 data movement — a copy of every requested bundle reaching its
/// requester — as if the copies were made. Records footprints with the
/// context's ledger; the stats let callers assert the lemma's
/// preconditions at their chosen budgets.
struct BundleFetchResult {
  std::vector<std::span<const Word>> delivered;
  BundleFetchStats stats;
};

BundleFetchResult fetch_bundles(MpcContext& ctx,
                                std::span<const std::span<const Word>> bundles,
                                const RequestLists& requests,
                                const std::string& label);

/// The executable Level-0 counterpart of fetch_bundles: the same
/// request/serve dataflow run as a real RoundProgram on `cluster`, under
/// its per-machine traffic caps. Bundle owners and requesters are
/// block-assigned to machines (vertex v lives on machine v / ceil(n/M));
/// three rounds: route requests to owners, serve the bundle copies back,
/// and a compute-only assembly round in which every requester machine
/// slots the copies into request order. Unlike fetch_bundles it moves
/// real messages and returns owning copies; their words equal the views
/// fetch_bundles delivers — tests/level0_programs_test.cpp locks the
/// equivalence — so the analytic charge is grounded by a program the
/// scheduler can pipeline.
struct Level0BundleFetchResult {
  std::vector<std::vector<std::vector<Word>>> delivered;
  std::size_t rounds = 0;
};

Level0BundleFetchResult fetch_bundles_program(
    Cluster& cluster, const std::vector<std::vector<Word>>& bundles,
    const std::vector<std::vector<graph::VertexId>>& requests);

/// Worker-side factory ("mpc.fetch_bundles") for the multi-process
/// backend (net::Registry::builtin() calls this).
void register_bundle_fetch_program(net::Registry& registry);

}  // namespace arbor::mpc
