// Cluster shape for the strongly-sublinear ("scalable") MPC regime.
//
// The model (paper §1.1): M machines, S words of memory each, S ≤ n^δ for a
// constant δ ∈ (0,1); per round a machine sends/receives at most S words;
// global memory M·S must be Ω(m+n) and the algorithms promise Õ(m+n).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "engine/execution_policy.hpp"
#include "engine/types.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {

/// One machine word = O(log n) bits: enough for a vertex id, an edge
/// endpoint pair member, or a layer/color value.
using Word = engine::Word;

using engine::ExecutionPolicy;

/// How a cluster's RoundPrograms physically execute: inside this process
/// (the engine's scheduler), or partitioned across worker runtimes behind
/// the src/net/ transport. Purely a deployment knob — the simulated model
/// (machines, caps, rounds) and every program's inboxes, fingerprints, and
/// ledger totals are identical across kinds (tests/net_test.cpp).
struct TransportConfig {
  enum class Kind : std::uint8_t {
    kInProcess,  ///< engine scheduler in this address space (default)
    kLoopback,   ///< worker runtimes as in-process threads over in-memory
                 ///< channels — the transport stack without sockets
    kTcp,        ///< arbor-worker OS processes over localhost TCP sockets
  };

  Kind kind = Kind::kInProcess;
  /// Worker runtimes the machine set is partitioned across (≥ 1);
  /// ignored in-process.
  std::size_t workers = 2;
  /// Thread-pool width for each worker's local compute phase.
  std::size_t worker_threads = 1;

  bool in_process() const noexcept { return kind == Kind::kInProcess; }

  static TransportConfig in_process_default() { return {}; }
  static TransportConfig loopback(std::size_t workers = 2) {
    return {Kind::kLoopback, workers, 1};
  }
  static TransportConfig tcp(std::size_t workers = 2) {
    return {Kind::kTcp, workers, 1};
  }

  friend bool operator==(const TransportConfig&,
                         const TransportConfig&) = default;
};

/// Strict boolean flag parsing shared by the ARBOR_* environment
/// overrides: exactly "1"/"on"/"true"/"yes" enable, "0"/"off"/"false"/"no"
/// disable, anything else throws an InvariantError naming the variable and
/// the offending value — a typo like ARBOR_DISTRIBUTED_LEVEL1=ture must
/// fail the run, not silently pick a default.
bool parse_bool_flag(std::string_view value, std::string_view what);

/// Strict TransportConfig parsing for the ARBOR_TRANSPORT override:
/// "inprocess" | "loopback[:W]" | "tcp[:W]" with W ≥ 1 workers (default
/// 2). Unknown kinds or malformed worker counts throw, naming the value.
TransportConfig parse_transport_flag(std::string_view value,
                                     std::string_view what);

/// Process-wide default for ClusterConfig::distributed_level1, read once
/// from the ARBOR_DISTRIBUTED_LEVEL1 environment variable (strict boolean,
/// see parse_bool_flag). Lets scripts/check.sh run the whole tier-1 suite
/// on both the central and the distributed Level-1 path without touching
/// every test's config literal.
bool distributed_level1_env_default();

/// Process-wide default for ClusterConfig::transport, read once from the
/// ARBOR_TRANSPORT environment variable (strict, see parse_transport_flag).
/// Lets scripts/check.sh --mp run program suites over the multi-process
/// backend without touching every test's config literal.
TransportConfig transport_env_default();

struct ClusterConfig {
  std::size_t num_machines = 0;
  std::size_t words_per_machine = 0;  ///< S

  /// How the Level-0 cluster executes rounds: the serial reference executor
  /// (default) or the thread-pool engine. Purely an execution knob — the
  /// simulated model (machines, caps, rounds) is identical either way.
  ExecutionPolicy execution{};

  /// Execute the Level-1 primitives (MpcContext::sort_items_by_key,
  /// aggregate_by_key, count_by_key) as real engine-backed record sorts on
  /// Level-0 clusters instead of the central reference implementation.
  /// Outputs and ledger charges are bit-identical either way
  /// (tests/level1_distributed_test.cpp), so serial/central vs.
  /// distributed can be diffed directly. Default off (or the
  /// ARBOR_DISTRIBUTED_LEVEL1 environment override).
  bool distributed_level1 = distributed_level1_env_default();

  /// Retired: each selected a deleted A/B path and only `true` is valid
  /// (validate() rejects `false`, naming the field).
  bool route_aggregation = true;
  bool merge_path = true;
  bool fetch_cache = true;

  /// Where this cluster's distributable RoundPrograms execute: in-process
  /// (default), or across worker runtimes behind the src/net/ transport
  /// (Cluster installs a net::MultiProcessBackend on its owned engine).
  /// Programs without a RemoteSpec always run in-process regardless.
  /// Default in-process (or the ARBOR_TRANSPORT environment override).
  TransportConfig transport = transport_env_default();

  /// Run tracing + metrics telemetry (src/trace/): off (default, or the
  /// strictly-parsed ARBOR_TRACE override), spans, or full. Constructing
  /// a Cluster raises the process-wide tracer to this mode and, over the
  /// loopback/tcp transport, turns on worker-side telemetry shipping.
  /// Purely observational: inbox fingerprints and ledger totals are
  /// bit-identical with tracing off or full (tests/trace_test.cpp).
  trace::TraceConfig trace = trace::trace_env_default();

  /// Derive a cluster for a graph problem of n vertices / m edges with
  /// local memory S = max(n^δ, min_words) and enough machines for
  /// `global_factor`·(n+m) words of global memory.
  static ClusterConfig for_problem(std::size_t n, std::size_t m, double delta,
                                   double global_factor = 8.0,
                                   std::size_t min_words = 256) {
    ARBOR_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ClusterConfig cfg;
    const double s = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                              delta);
    cfg.words_per_machine =
        std::max<std::size_t>(static_cast<std::size_t>(std::llround(s)),
                              min_words);
    const double global_words =
        global_factor * static_cast<double>(n + m + 1);
    cfg.num_machines = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(global_words /
                         static_cast<double>(cfg.words_per_machine))));
    return cfg;
  }

  std::size_t global_words() const noexcept {
    return num_machines * words_per_machine;
  }

  /// Reject a config no cluster can run: zero machines or zero words per
  /// machine, or a retired field set to `false`. Throws InvariantError
  /// naming the offending field.
  void validate() const;
};

}  // namespace arbor::mpc
