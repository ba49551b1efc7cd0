// Drive the parallel execution engine end to end and print what it buys.
//
// Two workloads on one generator graph:
//   1. routing storm — the shared workload from bench/engine_storm.hpp
//      (pure engine cost: send, route, deliver);
//   2. embedded threshold peeling — the LOCAL-in-MPC program from
//      src/local/mpc_embedding, a real algorithm with per-machine compute.
//
// Both run under the serial reference executor and the thread-pool engine;
// results (inbox fingerprints, peeling layers) are checked identical before
// any number is printed.
//
//   ./engine_throughput [n] [m] [rounds] [threads]
//
// Positionals parse strictly (bench::parse_count_args): a flag, a
// non-numeric or out-of-range value, or a surplus argument exits 2 naming
// the offender.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "../bench/bench_util.hpp"
#include "../bench/engine_storm.hpp"
#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/cluster.hpp"
#include "util/rng.hpp"

namespace {

using arbor::bench::StormOutcome;
using arbor::mpc::Cluster;
using arbor::mpc::ClusterConfig;
using arbor::mpc::ExecutionPolicy;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = arbor::bench::parse_count_args(
      argc, argv,
      {{"n"}, {"m", 0}, {"rounds"}, {"threads", 1, 1024}}, "");
  const std::size_t n = args[0].value_or(1u << 16);
  const std::size_t m = args[1].value_or(1u << 18);
  const std::size_t rounds = args[2].value_or(20);
  const std::size_t threads = args[3].value_or(
      std::max(1u, std::thread::hardware_concurrency()));

  std::printf("engine_throughput: n=%zu m=%zu rounds=%zu threads=%zu\n", n, m,
              rounds, threads);

  arbor::util::SplitRng rng(42);
  const arbor::graph::Graph g = arbor::graph::gnm(n, m, rng);

  // Paper-shaped cluster (S ~ n^0.7) with edge-endpoint slabs.
  ClusterConfig cfg =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.7);
  const auto slabs = arbor::bench::edge_slabs(g, cfg.num_machines);

  std::printf("cluster: M=%zu machines, S=%zu words\n\n", cfg.num_machines,
              cfg.words_per_machine);

  // --- workload 1: routing storm ---------------------------------------
  ClusterConfig serial_cfg = cfg;
  serial_cfg.execution = ExecutionPolicy::serial();
  ClusterConfig parallel_cfg = cfg;
  parallel_cfg.execution = ExecutionPolicy::parallel(threads);

  const StormOutcome serial =
      arbor::bench::run_storm(slabs, serial_cfg, rounds);
  const StormOutcome parallel =
      arbor::bench::run_storm(slabs, parallel_cfg, rounds);

  if (serial.fingerprint != parallel.fingerprint) {
    std::fprintf(stderr, "FATAL: executors disagree on inbox state\n");
    return 1;
  }

  std::printf("routing storm (%zu rounds, identical inbox fingerprints):\n",
              rounds);
  std::printf("  serial      : %8.1f ms  %7.1f rounds/s  %7.2f Mwords/s\n",
              serial.secs * 1e3, serial.rounds / serial.secs,
              serial.words_moved / serial.secs / 1e6);
  std::printf("  parallel(%zu) : %8.1f ms  %7.1f rounds/s  %7.2f Mwords/s"
              "  (engine width %zu after hw clamp)\n",
              threads, parallel.secs * 1e3, parallel.rounds / parallel.secs,
              parallel.words_moved / parallel.secs / 1e6,
              parallel.engine_width);
  std::printf("  speedup     : %.2fx\n\n", serial.secs / parallel.secs);

  // --- workload 2: embedded threshold peeling ---------------------------
  const std::size_t peel_machines = 64;
  const ClusterConfig peel_base{peel_machines, 1 << 18};
  const std::size_t threshold =
      static_cast<std::size_t>(g.average_degree()) + 1;

  ClusterConfig peel_serial = peel_base;
  ClusterConfig peel_parallel = peel_base;
  peel_parallel.execution = ExecutionPolicy::parallel(threads);

  Cluster serial_cluster(peel_serial, nullptr);
  auto t0 = std::chrono::steady_clock::now();
  const auto peel_a = arbor::local::embedded_threshold_peeling(
      g, threshold, serial_cluster, 10000);
  const double peel_serial_secs = seconds_since(t0);

  Cluster parallel_cluster(peel_parallel, nullptr);
  t0 = std::chrono::steady_clock::now();
  const auto peel_b = arbor::local::embedded_threshold_peeling(
      g, threshold, parallel_cluster, 10000);
  const double peel_parallel_secs = seconds_since(t0);

  if (peel_a.layer != peel_b.layer) {
    std::fprintf(stderr, "FATAL: executors disagree on peeling layers\n");
    return 1;
  }

  std::printf(
      "embedded peeling (threshold=%zu, %u layers, identical results):\n",
      threshold, peel_a.num_layers);
  std::printf("  serial      : %8.1f ms  (%zu cluster rounds)\n",
              peel_serial_secs * 1e3, peel_a.cluster_rounds);
  std::printf("  parallel(%zu) : %8.1f ms\n", threads,
              peel_parallel_secs * 1e3);
  std::printf("  speedup     : %.2fx\n", peel_serial_secs / peel_parallel_secs);
  return 0;
}
