// E-engine: round throughput of the execution engine vs. thread count,
// and of the async RoundProgram scheduler vs. strict three-phase rounds.
//
// Workload: the shared routing storm (bench/engine_storm.hpp) over a
// paper-shaped cluster built for a generator graph with >= 1M edges, run
// two ways per executor: imperatively (one run_round call per round — the
// pre-program dataflow, never overlapped) and as one RoundProgram of
// machine-independent steps (the scheduler may fuse every delivery with
// the next round's compute; async on/off is A/B'd at each thread count).
// Every configuration must produce bit-identical inbox fingerprints and
// identical ledger round/word totals; the bench aborts if any executor
// disagrees.
//
// Results are also written as machine-readable JSON (default
// BENCH_engine_scaling.json, override with --json PATH) to seed the perf
// trajectory.
//
//   ./bench_engine_scaling [n] [m] [rounds] [--json out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine_storm.hpp"
#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/ledger.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using arbor::bench::StormOutcome;
  using arbor::mpc::ClusterConfig;
  using arbor::mpc::ExecutionPolicy;

  const std::string json_path =
      arbor::bench::take_json_flag(argc, argv, "BENCH_engine_scaling.json");
  const auto args = arbor::bench::parse_count_args(
      argc, argv, {{"n"}, {"m", 0}, {"rounds"}});
  const std::size_t n = args[0].value_or(1u << 18);
  const std::size_t m = args[1].value_or(1u << 20);
  const std::size_t rounds = args[2].value_or(6);

  arbor::bench::banner(
      "E-engine: round throughput vs. thread count and scheduler mode",
      "Claim: the flat-buffer parallel engine sustains >= 2x the round "
      "throughput of the serial reference executor at 8 threads, and the "
      "async RoundProgram scheduler adds further throughput over strict "
      "three-phase rounds — with bit-identical inboxes and identical "
      "ledger totals in every mode.");

  arbor::util::SplitRng rng(7);
  const arbor::graph::Graph g = arbor::graph::gnm(n, m, rng);
  std::printf("graph: n=%zu m=%zu  (hardware threads: %u)\n\n",
              g.num_vertices(), g.num_edges(),
              std::thread::hardware_concurrency());

  const ClusterConfig base =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.7);
  const auto slabs = arbor::bench::edge_slabs(g, base.num_machines);
  std::printf("cluster: M=%zu machines, S=%zu words, %zu rounds/config\n\n",
              base.num_machines, base.words_per_machine, rounds);

  struct Config {
    const char* name;
    ExecutionPolicy policy;
    bool program;  ///< run as one RoundProgram instead of run_round calls
    arbor::mpc::TransportConfig transport{};  ///< multiprocess backend rows
  };
  const Config configs[] = {
      {"serial", ExecutionPolicy::serial(), false},
      {"serial/program", ExecutionPolicy::serial(), true},
      {"parallel(1)", ExecutionPolicy::parallel(1), false},
      {"parallel(2)", ExecutionPolicy::parallel(2), false},
      {"parallel(4)", ExecutionPolicy::parallel(4), false},
      {"parallel(8)", ExecutionPolicy::parallel(8), false},
      {"parallel(4)/strict", ExecutionPolicy::parallel(4).with_async(false),
       true},
      {"parallel(4)/async", ExecutionPolicy::parallel(4).with_async(true),
       true},
      {"parallel(8)/strict", ExecutionPolicy::parallel(8).with_async(false),
       true},
      {"parallel(8)/async", ExecutionPolicy::parallel(8).with_async(true),
       true},
      // The storm as a distributed program across worker runtimes behind
      // the src/net/ transport — same fingerprints and ledger totals, real
      // address-space isolation (tcp = separate OS processes + sockets).
      {"multiprocess(loopback:2)", ExecutionPolicy::serial(), true,
       arbor::mpc::TransportConfig::loopback(2)},
      {"multiprocess(tcp:2)", ExecutionPolicy::serial(), true,
       arbor::mpc::TransportConfig::tcp(2)},
  };

  arbor::bench::JsonReport report("engine_scaling");
  // hardware_threads is stamped by the JsonReport constructor.
  report.meta("n", g.num_vertices())
      .meta("m", g.num_edges())
      .meta("machines", base.num_machines)
      .meta("words_per_machine", base.words_per_machine)
      .meta("rounds", rounds);

  // Metrics without spans or a trace file: every row's round-latency
  // percentiles come from the same "round_us" histogram the telemetry
  // report quotes. Cleared per row so percentiles are per-configuration.
  arbor::trace::Tracer& tracer = arbor::trace::Tracer::global();
  tracer.force_metrics(true);

  arbor::bench::Table table({"executor", "ms", "rounds/s", "Mwords/s",
                             "speedup", "overlapped", "fingerprint"});
  StormOutcome serial_out;
  double speedup_at_8 = 0;
  double async_vs_strict_at_8 = 0;
  double strict8_secs = 0;
  for (const Config& config : configs) {
    ClusterConfig cfg = base;
    cfg.execution = config.policy;
    cfg.transport = config.transport;
    tracer.metrics().clear();
    StormOutcome out;
    try {
      out = config.program ? arbor::bench::run_storm_program(slabs, cfg, rounds)
                           : arbor::bench::run_storm(slabs, cfg, rounds);
    } catch (const std::exception& e) {
      // A multiprocess row needs the arbor-worker binary next to this one;
      // skip (loudly) rather than fail the whole sweep without it.
      std::fprintf(stderr, "skipping %s: %s\n", config.name, e.what());
      continue;
    }
    const bool is_reference =
        !config.program && config.policy.mode == ExecutionPolicy::Mode::kSerial;
    if (is_reference) {
      serial_out = out;
    } else {
      if (out.fingerprint != serial_out.fingerprint ||
          out.ledger_rounds != serial_out.ledger_rounds ||
          out.peak_traffic != serial_out.peak_traffic) {
        std::fprintf(stderr,
                     "FATAL: %s disagrees with serial executor "
                     "(fingerprint/ledger mismatch)\n",
                     config.name);
        return 1;
      }
      if (!config.program && config.policy.threads == 8)
        speedup_at_8 = serial_out.secs / out.secs;
      if (config.program && config.policy.threads == 8) {
        if (config.policy.async_rounds)
          async_vs_strict_at_8 = strict8_secs / out.secs;
        else
          strict8_secs = out.secs;
      }
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(out.fingerprint));
    const double speedup = serial_out.secs / out.secs;
    table.add_row({config.name, arbor::bench::fmt(out.secs * 1e3, 1),
                   arbor::bench::fmt(out.rounds / out.secs, 1),
                   arbor::bench::fmt(out.words_moved / out.secs / 1e6, 2),
                   arbor::bench::fmt(speedup, 2),
                   arbor::bench::fmt(out.overlapped), fp});
    const arbor::bench::Percentiles lat =
        arbor::bench::metric_percentiles("round_us");
    report.row()
        .set("executor", config.name)
        .set("backend", arbor::bench::backend_name(cfg))
        .set("workers", cfg.transport.in_process()
                            ? std::size_t{0}
                            : cfg.transport.workers)
        .set("mode", config.program ? "program" : "imperative")
        .set("threads", config.policy.effective_threads())
        .set("async", config.policy.async_rounds && config.program)
        .set("ms", out.secs * 1e3)
        .set("rounds_per_sec", out.rounds / out.secs)
        .set("mwords_per_sec", out.words_moved / out.secs / 1e6)
        .set("speedup_vs_serial", speedup)
        .set("overlapped_rounds", out.overlapped)
        .set("peak_traffic", out.peak_traffic)
        .set("fingerprint", std::string(fp))
        .set("round_us_p50", lat.p50)
        .set("round_us_p95", lat.p95)
        .set("round_us_p99", lat.p99);
  }
  table.print();

  std::printf("\nspeedup at 8 threads vs serial: %.2fx (target >= 2x on "
              "multicore hardware)\n",
              speedup_at_8);
  std::printf("async vs strict scheduler at parallel(8): %.2fx\n",
              async_vs_strict_at_8);
  report.meta("speedup_at_8", speedup_at_8);
  report.meta("async_vs_strict_at_8", async_vs_strict_at_8);

  // -------- checked-execution A/B: ExecutionPolicy::check must be
  // zero-cost when off. The storm program now declares Ownership families
  // (src/check/ownership.hpp) and the scheduler gained a per-step check
  // branch; with check=false none of that may cost anything. Min-of-3
  // per side against the same serial fingerprint.
  {
    const auto min_storm_secs = [&](const ClusterConfig& cfg) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        const StormOutcome out =
            arbor::bench::run_storm_program(slabs, cfg, rounds);
        if (out.fingerprint != serial_out.fingerprint) {
          std::fprintf(stderr,
                       "FATAL: checked-off A/B run disagrees with the "
                       "serial executor\n");
          std::exit(1);
        }
        best = std::min(best, out.secs);
      }
      return best;
    };
    ClusterConfig base_cfg = base;
    base_cfg.execution = ExecutionPolicy::parallel(4);
    ClusterConfig off_cfg = base;
    off_cfg.execution = ExecutionPolicy::parallel(4).with_check(false);
    const double base_secs = min_storm_secs(base_cfg);
    const double off_secs = min_storm_secs(off_cfg);
    const double ratio = base_secs / off_secs;
    std::printf("\nchecked-off A/B at parallel(4): baseline %.1f ms, "
                "check=false %.1f ms, ratio %.3f (target >= 0.97)\n",
                base_secs * 1e3, off_secs * 1e3, ratio);
    report.row()
        .set("section", "checked_ab")
        .set("backend", "engine")
        .set("variant", "baseline")
        .set("threads", std::size_t{4})
        .set("ms", base_secs * 1e3);
    report.row()
        .set("section", "checked_ab")
        .set("backend", "engine")
        .set("variant", "check_off")
        .set("threads", std::size_t{4})
        .set("ms", off_secs * 1e3);
    report.meta("checked_off_ratio", ratio);
  }

  if (!json_path.empty()) report.write_file(json_path);
  return 0;
}
