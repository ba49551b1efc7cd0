// Quick-start launcher for the multi-process backend (src/net/): run the
// same routing storm on the in-process serial engine and across a worker
// group — in-memory loopback channels or real arbor-worker OS processes
// over 127.0.0.1 TCP — and check the runs are bit-identical (inbox
// fingerprints, ledger round/word totals).
//
//   ./engine_multiprocess                        # loopback:2 and tcp:2
//   ./engine_multiprocess --transport tcp:4      # one specific transport
//   ./engine_multiprocess 2000 8000 12           # n, m, rounds
//   ./engine_multiprocess --report report.json   # observatory RunReport log
//
// The tcp runs exec the arbor-worker binary next to this one (override
// with ARBOR_WORKER_BIN). Exit code 0 = every backend agreed; a malformed
// argument exits 2 naming the offender (bench::parse_count_args).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine_storm.hpp"
#include "graph/generators.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using arbor::mpc::ClusterConfig;
  using arbor::mpc::TransportConfig;

  const std::string report_path = arbor::bench::take_report_flag(argc, argv);
  // Take every `--transport NAME` pair out of argv; whatever is left must
  // be the counts (a dangling --transport stays behind and is rejected).
  std::vector<std::string> transports;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc)
      transports.push_back(argv[++i]);
    else
      argv[kept++] = argv[i];
  }
  argc = kept;
  const auto args = arbor::bench::parse_count_args(
      argc, argv, {{"n"}, {"m", 0}, {"rounds"}},
      "[--transport KIND[:WORKERS]]... [--report PATH]");
  if (transports.empty()) transports = {"loopback:2", "tcp:2"};
  for (const std::string& name : transports) {
    try {
      arbor::mpc::parse_transport_flag(name, "--transport");
    } catch (const arbor::InvariantError& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }
  const std::size_t n = args[0].value_or(4000);
  const std::size_t m = args[1].value_or(16000);
  const std::size_t rounds = args[2].value_or(8);

  arbor::util::SplitRng rng(7);
  const arbor::graph::Graph g = arbor::graph::gnm(n, m, rng);
  const ClusterConfig base =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.7);
  const auto slabs = arbor::bench::edge_slabs(g, base.num_machines);
  std::printf(
      "storm: n=%zu m=%zu  cluster: M=%zu machines x S=%zu words, %zu "
      "rounds\n\n",
      g.num_vertices(), g.num_edges(), base.num_machines,
      base.words_per_machine, rounds);

  const arbor::bench::StormOutcome reference =
      arbor::bench::run_storm_program(slabs, base, rounds);
  std::printf("%-22s fp=%016llx  ledger=%zu rounds, peak %zu words, %.1f "
              "ms\n",
              "in-process serial",
              static_cast<unsigned long long>(reference.fingerprint),
              reference.ledger_rounds, reference.peak_traffic,
              reference.secs * 1e3);

  bool ok = true;
  for (const std::string& name : transports) {
    ClusterConfig cfg = base;
    try {
      cfg.transport = arbor::mpc::parse_transport_flag(name, "--transport");
      const arbor::bench::StormOutcome out =
          arbor::bench::run_storm_program(slabs, cfg, rounds);
      const bool same = out.fingerprint == reference.fingerprint &&
                        out.ledger_rounds == reference.ledger_rounds &&
                        out.peak_traffic == reference.peak_traffic;
      std::printf("%-22s fp=%016llx  ledger=%zu rounds, peak %zu words, "
                  "%.1f ms  %s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(out.fingerprint),
                  out.ledger_rounds, out.peak_traffic, out.secs * 1e3,
                  same ? "== bit-identical" : "!! MISMATCH");
      ok = ok && same;
    } catch (const std::exception& e) {
      std::printf("%-22s FAILED: %s\n", name.c_str(), e.what());
      ok = false;
    }
  }
  std::printf("\n%s\n", ok ? "all backends agree" : "BACKEND DISAGREEMENT");
  if (!report_path.empty())
    arbor::obs::ReportLog::global().write_json_file(report_path);
  return ok ? 0 : 1;
}
