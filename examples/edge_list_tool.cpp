// Command-line tool: orient and color a user-supplied edge-list file.
//
//   edge_list_tool INPUT [--delta D] [--seed S] [--out PREFIX]
//
// --delta must be a finite decimal in (0, 1) and --seed an unsigned
// decimal; a malformed value exits 2 naming the flag.
//
// INPUT format: first non-comment line "n m", then m lines "u v"
// (0-indexed). Writes PREFIX.orientation (one "u v" per line, tail first)
// and PREFIX.colors (one color per line, vertex order) when --out is
// given; always prints the quality/round summary.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "core/coloring_mpc.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/coloring.hpp"
#include "graph/io.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "util/assert.hpp"
#include "util/env_knob.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s INPUT [--delta D] [--seed S] [--out PREFIX]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arbor;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  std::string input = argv[1];
  double delta = 0.6;
  std::uint64_t seed = 1;
  std::string out_prefix;
  try {
    for (int i = 2; i < argc; ++i) {
      const bool has_value = i + 1 < argc;
      if (!std::strcmp(argv[i], "--delta") && has_value) {
        const char* text = argv[++i];
        delta = util::parse_finite_knob(text, "--delta");
        if (!(delta > 0.0 && delta < 1.0))
          util::reject_knob("--delta", text, "must be in (0, 1)");
      } else if (!std::strcmp(argv[i], "--seed") && has_value) {
        const char* text = argv[++i];
        seed = util::parse_count_knob(
            text, "value", 0, std::numeric_limits<std::uint64_t>::max(),
            "--seed", text);
      } else if (!std::strcmp(argv[i], "--out") && has_value) {
        out_prefix = argv[++i];
      } else {
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    usage(argv[0]);
    return 2;
  }

  graph::Graph g;
  try {
    g = graph::read_edge_list_file(input);
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], input.c_str(), e.what());
    return 1;
  }
  std::printf("loaded %s: n=%zu m=%zu\n", input.c_str(), g.num_vertices(),
              g.num_edges());

  const mpc::ClusterConfig config =
      mpc::ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), delta);

  mpc::RoundLedger orient_ledger(config);
  mpc::MpcContext orient_ctx(config, &orient_ledger);
  core::OrientationParams orient_params;
  orient_params.seed = seed;
  const auto orientation = core::mpc_orient(g, orient_params, orient_ctx);
  std::printf("orientation: max out-degree %zu (bound %zu), %zu rounds\n",
              orientation.orientation.max_outdegree(g),
              orientation.outdegree_bound, orient_ledger.total_rounds());

  mpc::RoundLedger color_ledger(config);
  mpc::MpcContext color_ctx(config, &color_ledger);
  core::ColoringParams color_params;
  color_params.seed = seed;
  const auto coloring = core::mpc_color(g, color_params, color_ctx);
  const auto check = graph::check_coloring(g, coloring.colors);
  std::printf("coloring: %zu colors (palette %zu), proper=%s, %zu rounds\n",
              check.colors_used, coloring.palette_size,
              check.proper ? "yes" : "NO", color_ledger.total_rounds());

  if (!out_prefix.empty()) {
    {
      std::ofstream out(out_prefix + ".orientation");
      const auto edges = g.edges();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (orientation.orientation.oriented_towards_v(i))
          out << edges[i].u << ' ' << edges[i].v << '\n';
        else
          out << edges[i].v << ' ' << edges[i].u << '\n';
      }
    }
    {
      std::ofstream out(out_prefix + ".colors");
      for (graph::Color c : coloring.colors) out << c << '\n';
    }
    std::printf("wrote %s.orientation and %s.colors\n", out_prefix.c_str(),
                out_prefix.c_str());
  }
  return check.proper ? 0 : 1;
}
