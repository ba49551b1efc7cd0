// E-level1: Level-1 record sort — central stable_sort vs. the engine-backed
// distributed sample sort behind ClusterConfig::distributed_level1, plus a
// coordinator-vs-tree splitter strategy A/B on the raw record sort.
//
// Workload 1 (Level-1): sort N (key, payload) records by key through
// MpcContext::sort_items_by_key, once on the central reference path and
// once per execution policy on the distributed path. Every configuration
// must produce the bit-identical permutation (stability included — keys are
// drawn from a small range so ties dominate) and identical ledger totals;
// the bench aborts on any disagreement.
//
// The distributed rows A/B the bulk route (ClusterConfig::
// route_aggregation, ARBOR_ROUTE_AGGREGATION): "dist/serial/no-agg" runs
// the per-record fallback, every other distributed row the aggregated
// path. Metrics are forced on so each row also reports the p50 of the
// sort's route rounds (round_us.sample_sort.tree.route), the hot path the
// aggregation targets.
//
// Workload 2 (splitter A/B): the raw sample_sort_records at several
// cluster widths, coordinator vs. splitter-tree strategy. Reports wall
// time and the ledger's per-label traffic peaks — the coordinator's
// splitter rounds pool Θ(p·s) and broadcast Θ(p²) words at machine 0,
// the tree's stay O(√p·s) — and aborts if the two strategies disagree on
// the sorted output.
//
// Results are also written as machine-readable JSON (default
// BENCH_level1_sort.json, override with --json PATH) with backend +
// variant fields, to seed the perf trajectory. --report PATH additionally
// writes the observatory RunReport log (per-label traffic vs. declared
// analytic bounds) for scripts/check.sh --report's regression gate.
//
//   ./bench_level1_sort [records] [key_range] [repeats] [--json out.json]
//                       [--report report.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sample_sort.hpp"
#include "obs/report.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using arbor::mpc::ClusterConfig;
using arbor::mpc::ExecutionPolicy;
using arbor::mpc::MpcContext;
using arbor::mpc::RoundLedger;
using arbor::mpc::SplitterStrategy;
using arbor::mpc::Word;

/// Histogram samples observed after `skip` (a snapshot of the sample
/// count taken before a run), so each bench row reports only its own
/// rounds' latencies.
std::vector<double> samples_since(const std::string& name, std::size_t skip) {
  const auto hist = arbor::trace::Tracer::global().metrics().histogram(name);
  if (!hist || hist->samples.size() <= skip) return {};
  return {hist->samples.begin() + static_cast<std::ptrdiff_t>(skip),
          hist->samples.end()};
}

std::size_t sample_count(const std::string& name) {
  const auto hist = arbor::trace::Tracer::global().metrics().histogram(name);
  return hist ? hist->samples.size() : 0;
}

using Record = std::pair<std::uint64_t, std::uint64_t>;  // (key, payload)

struct Outcome {
  std::vector<Record> sorted;
  double secs = 0;
  std::size_t ledger_rounds = 0;
};

Outcome run_sort(const std::vector<Record>& input, ClusterConfig cfg,
                 std::size_t repeats) {
  Outcome out;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  double best = 1e300;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    std::vector<Record> items = input;
    const auto start = std::chrono::steady_clock::now();
    ctx.sort_items_by_key(
        items, [](const Record& r) { return r.first; }, 2, "bench.sort");
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
    out.sorted = std::move(items);
  }
  out.secs = best;
  out.ledger_rounds = ledger.total_rounds();
  return out;
}

/// One raw record sort at `machines` wide, under `strategy`. Returns the
/// flattened sorted output plus the splitter/route traffic peaks.
struct StrategyOutcome {
  std::vector<Word> flat;
  double secs = 0;
  std::size_t rounds = 0;
  std::size_t splitter_peak = 0;  ///< max traffic over the splitter rounds
  std::size_t route_peak = 0;     ///< max traffic over the route rounds
};

StrategyOutcome run_strategy(const std::vector<std::vector<Word>>& slabs,
                             std::size_t machines, std::size_t samples,
                             SplitterStrategy strategy, std::size_t repeats) {
  // Capacity wide enough for EITHER strategy (the coordinator needs its
  // quadratic broadcast term; giving both the same roof keeps this a speed
  // A/B — the S-cap contrast is asserted by the tests).
  std::size_t total = 0;
  for (const auto& slab : slabs) total += slab.size();
  ClusterConfig cfg{machines,
                    2 * total + machines * (samples + 1) * 2 +
                        machines * machines * 2};
  StrategyOutcome out;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    RoundLedger ledger(cfg);
    arbor::mpc::Cluster cluster(cfg, &ledger);
    auto input = slabs;
    const auto start = std::chrono::steady_clock::now();
    const arbor::mpc::RecordSortResult result = sample_sort_records(
        cluster, std::move(input), 2, 2, samples, strategy);
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || secs < out.secs) out.secs = secs;
    out.rounds = result.rounds;
    out.flat.clear();
    for (const auto& slab : result.slabs)
      out.flat.insert(out.flat.end(), slab.begin(), slab.end());
    const arbor::bench::SplitterPeaks peaks =
        arbor::bench::classify_sort_peaks(ledger.peak_traffic_by_label());
    out.splitter_peak = peaks.splitter;
    out.route_peak = peaks.route;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      arbor::bench::take_json_flag(argc, argv, "BENCH_level1_sort.json");
  const std::string report_path = arbor::bench::take_report_flag(argc, argv);
  const auto args = arbor::bench::parse_count_args(
      argc, argv, {{"records"}, {"key_range"}, {"repeats"}},
      "[--json PATH] [--report PATH]");
  const std::size_t records = args[0].value_or(1'000'000);
  const std::size_t key_range = args[1].value_or(records / 16 + 1);
  const std::size_t repeats = args[2].value_or(3);

  arbor::bench::banner(
      "E-level1: central stable_sort vs. engine-backed record sample sort",
      "Claim: the distributed Level-1 sort reaches >= 1.5x central "
      "throughput at parallel(8) on a 1M-record input (multicore "
      "hardware; reported regardless), bit-identical output and ledger; "
      "the splitter-tree strategy removes the coordinator's Θ(p·s) "
      "splitter hot-spot at every cluster width.");

  arbor::util::SplitRng rng(17);
  std::vector<Record> input;
  input.reserve(records);
  for (std::size_t i = 0; i < records; ++i)
    input.emplace_back(rng.next_below(key_range), i);

  // A paper-shaped cluster big enough to hold 2 words per record.
  const ClusterConfig base =
      ClusterConfig::for_problem(records, records, 0.5);
  std::printf("records=%zu key_range=%zu repeats=%zu  cluster: M=%zu "
              "S=%zu  (hardware threads: %u)\n\n",
              records, key_range, repeats, base.num_machines,
              base.words_per_machine, std::thread::hardware_concurrency());

  // Metrics on for the whole run: each row's route-round latency p50 comes
  // from the round_us.sample_sort.tree.route histogram the scheduler
  // observes (purely observational — outputs stay bit-identical).
  arbor::trace::Tracer::global().force_metrics(true);
  const std::string kRouteHist = "round_us.sample_sort.tree.route";

  arbor::bench::JsonReport report("level1_sort");
  report.meta("records", records)
      .meta("key_range", key_range)
      .meta("repeats", repeats)
      .meta("machines", base.num_machines)
      .meta("words_per_machine", base.words_per_machine);
  // The effective ARBOR_* knobs are stamped uniformly by write_file.

  struct Config {
    const char* name;
    bool distributed;
    bool aggregate;
    bool merge;
    ExecutionPolicy policy;
  };
  const Config configs[] = {
      {"central", false, true, true, ExecutionPolicy::serial()},
      {"dist/serial/no-agg", true, false, true, ExecutionPolicy::serial()},
      {"dist/serial/no-merge", true, true, false, ExecutionPolicy::serial()},
      {"dist/serial", true, true, true, ExecutionPolicy::serial()},
      {"dist/parallel(2)", true, true, true, ExecutionPolicy::parallel(2)},
      {"dist/parallel(4)", true, true, true, ExecutionPolicy::parallel(4)},
      {"dist/parallel(8)", true, true, true, ExecutionPolicy::parallel(8)},
  };

  arbor::bench::Table table({"path", "ms", "Mrec/s", "speedup",
                             "route_p50_us", "ledger_rounds"});
  Outcome central;
  double speedup_at_8 = 0;
  double route_p50_agg = 0, route_p50_noagg = 0;
  double route_p50_par8 = 0;
  double merge_secs = 0, no_merge_secs = 0;
  for (const Config& config : configs) {
    ClusterConfig cfg = base;
    cfg.distributed_level1 = config.distributed;
    cfg.route_aggregation = config.aggregate;
    cfg.merge_path = config.merge;
    cfg.execution = config.policy;
    const std::size_t route_skip = sample_count(kRouteHist);
    const Outcome out = run_sort(input, cfg, repeats);
    const arbor::bench::Percentiles route_us =
        arbor::bench::percentiles(samples_since(kRouteHist, route_skip));
    if (!config.distributed) {
      central = out;
    } else if (out.sorted != central.sorted ||
               out.ledger_rounds != central.ledger_rounds) {
      std::fprintf(stderr,
                   "FATAL: %s disagrees with the central path "
                   "(output/ledger mismatch)\n",
                   config.name);
      return 1;
    }
    // Row-name lookups, never positional: the config table is reordered
    // freely without silently zeroing the headline numbers.
    if (std::strcmp(config.name, "dist/parallel(8)") == 0) {
      speedup_at_8 = central.secs / out.secs;
      route_p50_par8 = route_us.p50;
    }
    if (std::strcmp(config.name, "dist/serial") == 0) {
      route_p50_agg = route_us.p50;
      merge_secs = out.secs;
    }
    if (std::strcmp(config.name, "dist/serial/no-agg") == 0)
      route_p50_noagg = route_us.p50;
    if (std::strcmp(config.name, "dist/serial/no-merge") == 0)
      no_merge_secs = out.secs;
    table.add_row({config.name, arbor::bench::fmt(out.secs * 1e3, 1),
                   arbor::bench::fmt(records / out.secs / 1e6, 2),
                   arbor::bench::fmt(central.secs / out.secs, 2),
                   arbor::bench::fmt(route_us.p50, 1),
                   arbor::bench::fmt(out.ledger_rounds)});
    report.row()
        .set("section", "level1")
        .set("path", config.name)
        .set("backend", config.distributed ? "distributed" : "central")
        .set("variant", "level1")
        .set("threads", config.policy.effective_threads())
        .set("route_aggregation", config.aggregate)
        .set("merge_path", config.merge)
        .set("ms", out.secs * 1e3)
        .set("mrec_per_sec", records / out.secs / 1e6)
        .set("speedup_vs_central", central.secs / out.secs)
        .set("route_us_p50", route_us.p50)
        .set("route_us_p95", route_us.p95)
        .set("ledger_rounds", out.ledger_rounds);
  }
  table.print();

  std::printf("\nspeedup at parallel(8) vs central: %.2fx (target >= 1.5x "
              "on multicore hardware)\n",
              speedup_at_8);
  std::printf("route round p50: %.1fus aggregated vs %.1fus per-record "
              "(%.2fx)\n",
              route_p50_agg, route_p50_noagg,
              route_p50_agg > 0 ? route_p50_noagg / route_p50_agg : 0.0);
  // Parallel zero-copy scatter: the route rounds used to fall back to the
  // serial fused path under parallel policies; the staged direct scatter
  // must keep their p50 within ~1.2x of strict-serial.
  std::printf("route round p50 at parallel(8): %.1fus (%.2fx of serial)\n",
              route_p50_par8,
              route_p50_agg > 0 ? route_p50_par8 / route_p50_agg : 0.0);
  // Merge path: k-way merges of already-sorted inbox runs vs. the
  // wholesale re-sort baseline, same route, same output.
  const double merge_speedup =
      merge_secs > 0 ? no_merge_secs / merge_secs : 0.0;
  std::printf("merge path dist/serial: %.1fms merged vs %.1fms re-sort "
              "(%.2fx, target >= 1.25x)\n\n",
              merge_secs * 1e3, no_merge_secs * 1e3, merge_speedup);
  report.meta("speedup_at_8", speedup_at_8)
      .meta("route_us_p50_agg", route_p50_agg)
      .meta("route_us_p50_noagg", route_p50_noagg)
      .meta("route_us_p50_parallel8", route_p50_par8)
      .meta("merge_path_speedup", merge_speedup);

  // ---------------- coordinator vs. splitter tree at several widths
  const std::size_t ab_records = std::min<std::size_t>(records, 200'000);
  const std::size_t samples = 32;
  arbor::bench::Table ab({"machines", "variant", "ms", "rounds",
                          "splitter_peak_w", "route_peak_w", "speedup"});
  for (const std::size_t machines : {64u, 256u, 512u}) {
    std::vector<std::vector<Word>> slabs(machines);
    const std::size_t per = (ab_records + machines - 1) / machines;
    arbor::util::SplitRng ab_rng(23);
    std::size_t idx = 0;
    for (auto& slab : slabs) {
      const std::size_t count = std::min(per, ab_records - idx);
      slab.reserve(count * 2);
      for (std::size_t i = 0; i < count; ++i, ++idx) {
        slab.push_back(ab_rng.next_below(key_range));
        slab.push_back(idx);
      }
      if (idx >= ab_records) break;
    }

    StrategyOutcome coordinator;
    for (const SplitterStrategy strategy :
         {SplitterStrategy::kCoordinator, SplitterStrategy::kTree}) {
      const bool is_tree = strategy == SplitterStrategy::kTree;
      const StrategyOutcome out =
          run_strategy(slabs, machines, samples, strategy, repeats);
      if (!is_tree) {
        coordinator = out;
      } else if (out.flat != coordinator.flat) {
        std::fprintf(stderr,
                     "FATAL: tree and coordinator sorts disagree at "
                     "machines=%zu\n",
                     machines);
        return 1;
      }
      const char* variant = is_tree ? "tree" : "coordinator";
      ab.add_row({arbor::bench::fmt(machines), variant,
                  arbor::bench::fmt(out.secs * 1e3, 1),
                  arbor::bench::fmt(out.rounds),
                  arbor::bench::fmt(out.splitter_peak),
                  arbor::bench::fmt(out.route_peak),
                  arbor::bench::fmt(coordinator.secs / out.secs, 2)});
      report.row()
          .set("section", "splitter_ab")
          .set("backend", "serial")
          .set("variant", variant)
          .set("machines", machines)
          .set("records", ab_records)
          .set("samples_per_machine", samples)
          .set("ms", out.secs * 1e3)
          .set("rounds", out.rounds)
          .set("splitter_peak_words", out.splitter_peak)
          .set("route_peak_words", out.route_peak)
          .set("speedup_vs_coordinator", coordinator.secs / out.secs);
    }
  }
  std::printf("splitter strategy A/B (%zu records, %zu samples/machine):\n",
              ab_records, samples);
  ab.print();

  if (!json_path.empty()) report.write_file(json_path);
  if (!report_path.empty())
    arbor::obs::ReportLog::global().write_json_file(report_path);
  return 0;
}
