// Tests for the run tracing + metrics telemetry (src/trace/):
//
//   * strict ARBOR_TRACE flag parsing and percentile math;
//   * tracing is observation only — outputs and ledger totals are
//     bit-identical with tracing off or full, across {serial, parallel} ×
//     {async on, off} × {in-process, loopback, tcp:2};
//   * the emitted Chrome trace is valid JSON (a real parse, not a grep)
//     with at least one span per named step of the tree sample sort;
//   * a traced tcp worker group ships spans and metrics back: the merged
//     report carries both workers' lanes, and the driver-side
//     cluster.round_words.* counters match the ledger's per-label traffic
//     totals exactly;
//   * a traced mpc_color attributes its cone gauge and its per-layer
//     coloring (palettes + induced + list_color) to spans nested under the
//     coloring stage span.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/coloring_mpc.hpp"
#include "core/exponentiate.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/ledger.hpp"
#include "mpc/sample_sort.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::trace {
namespace {

using mpc::ClusterConfig;
using mpc::TransportConfig;
using mpc::Word;

// ------------------------------------------------------------- parsing

TEST(TraceFlag, ParsesStrictly) {
  EXPECT_EQ(parse_trace_flag("off", "ARBOR_TRACE"),
            (TraceConfig{Mode::kOff, ""}));
  EXPECT_EQ(parse_trace_flag("spans", "ARBOR_TRACE"),
            (TraceConfig{Mode::kSpans, ""}));
  EXPECT_EQ(parse_trace_flag("full", "ARBOR_TRACE"),
            (TraceConfig{Mode::kFull, ""}));
  EXPECT_EQ(parse_trace_flag("full:/tmp/t.json", "ARBOR_TRACE"),
            (TraceConfig{Mode::kFull, "/tmp/t.json"}));
  EXPECT_EQ(parse_trace_flag("spans:out.json", "ARBOR_TRACE"),
            (TraceConfig{Mode::kSpans, "out.json"}));

  const auto rejected = [](std::string_view value,
                           std::string_view fragment) {
    try {
      parse_trace_flag(value, "ARBOR_TRACE");
      FAIL() << "expected rejection of " << value;
    } catch (const InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ARBOR_TRACE=\"" + std::string(value) + "\""),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  rejected("verbose", "not a trace mode");
  rejected("Full", "not a trace mode");  // strict: no case folding
  rejected("", "not a trace mode");
  rejected("full:", "trace path is empty");
  rejected("off:file.json", "the off mode takes no trace path");
}

TEST(Percentile, NearestRankOnKnownSamples) {
  const std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(sorted, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 95), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 99), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50), 0.0);
}

TEST(Metrics, RegistryMergesDeterministically) {
  MetricsRegistry a;
  a.add("words", 10);
  a.observe("lat", 1.0);
  a.observe("lat", 3.0);

  MetricsRegistry b;
  b.add("words", 32);
  HistogramSnapshot h;
  h.name = "lat";
  h.count = 1;
  h.sum = 2.0;
  h.samples = {2.0};
  b.merge({{"words", 5}}, {h});
  EXPECT_EQ(b.counter("words"), 37u);

  a.merge({{"words", 37}}, {h});
  EXPECT_EQ(a.counter("words"), 47u);
  const auto lat = a.histogram("lat");
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->sum, 6.0);
  // Merged samples append in arrival order (sorted only for percentiles):
  // the registry preserves exactly what each rank shipped.
  EXPECT_EQ(lat->samples, (std::vector<double>{1.0, 3.0, 2.0}));
  EXPECT_FALSE(a.counter("missing").has_value());
}

// ------------------------------------------------ perturbation matrix

struct SortRun {
  std::vector<std::vector<Word>> slabs;
  std::size_t total_rounds = 0;
  std::map<std::string, std::size_t> rounds_by_label;
  std::map<std::string, std::size_t> traffic_by_label;
  std::size_t peak_traffic = 0;
};

std::vector<std::vector<Word>> sort_input(std::size_t machines,
                                          std::size_t per_machine) {
  util::SplitRng rng(97);
  std::vector<std::vector<Word>> slabs(machines);
  for (auto& slab : slabs)
    for (std::size_t i = 0; i < per_machine; ++i)
      slab.push_back(rng.next_below(Word{1} << 30));
  return slabs;
}

ClusterConfig sort_config(std::size_t machines, std::size_t per_machine,
                          std::size_t samples) {
  const std::size_t total = machines * per_machine;
  return ClusterConfig{machines, 2 * total + machines * (samples + 1) +
                                     machines * machines};
}

SortRun run_sort(ClusterConfig cfg) {
  const std::size_t machines = cfg.num_machines;
  const std::size_t samples = 8;
  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  const mpc::SampleSortResult sorted =
      sample_sort(cluster, sort_input(machines, 64), samples);
  SortRun run;
  run.slabs = sorted.slabs;
  run.total_rounds = ledger.total_rounds();
  run.rounds_by_label = ledger.rounds_by_label();
  run.traffic_by_label = ledger.traffic_words_by_label();
  run.peak_traffic = ledger.peak_round_traffic();
  return run;
}

TEST(TracePerturbation, OffAndFullAreBitIdenticalAcrossBackends) {
  Tracer& tracer = Tracer::global();
  // Save/restore the global mode (cluster configs RAISE it), and drop the
  // spans this test records so later tests see a clean registry.
  ScopedMode guard(tracer, tracer.mode());

  struct Backend {
    const char* name;
    mpc::ExecutionPolicy policy;
    TransportConfig transport{};
  };
  const Backend backends[] = {
      {"serial", mpc::ExecutionPolicy::serial()},
      {"parallel/strict", mpc::ExecutionPolicy::parallel(2).with_async(false)},
      {"parallel/async", mpc::ExecutionPolicy::parallel(2).with_async(true)},
      {"loopback:2", mpc::ExecutionPolicy::serial(), TransportConfig::loopback(2)},
      {"tcp:2", mpc::ExecutionPolicy::serial(), TransportConfig::tcp(2)},
  };
  for (const Backend& backend : backends) {
    ClusterConfig cfg = sort_config(8, 64, 8);
    cfg.execution = backend.policy;
    cfg.transport = backend.transport;

    cfg.trace = TraceConfig{Mode::kOff, ""};
    const SortRun off = run_sort(cfg);
    cfg.trace = TraceConfig{Mode::kFull, ""};
    const SortRun full = run_sort(cfg);

    EXPECT_EQ(off.slabs, full.slabs) << backend.name;
    EXPECT_EQ(off.total_rounds, full.total_rounds) << backend.name;
    EXPECT_EQ(off.rounds_by_label, full.rounds_by_label) << backend.name;
    EXPECT_EQ(off.traffic_by_label, full.traffic_by_label) << backend.name;
    EXPECT_EQ(off.peak_traffic, full.peak_traffic) << backend.name;
    EXPECT_GT(full.total_rounds, 0u) << backend.name;
  }
  tracer.clear();
}

// ------------------------------------------------------- trace output

TEST(TraceOutput, ValidJsonWithASpanPerNamedStep) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, tracer.mode());
  tracer.clear();

  ClusterConfig cfg = sort_config(16, 64, 8);
  cfg.trace = TraceConfig{Mode::kFull, ""};
  const SortRun run = run_sort(cfg);
  ASSERT_FALSE(run.rounds_by_label.empty());
  EXPECT_GT(tracer.span_count(), 0u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string body = os.str();

  const JsonCheckResult check = check_json(body);
  EXPECT_TRUE(check.ok) << check.error << " at byte " << check.offset
                        << "\n"
                        << body.substr(0, 400);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"metrics\""), std::string::npos);

  // Every named step the ledger charged appears in at least one span name
  // (the scheduler tags compute/route/deliver spans with the step label).
  for (const auto& [label, rounds] : run.rounds_by_label) {
    EXPECT_NE(body.find(label), std::string::npos)
        << "no span mentions step " << label;
  }
  // The tree sort's named steps specifically (PR 5's labels).
  EXPECT_NE(body.find("sample_sort."), std::string::npos);
  tracer.clear();
}

TEST(TraceOutput, DisabledTracerRecordsNothing) {
  Tracer tracer;  // defaults to kOff
  { Span s = tracer.span("engine", "compute x"); }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.metrics().empty());
  EXPECT_TRUE(tracer.drain_telemetry().empty());
}

// -------------------------------------------------- worker telemetry

TEST(TraceTelemetry, TcpWorkersShipSpansAndMetricsMatchingLedger) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, tracer.mode());
  tracer.clear();

  ClusterConfig cfg = sort_config(8, 64, 8);
  cfg.transport = TransportConfig::tcp(2);
  cfg.trace = TraceConfig{Mode::kFull, ""};

  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  const mpc::SampleSortResult sorted =
      sample_sort(cluster, sort_input(8, 64), 8);
  ASSERT_FALSE(sorted.slabs.empty());

  // Driver-side counters mirror the ledger charge exactly, label by label.
  const auto& traffic = ledger.traffic_words_by_label();
  ASSERT_FALSE(traffic.empty());
  for (const auto& [label, words] : traffic) {
    const auto counter = tracer.metrics().counter("cluster.round_words." + label);
    ASSERT_TRUE(counter.has_value()) << label;
    EXPECT_EQ(*counter, words) << label;
  }
  for (const auto& [label, rounds] : ledger.rounds_by_label()) {
    const auto counter = tracer.metrics().counter("cluster.rounds." + label);
    ASSERT_TRUE(counter.has_value()) << label;
    EXPECT_EQ(*counter, rounds) << label;
  }

  // Both workers shipped telemetry: the merged trace has driver + two
  // worker process lanes, and worker-side per-step metrics arrived.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string body = os.str();
  EXPECT_TRUE(check_json(body).ok);
  EXPECT_NE(body.find("\"driver\""), std::string::npos);
  EXPECT_NE(body.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(body.find("\"worker 1\""), std::string::npos);
  bool saw_worker_metric = false;
  for (const auto& [name, value] : tracer.metrics().counters())
    if (name.rfind("net.sent_words.", 0) == 0 && value > 0)
      saw_worker_metric = true;
  EXPECT_TRUE(saw_worker_metric)
      << "no net.sent_words.* counter arrived via telemetry";
  tracer.clear();
}

// ------------------------------------------------- pipeline stage spans

TEST(TraceStages, ColoringNestsConeGaugeAndLayerSpans) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, Mode::kSpans);
  tracer.clear();

  util::SplitRng rng(6);
  const graph::Graph g = graph::forest_union(5000, 2, rng);
  const ClusterConfig cfg =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  const core::MpcColoringResult result = core::mpc_color(g, {}, ctx);
  ASSERT_TRUE(graph::check_coloring(g, result.colors).proper);
  ASSERT_GE(result.blocks, 1u);  // the blocked descent ran, so did the gauge

  const TelemetryBlob blob = tracer.drain_telemetry();
  std::vector<TelemetrySpan> coloring;
  for (const TelemetrySpan& span : blob.spans)
    if (span.category == "mpc" && span.name == "coloring")
      coloring.push_back(span);
  ASSERT_EQ(coloring.size(), 1u);
  const TelemetrySpan& stage = coloring.front();

  std::map<std::string, std::size_t> nested;
  for (const TelemetrySpan& span : blob.spans) {
    if (span.name != "color.cone_gauge" && span.name != "color.layer")
      continue;
    EXPECT_EQ(span.category, "mpc") << span.name;
    EXPECT_EQ(span.tid, stage.tid) << span.name;
    EXPECT_GE(span.start_ns, stage.start_ns) << span.name;
    EXPECT_LE(span.start_ns + span.dur_ns, stage.start_ns + stage.dur_ns)
        << span.name;
    ++nested[span.name];
  }
  // One gauge per block; one layer span per non-empty layer, and every
  // block colors at least one layer.
  EXPECT_GE(nested["color.cone_gauge"], 1u);
  EXPECT_LE(nested["color.cone_gauge"], result.blocks);
  EXPECT_GE(nested["color.layer"], result.blocks);
  tracer.clear();
}

TEST(TraceStages, LayeringNestsExponentiateSpans) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, Mode::kSpans);
  tracer.clear();

  util::SplitRng rng(6);
  const graph::Graph g = graph::forest_union(5000, 4, rng);
  const ClusterConfig cfg =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
  {
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger);
    const core::MpcOrientationResult result = core::mpc_orient(g, {}, ctx);
    ASSERT_LE(result.orientation.max_outdegree(g), result.outdegree_bound);
  }

  const char* const kStepSpans[] = {"exponentiate.prune", "exponentiate.fetch",
                                    "exponentiate.attach"};
  TelemetryBlob blob = tracer.drain_telemetry();
  std::vector<TelemetrySpan> stages;
  std::map<std::string, std::vector<TelemetrySpan>> steps;
  for (const TelemetrySpan& span : blob.spans) {
    if (span.category != "mpc") continue;
    if (span.name == "layering.partial_iterated") stages.push_back(span);
    for (const char* name : kStepSpans)
      if (span.name == name) steps[name].push_back(span);
  }
  ASSERT_FALSE(stages.empty());
  ASSERT_FALSE(steps["exponentiate.prune"].empty());
  for (const auto& [name, spans] : steps) {
    // One of each per exponentiation step.
    EXPECT_EQ(spans.size(), steps["exponentiate.prune"].size()) << name;
    for (const TelemetrySpan& span : spans) {
      const bool nested = std::any_of(
          stages.begin(), stages.end(), [&](const TelemetrySpan& stage) {
            return span.tid == stage.tid && span.start_ns >= stage.start_ns &&
                   span.start_ns + span.dur_ns <=
                       stage.start_ns + stage.dur_ns;
          });
      EXPECT_TRUE(nested) << name << " outside layering.partial_iterated";
    }
  }
  // Within a step the phases run in order: prune, fetch, attach.
  for (std::size_t i = 0; i < steps["exponentiate.prune"].size(); ++i) {
    const TelemetrySpan& prune = steps["exponentiate.prune"][i];
    const TelemetrySpan& fetch = steps["exponentiate.fetch"][i];
    const TelemetrySpan& attach = steps["exponentiate.attach"][i];
    EXPECT_LE(prune.start_ns + prune.dur_ns, fetch.start_ns) << i;
    EXPECT_LE(fetch.start_ns + fetch.dur_ns, attach.start_ns) << i;
  }

  // A direct call with s steps opens exactly s spans of each kind.
  tracer.clear();
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  const core::ExponentiateParams params{/*budget=*/64, /*prune_k=*/4,
                                        /*steps=*/3};
  (void)core::exponentiate_and_local_prune(g, params, ctx);
  blob = tracer.drain_telemetry();
  std::map<std::string, std::size_t> direct;
  for (const TelemetrySpan& span : blob.spans) ++direct[span.name];
  for (const char* name : kStepSpans) EXPECT_EQ(direct[name], 3u) << name;
  tracer.clear();
}

}  // namespace
}  // namespace arbor::trace
