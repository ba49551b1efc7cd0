// End-to-end benchmark of arbor's two headline operations: core::mpc_orient
// (Theorem 1.1) and core::mpc_color (Theorem 1.2), called exactly as a user
// calls them, on one generated graph per workload.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//   e2e_bench --selftest
//
// --trace 0 times (orient, color) pairs with tracing off for S seconds, each
// after one pass of a fixed host canary, and prints the end-to-end metrics:
// the fastest calls of each kind in units of the fastest canary passes.
// --trace 1 is the separate attribution run: each iteration times one
// untraced pair, one pair under full tracing, and then the benchmark's own
// spans around direct calls into the public functions of graph, core, local
// and mpc, tagged with the iteration they explain; engine time comes from
// the engine's own spans and round histogram inside the traced pair. Every
// pipeline call is validated (proper and complete coloring, out-degree within
// the returned bound, and the same output fingerprint as the run's first
// call). --selftest injects each fault into a real result and shows it
// counted by name, then runs every workload at the reference seed and a
// held-out seed.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it stamp the host, the
// pinned configuration and the per-run sample counts. e2ebench/workloads.json
// records why each workload exists and which layer metric should move which
// end-to-end metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/coloring_mpc.hpp"
#include "core/layering_pipeline.hpp"
#include "core/orientation_mpc.hpp"
#include "core/partitioning.hpp"
#include "engine/engine.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "local/list_coloring.hpp"
#include "mpc/primitives.hpp"
#include "obs/watchdog.hpp"
#include "trace/trace.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace {

using namespace arbor;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ------------------------------------------------------------- workloads

constexpr double kDelta = 0.6;
constexpr std::size_t kSetupReps = 5;   // setup_s is the median of these
constexpr std::size_t kMinPairs = 5;    // timed pairs per run, at least
// Every run measures the graph of the workload's generator at the
// reference seed: the cost of one call moves with the generator seed far
// more than with the code (color_ms on forest-serial spans 664-1299 ms over
// generator seeds 1-10), so a seed-dependent input would swamp any bound.
// The run's --seed orders the calls instead, and --selftest covers the
// held-out generator seed.
constexpr std::uint64_t kReferenceSeed = 7;
constexpr std::uint64_t kHeldOutSeed = 11;

graph::Graph forest_graph(std::uint64_t seed) {
  util::SplitRng rng(seed);
  return graph::forest_union(100000, 4, rng);
}
graph::Graph ba_graph(std::uint64_t seed) {
  util::SplitRng rng(seed);
  return graph::barabasi_albert(100000, 4, rng);
}
graph::Graph planted_graph(std::uint64_t seed) {
  util::SplitRng rng(seed);
  return graph::planted_clique(200000, 800000, 200, rng);
}

struct Workload {
  std::string_view name;
  graph::Graph (*generate)(std::uint64_t seed);
  bool distributed_level1;
  std::size_t threads;  ///< 1 = ExecutionPolicy::serial()
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"forest-serial", forest_graph, false, 1},
    {"ba-dist-par2", ba_graph, true, 2},
    {"planted-partitioned", planted_graph, false, 1},
}};

/// Every ClusterConfig field set explicitly, so no ARBOR_* environment
/// override can change what a workload measures.
mpc::ClusterConfig pinned_config(const Workload& w, const graph::Graph& g,
                                 trace::Mode mode) {
  mpc::ClusterConfig cfg = mpc::ClusterConfig::for_problem(
      g.num_vertices(), g.num_edges(), kDelta);
  cfg.execution = w.threads > 1 ? engine::ExecutionPolicy::parallel(w.threads)
                                : engine::ExecutionPolicy::serial();
  cfg.execution.async_rounds = true;
  cfg.execution.check = false;
  cfg.distributed_level1 = w.distributed_level1;
  cfg.route_aggregation = true;
  cfg.merge_path = true;
  cfg.fetch_cache = true;
  cfg.transport = mpc::TransportConfig::in_process_default();
  cfg.trace = trace::TraceConfig{mode, ""};
  return cfg;
}

/// Pin the process-wide tracer, which ARBOR_TRACE would otherwise set.
void set_tracing(trace::Mode mode) {
  trace::Tracer::global().set_mode(mode);
  trace::Tracer::global().force_metrics(false);
}

// ----------------------------------------------------------- host canary

/// A fixed pass of host work timed before every pipeline pair: one slice of
/// each kind of work the pipeline does - a dependent integer-mixing chain, a
/// pointer chase within one core's 2 MiB L2, a pointer chase and a random
/// gather over 64 MiB of DRAM, a sort of 256K keys and a sequential scan of
/// 32 MiB. It calls no arbor code, so a code change never moves it. The
/// end-to-end times are divided by its fastest passes: the host's shared
/// caches, memory and clocks shift speed by 20-50% for minutes at a time.
/// The canary slows by about half as much as the pipeline does, so the
/// quotient still drifts, but half as far as the raw times; no single kind
/// of work above tracked every shift as well as their sum.
class HostCanary {
 public:
  HostCanary()
      : l2_ring_(ring(std::size_t{1} << 19)),
        dram_ring_(ring(std::size_t{1} << 24)),
        keys_(std::size_t{1} << 18) {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      keys_[i] = static_cast<std::uint32_t>(mix(i));
    (void)pass_ms();  // fault every buffer in
  }

  double pass_ms() {
    const auto t0 = Clock::now();
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) h = mix(h ^ i);
    std::uint32_t at = static_cast<std::uint32_t>(h % l2_ring_.size());
    for (std::size_t i = 0; i < 250'000; ++i) at = l2_ring_[at];
    for (std::size_t i = 0; i < 100'000; ++i) at = dram_ring_[at];
    std::uint64_t sum = at;
    for (std::uint64_t i = 0; i < 500'000; ++i)
      sum += dram_ring_[mix(i) % dram_ring_.size()];
    scratch_ = keys_;
    std::sort(scratch_.begin(), scratch_.end());
    sum += scratch_[sum % scratch_.size()];
    for (std::size_t i = 0; i < dram_ring_.size() / 2; ++i)
      sum += dram_ring_[i];
    const double ms = ms_between(t0, Clock::now());
    volatile std::uint64_t sink = sum;
    (void)sink;
    return ms;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  /// A random single cycle through [0, size) (Sattolo's shuffle).
  static std::vector<std::uint32_t> ring(std::size_t size) {
    std::vector<std::uint32_t> r(size);
    for (std::size_t i = 0; i < size; ++i) r[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = size - 1; i > 0; --i) std::swap(r[i], r[mix(i) % i]);
    return r;
  }

  std::vector<std::uint32_t> l2_ring_;
  std::vector<std::uint32_t> dram_ring_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> scratch_;
};

// -------------------------------------------------------- pipeline calls

/// One (mpc_orient, mpc_color) pair on a fresh context each, sharing the
/// run's engine; `color_first` swaps the order of the two calls.
struct PipelineRun {
  explicit PipelineRun(const mpc::ClusterConfig& cfg)
      : orient_ledger(cfg), color_ledger(cfg) {}
  std::optional<core::MpcOrientationResult> orient;
  std::optional<core::MpcColoringResult> color;
  mpc::RoundLedger orient_ledger;
  mpc::RoundLedger color_ledger;
  std::size_t executed_rounds = 0;  ///< Level-1 sort rounds both calls ran
  double orient_ms = 0.0;
  double color_ms = 0.0;
};

PipelineRun run_pipeline(const graph::Graph& g, const mpc::ClusterConfig& cfg,
                         engine::Engine& eng, bool color_first = false) {
  PipelineRun run(cfg);
  const auto orient = [&] {
    mpc::MpcContext ctx(cfg, &run.orient_ledger, &eng);
    const auto t0 = Clock::now();
    try {
      run.orient.emplace(core::mpc_orient(g, core::OrientationParams{}, ctx));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mpc_orient threw: %s\n", e.what());
    }
    run.orient_ms = ms_between(t0, Clock::now());
    run.executed_rounds += ctx.level1_sort_grounding()->total_rounds();
  };
  const auto color = [&] {
    mpc::MpcContext ctx(cfg, &run.color_ledger, &eng);
    const auto t0 = Clock::now();
    try {
      run.color.emplace(core::mpc_color(g, core::ColoringParams{}, ctx));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mpc_color threw: %s\n", e.what());
    }
    run.color_ms = ms_between(t0, Clock::now());
    run.executed_rounds += ctx.level1_sort_grounding()->total_rounds();
  };
  if (color_first) {
    color();
    orient();
  } else {
    orient();
    color();
  }
  return run;
}

// ------------------------------------------------------------ validation

std::uint64_t orient_fingerprint(const PipelineRun& run) {
  const auto& r = *run.orient;
  const auto& l = run.orient_ledger;
  std::uint64_t h = util::hash_words(0x0e1e, r.outdegree_bound, r.parts,
                                     r.k_used, l.total_rounds(),
                                     l.peak_local_words(),
                                     l.peak_global_words());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < r.orientation.num_edges(); ++i) {
    word = (word << 1) | (r.orientation.oriented_towards_v(i) ? 1 : 0);
    if (i % 64 == 63) h = util::hash_combine(h, word);
  }
  return util::hash_combine(h, word);
}

std::uint64_t color_fingerprint(const PipelineRun& run) {
  const auto& r = *run.color;
  const auto& l = run.color_ledger;
  std::uint64_t h = util::hash_words(0xc010, r.palette_size, r.parts, r.k_used,
                                     r.blocks, l.total_rounds(),
                                     l.peak_local_words(),
                                     l.peak_global_words());
  for (const graph::Color c : r.colors) h = util::hash_combine(h, c);
  return h;
}

/// The run's first call fixes the reference fingerprints.
struct References {
  std::optional<std::uint64_t> orient;
  std::optional<std::uint64_t> color;
};

std::optional<std::string> check_orient(const graph::Graph& g,
                                        const PipelineRun& run,
                                        References& ref) {
  if (!run.orient) return "orient_threw";
  if (run.orient->orientation.max_outdegree(g) > run.orient->outdegree_bound)
    return "outdegree_over_bound";
  const std::uint64_t fp = orient_fingerprint(run);
  if (!ref.orient) ref.orient = fp;
  if (fp != *ref.orient) return "orient_fingerprint_mismatch";
  return std::nullopt;
}

std::optional<std::string> check_color(const graph::Graph& g,
                                       const PipelineRun& run,
                                       References& ref) {
  if (!run.color) return "color_threw";
  const auto& colors = run.color->colors;
  if (colors.size() != g.num_vertices() ||
      std::any_of(colors.begin(), colors.end(), [&](graph::Color c) {
        return c >= run.color->palette_size;
      }))
    return "incomplete_coloring";
  if (!graph::check_coloring(g, colors).proper) return "improper_coloring";
  const std::uint64_t fp = color_fingerprint(run);
  if (!ref.color) ref.color = fp;
  if (fp != *ref.color) return "color_fingerprint_mismatch";
  return std::nullopt;
}

struct FailureTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> by_name;

  void record(const std::optional<std::string>& fault) {
    ++attempted;
    if (!fault) return;
    ++failed;
    ++by_name[*fault];
  }
  void record_pair(const graph::Graph& g, const PipelineRun& run,
                   References& ref) {
    record(check_orient(g, run, ref));
    record(check_color(g, run, ref));
  }
};

/// The paper costs and output qualities of one validated pair; they must
/// repeat exactly for a given seed.
struct Counts {
  std::size_t orient_rounds = 0;
  std::size_t color_rounds = 0;
  std::size_t peak_local_words = 0;
  std::size_t max_outdegree = 0;
  std::size_t outdegree_bound = 0;
  std::size_t colors_used = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts counts_of(const graph::Graph& g, const PipelineRun& run) {
  Counts c;
  c.orient_rounds = run.orient_ledger.total_rounds();
  c.color_rounds = run.color_ledger.total_rounds();
  c.peak_local_words = std::max(run.orient_ledger.peak_local_words(),
                                run.color_ledger.peak_local_words());
  if (run.orient) {
    c.max_outdegree = run.orient->orientation.max_outdegree(g);
    c.outdegree_bound = run.orient->outdegree_bound;
  }
  if (run.color) c.colors_used = graph::check_coloring(g, run.color->colors)
                                     .colors_used;
  return c;
}

// ---------------------------------------------------------------- output

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return raw(key, std::isfinite(value) ? buf : "null");
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    quoted.append(value).append("\"");
    return raw(key, quoted);
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_.append("\"").append(key).append("\": ").append(json);
    return *this;
  }
  JsonObject& metric(std::string_view key, double value,
                     std::string_view unit) {
    return raw(key, JsonObject().num("value", value).str("unit", unit).dump());
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string tally_json(const FailureTally& tally) {
  JsonObject o;
  for (const auto& [name, count] : tally.by_name)
    o.num(name, static_cast<double>(count));
  return o.dump();
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host, seed and every effective knob of the run, printed before the
/// result line.
std::string stamp_json(const Workload& w, std::uint64_t seed,
                       const mpc::ClusterConfig& cfg, const graph::Graph& g) {
  JsonObject knobs;
  knobs.num("delta", kDelta)
      .num("num_machines", static_cast<double>(cfg.num_machines))
      .num("words_per_machine", static_cast<double>(cfg.words_per_machine))
      .str("execution", cfg.execution.is_parallel() ? "parallel" : "serial")
      .num("threads", static_cast<double>(cfg.execution.effective_threads()))
      .raw("async_rounds", cfg.execution.async_rounds ? "true" : "false")
      .raw("checked", cfg.execution.check ? "true" : "false")
      .raw("distributed_level1", cfg.distributed_level1 ? "true" : "false")
      .raw("route_aggregation", cfg.route_aggregation ? "true" : "false")
      .raw("merge_path", cfg.merge_path ? "true" : "false")
      .raw("fetch_cache", cfg.fetch_cache ? "true" : "false")
      .str("transport", "inprocess")
      .str("estimator", "degeneracy_oracle")
      .raw("watchdog", "false");
  JsonObject stamp;
  stamp.str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("generator_seed", static_cast<double>(kReferenceSeed))
      .num("n", static_cast<double>(g.num_vertices()))
      .num("m", static_cast<double>(g.num_edges()))
      .num("hardware_threads", std::thread::hardware_concurrency())
      .num("nproc", static_cast<double>(affinity_cpus()))
      .raw("knobs", knobs.dump());
  return JsonObject().raw("stamp", stamp.dump()).dump();
}

// ----------------------------------------------------------------- setup

struct Setup {
  std::optional<graph::Graph> g;
  mpc::ClusterConfig cfg;
  std::unique_ptr<engine::Engine> engine;
  References ref;
  std::vector<double> rep_s;        ///< generation → warm pair done, per rep
  std::vector<double> generate_ms;  ///< graph generation alone, per rep
  std::optional<std::string> fault; ///< a warm-up call failed, or reps differ
};

/// Generate the graph, pin the config, bring up the one shared Engine and
/// run one validated warm-up pair — kSetupReps times, keeping the last.
/// Every rep must reproduce the first rep's output fingerprints.
Setup set_up(const Workload& w, std::uint64_t seed, std::size_t reps) {
  Setup s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    s.engine.reset();
    s.g.reset();
    const auto t0 = Clock::now();
    s.g.emplace(w.generate(seed));
    s.generate_ms.push_back(ms_between(t0, Clock::now()));
    s.cfg = pinned_config(w, *s.g, trace::Mode::kOff);
    s.engine = std::make_unique<engine::Engine>(s.cfg.execution);
    const PipelineRun warm = run_pipeline(*s.g, s.cfg, *s.engine);
    s.rep_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    FailureTally tally;
    tally.record_pair(*s.g, warm, s.ref);
    if (tally.failed && !s.fault)
      s.fault = "setup: " + tally.by_name.begin()->first;
  }
  return s;
}

std::string result_line(bool correct, const FailureTally& tally,
                        const JsonObject& metrics) {
  return JsonObject()
      .raw("correct", correct ? "true" : "false")
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed))
      .raw("metrics", metrics.dump())
      .dump();
}

// ------------------------------------------------------- untraced (e2e)

/// Mean of the kFastest smallest values: the run's least-loaded moments,
/// less noisy than the single fastest one.
constexpr std::size_t kFastest = 3;
double fastest(std::vector<double> v) {
  const std::size_t k = std::min(kFastest, v.size());
  std::partial_sort(v.begin(), v.begin() + k, v.end());
  return std::accumulate(v.begin(), v.begin() + k, 0.0) / k;
}

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  set_tracing(trace::Mode::kOff);
  Setup s = set_up(w, kReferenceSeed, kSetupReps);
  const graph::Graph& g = *s.g;
  std::printf("%s\n", stamp_json(w, seed, s.cfg, g).c_str());
  // The set-up's warm pairs already reached the calls' peak; read it before
  // the canary's buffers count towards it.
  const double rss_mb = peak_rss_mb();
  HostCanary canary;

  FailureTally tally;
  std::vector<double> orient_ms, color_ms, pair_ms, canary_ms;
  std::optional<Counts> counts;
  util::SplitRng order(seed);
  const auto start = Clock::now();
  while (orient_ms.size() < kMinPairs ||
         ms_between(start, Clock::now()) < seconds * 1000.0) {
    canary_ms.push_back(canary.pass_ms());
    const PipelineRun run =
        run_pipeline(g, s.cfg, *s.engine, order.next_below(2) == 1);
    tally.record_pair(g, run, s.ref);
    if (!counts) counts = counts_of(g, run);
    orient_ms.push_back(run.orient_ms);
    color_ms.push_back(run.color_ms);
    pair_ms.push_back(run.orient_ms + run.color_ms);
  }

  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  const auto [orient_min, orient_max] =
      std::minmax_element(orient_ms.begin(), orient_ms.end());
  const auto [color_min, color_max] =
      std::minmax_element(color_ms.begin(), color_ms.end());
  JsonObject detail;
  detail.num("timed_pairs", count(pair_ms.size()))
      .num("setup_reps", count(s.rep_s.size()))
      .num("orient_ms_min", *orient_min)
      .num("orient_ms_median", median(orient_ms))
      .num("orient_ms_max", *orient_max)
      .num("color_ms_min", *color_min)
      .num("color_ms_median", median(color_ms))
      .num("color_ms_max", *color_max)
      .num("canary_ms_min", *std::min_element(canary_ms.begin(),
                                               canary_ms.end()))
      .num("canary_ms_median", median(canary_ms))
      .num("outdegree_bound", count(counts->outdegree_bound))
      .raw("failures", tally_json(tally))
      .str("setup_fault", s.fault.value_or(""));
  std::printf("%s\n", JsonObject().raw("detail", detail.dump()).dump().c_str());

  // Each call's cost in passes of the host canary: the run's fastest calls
  // over the run's fastest canary passes, both taken while the host was
  // least loaded.
  const double pass_ms = fastest(canary_ms);
  const double edges = count(g.num_edges());
  JsonObject metrics;
  metrics.metric("orient_vs_canary", fastest(orient_ms) / pass_ms, "canary")
      .metric("color_vs_canary", fastest(color_ms) / pass_ms, "canary")
      .metric("edges_per_canary", edges / (fastest(pair_ms) / pass_ms),
              "edges/canary")
      .metric("setup_s", median(s.rep_s), "s")
      .metric("peak_rss_mb", rss_mb, "MB")
      .metric("orient_rounds", count(counts->orient_rounds), "rounds")
      .metric("color_rounds", count(counts->color_rounds), "rounds")
      .metric("peak_local_words", count(counts->peak_local_words), "words")
      .metric("max_outdegree", count(counts->max_outdegree), "edges")
      .metric("colors_used", count(counts->colors_used), "colors");
  const bool correct = tally.failed == 0 && !s.fault;
  std::printf("%s\n", result_line(correct, tally, metrics).c_str());
  return 0;
}

// ------------------------------------------------------- traced (layers)

/// Per-iteration layer timings, keyed by metric name.
using LayerTimes = std::map<std::string, double>;

/// The benchmark's own span around one call into a layer, tagged with the
/// iteration it explains ("graph.degeneracy_ms#3").
template <typename Fn>
auto layer_span(const std::string& metric, std::size_t iteration, Fn&& fn) {
  trace::Span span = trace::Tracer::global().span(
      "bench", metric + "#" + std::to_string(iteration));
  return fn();
}

/// Sum the drained bench spans of one iteration back into metric names.
LayerTimes bench_span_times(const trace::TelemetryBlob& blob) {
  LayerTimes times;
  for (const trace::TelemetrySpan& span : blob.spans) {
    if (span.category != "bench") continue;
    const std::string metric = span.name.substr(0, span.name.find('#'));
    times[metric] += static_cast<double>(span.dur_ns) / 1e6;
  }
  return times;
}

struct PipelineTrace {
  double partial_iterated_ms = 0.0;
  double engine_busy_ms = 0.0;
  std::vector<double> round_us;
};

PipelineTrace pipeline_trace(const trace::TelemetryBlob& blob) {
  PipelineTrace t;
  for (const trace::TelemetrySpan& span : blob.spans) {
    const double ms = static_cast<double>(span.dur_ns) / 1e6;
    if (span.name == "layering.partial_iterated") t.partial_iterated_ms += ms;
    if (span.category == "engine" && span.name.rfind("block ", 0) != 0)
      t.engine_busy_ms += ms;  // compute / route / deliver phases
  }
  for (const trace::HistogramSnapshot& h : blob.histograms)
    if (h.name == "round_us")
      t.round_us.insert(t.round_us.end(), h.samples.begin(), h.samples.end());
  return t;
}

/// mpc_color's per-layer step, top layer first: layer j's induced subgraph
/// list-colored from [0, palette) minus the final colors of its higher-layer
/// neighbours, with the pipeline's coin. True when every layer reproduces
/// the pipeline's colors.
bool replay_layer_colors(const graph::Graph& g, const core::LayerAssignment& a,
                         const core::MpcColoringResult& color,
                         std::size_t it) {
  const core::ColoringParams color_params;
  const util::StatelessCoin coin(color_params.seed);
  std::vector<std::vector<graph::VertexId>> members(a.num_layers + 1);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    members[a.layer[v]].push_back(v);
  bool matches = true;
  for (core::Layer j = a.num_layers; j >= 1; --j) {
    const graph::InducedSubgraph sub = layer_span(
        "graph.induced_ms", it, [&] { return g.induced(members[j]); });
    const std::size_t size = sub.to_original.size();
    const std::vector<std::uint64_t> keys(sub.to_original.begin(),
                                          sub.to_original.end());
    std::vector<std::vector<graph::Color>> palettes(size);
    for (std::size_t i = 0; i < size; ++i) {
      std::vector<bool> forbidden(color.palette_size, false);
      for (const graph::VertexId u : g.neighbors(sub.to_original[i]))
        if (a.layer[u] > j && color.colors[u] < forbidden.size())
          forbidden[color.colors[u]] = true;
      for (graph::Color c = 0; c < color.palette_size; ++c)
        if (!forbidden[c]) palettes[i].push_back(c);
    }
    const local::ListColoringResult out =
        layer_span("local.list_color_ms", it, [&] {
          return local::list_color(sub.graph, keys, palettes, coin, j,
                                   color_params.trials_per_layer);
        });
    for (std::size_t i = 0; i < size; ++i)
      if (!out.complete || out.colors[i] != color.colors[sub.to_original[i]])
        matches = false;
  }
  return matches;
}

struct LayerCheck {
  bool replay_matches = true;  ///< false: the layer replay is stale
  bool sorted = true;          ///< the Level-1 sort's output is in order
};

/// Direct calls into each layer's public functions, reproducing what the
/// iteration's traced pipeline pair computed.
LayerCheck time_layers(const graph::Graph& g, const mpc::ClusterConfig& cfg,
                       engine::Engine& eng, const PipelineRun& run,
                       std::size_t it) {
  bool matches = true;
  const std::size_t n = g.num_vertices();
  const std::size_t k = layer_span("graph.degeneracy_ms", it, [&] {
    return core::estimate_density_parameter(g);
  });
  const core::OrientationParams orient_params;
  const bool partitioned =
      static_cast<double>(k) >
      orient_params.high_k_factor *
          std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));

  if (partitioned) {
    // Lemmas 2.1 and 2.2: the two partitions, then the per-part layerings
    // mpc_orient computes on the edge parts.
    const std::size_t parts = core::partition_count(k, n);
    const core::EdgePartition edge_parts =
        layer_span("core.partition_ms", it, [&] {
          util::SplitRng orient_rng(orient_params.seed);
          core::EdgePartition ep =
              core::random_edge_partition(g, parts, orient_rng);
          util::SplitRng color_rng(core::ColoringParams{}.seed);
          (void)core::random_vertex_partition(g, parts, color_rng);
          return ep;
        });
    for (std::size_t p = 0; p < parts; ++p) {
      core::PipelineParams pipeline = orient_params.pipeline;
      pipeline.k = core::estimate_density_parameter(edge_parts.parts[p]);
      mpc::RoundLedger ledger(cfg);
      mpc::MpcContext ctx(cfg, &ledger, &eng);
      const core::CompleteLayeringResult layering =
          layer_span("core.layering_ms", it, [&] {
            return core::complete_layering(edge_parts.parts[p], pipeline, ctx);
          });
      if (p == 0 && run.orient &&
          layering.assignment.layer != run.orient->layering.layer)
        matches = false;
    }
  } else {
    core::PipelineParams pipeline = orient_params.pipeline;
    pipeline.k = k;
    mpc::RoundLedger ledger(cfg);
    mpc::MpcContext ctx(cfg, &ledger, &eng);
    const core::CompleteLayeringResult layering =
        layer_span("core.layering_ms", it, [&] {
          return core::complete_layering(g, pipeline, ctx);
        });
    matches = run.orient && run.color &&
              layering.assignment.layer == run.orient->layering.layer &&
              replay_layer_colors(g, layering.assignment, *run.color, it);
  }

  // The Level-1 sort primitive alone, on the graph's 2m endpoint keys.
  std::vector<mpc::Word> endpoints;
  endpoints.reserve(2 * g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    endpoints.push_back(e.u);
    endpoints.push_back(e.v);
  }
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger, &eng);
  layer_span("mpc.level1_sort_ms", it, [&] {
    ctx.sort_items_by_key(endpoints, [](mpc::Word x) { return x; }, 1,
                          "bench.endpoint_sort");
    return 0;
  });
  return {matches, std::is_sorted(endpoints.begin(), endpoints.end())};
}

std::size_t label_rounds(const PipelineRun& run, const std::string& label) {
  std::size_t total = 0;
  for (const mpc::RoundLedger* l : {&run.orient_ledger, &run.color_ledger}) {
    const auto it = l->rounds_by_label().find(label);
    if (it != l->rounds_by_label().end()) total += it->second;
  }
  return total;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  set_tracing(trace::Mode::kOff);
  HostCanary canary;
  Setup s = set_up(w, kReferenceSeed, kSetupReps);
  const graph::Graph& g = *s.g;
  const mpc::ClusterConfig traced_cfg =
      pinned_config(w, g, trace::Mode::kFull);
  std::printf("%s\n", stamp_json(w, seed, s.cfg, g).c_str());

  FailureTally tally;
  std::vector<double> untraced_ms, traced_ms, traced_orient, traced_color;
  std::vector<double> canary_ms;
  std::vector<LayerTimes> layers;
  std::vector<PipelineTrace> traces;
  std::optional<PipelineRun> first;
  bool replay_matches = true;
  bool sorted = true;
  util::SplitRng order(seed);
  const auto start = Clock::now();
  for (std::size_t it = 0;
       it < 2 || ms_between(start, Clock::now()) < seconds * 1000.0; ++it) {
    set_tracing(trace::Mode::kOff);
    canary_ms.push_back(canary.pass_ms());
    const bool color_first = order.next_below(2) == 1;
    const PipelineRun plain = run_pipeline(g, s.cfg, *s.engine, color_first);
    tally.record_pair(g, plain, s.ref);
    untraced_ms.push_back(plain.orient_ms + plain.color_ms);

    set_tracing(trace::Mode::kFull);
    (void)trace::Tracer::global().drain_telemetry();
    PipelineRun traced = run_pipeline(g, traced_cfg, *s.engine, color_first);
    tally.record_pair(g, traced, s.ref);
    traced_ms.push_back(traced.orient_ms + traced.color_ms);
    traced_orient.push_back(traced.orient_ms);
    traced_color.push_back(traced.color_ms);
    traces.push_back(pipeline_trace(trace::Tracer::global().drain_telemetry()));

    const LayerCheck check = time_layers(g, traced_cfg, *s.engine, traced, it);
    replay_matches &= check.replay_matches;
    sorted &= check.sorted;
    LayerTimes t = bench_span_times(trace::Tracer::global().drain_telemetry());
    t["core.color_self_ms"] = traced.color_ms - t["graph.degeneracy_ms"] -
                              t["core.layering_ms"] - t["graph.induced_ms"] -
                              t["local.list_color_ms"];
    layers.push_back(std::move(t));
    if (!first) first.emplace(std::move(traced));
  }
  set_tracing(trace::Mode::kOff);
  trace::Tracer::global().clear();
  if (!first->orient || !first->color) {
    std::fprintf(stderr, "a traced pipeline call threw: no layer metrics\n");
    return 1;
  }

  // n/a: layers the workload never calls (reported as 0 and listed).
  const PipelineRun& r = *first;
  const auto& o = *r.orient;
  const auto& c = *r.color;
  std::vector<std::string> na;
  if (o.parts == 1) na.push_back("core.partition_ms");
  if (o.parts > 1 || !replay_matches)
    for (const char* name :
         {"graph.induced_ms", "local.list_color_ms", "core.color_self_ms"})
      na.push_back(name);
  if (!w.distributed_level1)
    for (const char* name :
         {"engine.busy_ms", "engine.round_us_p50", "level1.executed_rounds"})
      na.push_back(name);
  std::string na_json = "[";
  for (const std::string& name : na)
    na_json += (na_json.size() > 1 ? ", \"" : "\"") + name + "\"";
  na_json += "]";

  const auto layer = [&](const std::string& name) {
    if (std::find(na.begin(), na.end(), name) != na.end()) return 0.0;
    std::vector<double> v;
    for (const LayerTimes& t : layers) {
      const auto f = t.find(name);
      v.push_back(f == t.end() ? 0.0 : f->second);
    }
    return median(v);
  };
  const auto trace_median = [&](double PipelineTrace::*field) {
    std::vector<double> v;
    for (const PipelineTrace& t : traces) v.push_back(t.*field);
    return median(v);
  };
  std::vector<double> round_us;
  for (const PipelineTrace& t : traces)
    round_us.insert(round_us.end(), t.round_us.begin(), t.round_us.end());
  std::sort(round_us.begin(), round_us.end());

  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  JsonObject detail;
  detail.num("iterations", count(layers.size()))
      .num("untraced_pair_ms", median(untraced_ms))
      .num("traced_pair_ms", median(traced_ms))
      .num("traced_orient_ms", median(traced_orient))
      .num("traced_color_ms", median(traced_color))
      .str("replay", replay_matches ? "reproduces pipeline" : "stale")
      .raw("level1_sort_sorted", sorted ? "true" : "false")
      .raw("na", na_json)
      .raw("failures", tally_json(tally))
      .str("setup_fault", s.fault.value_or(""));
  std::printf("%s\n", JsonObject().raw("detail", detail.dump()).dump().c_str());

  JsonObject m;
  m.metric("graph.generate_ms", median(s.generate_ms), "ms");
  for (const char* name :
       {"graph.degeneracy_ms", "graph.induced_ms", "core.layering_ms",
        "core.partition_ms"})
    m.metric(name, layer(name), "ms");
  m.metric("core.partial_iterated_ms",
           trace_median(&PipelineTrace::partial_iterated_ms), "ms");
  for (const char* name :
       {"core.color_self_ms", "local.list_color_ms", "mpc.level1_sort_ms"})
    m.metric(name, layer(name), "ms");
  m.metric("engine.busy_ms", trace_median(&PipelineTrace::engine_busy_ms), "ms")
      .metric("engine.round_us_p50",
              round_us.empty() ? 0.0 : trace::percentile(round_us, 50), "us")
      .metric("level1.executed_rounds", count(r.executed_rounds), "rounds")
      .metric("layering.phases", count(o.stats.phases), "count")
      .metric("layering.partial_iterations", count(o.stats.partial_iterations),
              "count")
      .metric("layering.escalations", count(o.stats.escalations), "count")
      .metric("color.blocks", count(c.blocks), "count")
      .metric("color.local_rounds_replayed", count(c.local_rounds_replayed),
              "rounds")
      .metric("color.max_sampled_cone_nodes", count(c.max_sampled_cone_nodes),
              "nodes")
      .metric("orient.parts", count(o.parts), "count")
      .metric("color.parts", count(c.parts), "count")
      .metric("orient.outdegree_bound", count(o.outdegree_bound), "edges")
      .metric("color.palette_size", count(c.palette_size), "colors");
  for (const char* label :
       {"layering.peel", "exponentiate.fetch", "partial_layering.min_project",
        "color.block_gather", "color.tail"})
    m.metric(std::string("rounds.") + label, count(label_rounds(r, label)),
             "rounds");
  m.metric("mpc.peak_global_words",
           count(std::max(r.orient_ledger.peak_global_words(),
                          r.color_ledger.peak_global_words())),
           "words")
      .metric("mpc.local_violations",
              count(r.orient_ledger.local_violations() +
                    r.color_ledger.local_violations()),
              "count")
      .metric("host.canary_ms", fastest(canary_ms), "ms")
      .metric("trace.overhead_pct",
              100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%")
      .metric("replay.stale", replay_matches ? 0.0 : 1.0, "count");
  const bool correct = tally.failed == 0 && !s.fault && sorted;
  std::printf("%s\n", result_line(correct, tally, m).c_str());
  return 0;
}

// -------------------------------------------------------------- selftest

bool expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok;
}

/// Inject each fault into a real validated result and show it counted as
/// failed under its own name.
bool selftest_faults() {
  const Workload w{"selftest-ba", nullptr, false, 1};
  util::SplitRng rng(kReferenceSeed);
  const graph::Graph g = graph::barabasi_albert(3000, 4, rng);
  const mpc::ClusterConfig cfg = pinned_config(w, g, trace::Mode::kOff);
  engine::Engine eng(cfg.execution);
  const PipelineRun clean = run_pipeline(g, cfg, eng);

  FailureTally tally;
  References ref;
  tally.record_pair(g, clean, ref);
  bool ok = expect(tally.failed == 0, "clean pair passes validation");

  const auto inject = [&](const std::string& name, auto&& corrupt,
                          bool orient_side) {
    PipelineRun bad = clean;
    corrupt(bad);
    const std::size_t before = tally.by_name[name];
    tally.record(orient_side ? check_orient(g, bad, ref)
                             : check_color(g, bad, ref));
    ok &= expect(tally.by_name[name] == before + 1,
                 "injected " + name + " is counted as failed by name");
  };

  inject("improper_coloring", [&](PipelineRun& bad) {
    const graph::Edge e = g.edges()[0];
    bad.color->colors[e.v] = bad.color->colors[e.u];
  }, false);
  inject("incomplete_coloring", [&](PipelineRun& bad) {
    bad.color->colors[0] = 0xffffffffu;
  }, false);
  inject("color_fingerprint_mismatch", [&](PipelineRun& bad) {
    // Still proper and complete: two color classes swap names.
    for (graph::Color& col : bad.color->colors)
      col = col == 0 ? 1 : col == 1 ? 0 : col;
  }, false);
  inject("outdegree_over_bound", [&](PipelineRun& bad) {
    // Point every edge of the highest-degree vertex away from it.
    graph::VertexId hub = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      if (g.degree(v) > g.degree(hub)) hub = v;
    std::vector<bool> towards_v(g.num_edges());
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      const graph::Edge e = g.edges()[i];
      const bool towards_v_now = bad.orient->orientation.oriented_towards_v(i);
      towards_v[i] = e.u == hub ? true : e.v == hub ? false : towards_v_now;
    }
    bad.orient->orientation = graph::Orientation(g, std::move(towards_v));
  }, true);
  inject("orient_fingerprint_mismatch", [&](PipelineRun& bad) {
    // One extra charged round: same edges, different costs.
    bad.orient_ledger.charge(1, "selftest.extra_round");
  }, true);
  inject("color_threw", [&](PipelineRun& bad) { bad.color.reset(); }, false);

  ok &= expect(tally.attempted == 8 && tally.failed == 6,
               "tally: 8 attempted, 6 failed " + tally_json(tally));
  return ok;
}

/// Each workload at the reference and the held-out seed: validators hold,
/// nothing fails, and a second pair repeats the first pair's counts.
bool selftest_seeds() {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const std::uint64_t seed : {kReferenceSeed, kHeldOutSeed}) {
      Setup s = set_up(w, seed, 1);
      FailureTally tally;
      std::vector<Counts> counts;
      for (int pair = 0; pair < 2; ++pair) {
        const PipelineRun run = run_pipeline(*s.g, s.cfg, *s.engine);
        tally.record_pair(*s.g, run, s.ref);
        counts.push_back(counts_of(*s.g, run));
      }
      const Counts& c = counts[0];
      const std::string label =
          std::string(w.name) + " seed " + std::to_string(seed);
      ok &= expect(!s.fault && tally.failed == 0,
                   label + ": validators hold, failed_ops 0");
      ok &= expect(c == counts[1], label + ": counts repeat exactly");
      const auto count = [](std::size_t v) { return static_cast<double>(v); };
      JsonObject counts_json;
      counts_json.num("orient_rounds", count(c.orient_rounds))
          .num("color_rounds", count(c.color_rounds))
          .num("peak_local_words", count(c.peak_local_words))
          .num("max_outdegree", count(c.max_outdegree))
          .num("outdegree_bound", count(c.outdegree_bound))
          .num("colors_used", count(c.colors_used));
      JsonObject row;
      row.str("selftest", "counts")
          .str("workload", w.name)
          .num("seed", count(seed))
          .raw("counts", counts_json.dump());
      std::printf("%s\n", row.dump().c_str());
    }
  }
  return ok;
}

// ------------------------------------------------------------------- CLI

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       e2e_bench --selftest\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size())
    usage_error(std::string(flag) + " needs a non-negative integer, got '" +
                std::string(text) + "'");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  // Off whatever ARBOR_WATCHDOG says: no monitor thread during timed calls.
  obs::Watchdog::global().configure(obs::WatchdogConfig{});
  std::map<std::string, std::string> flags;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace")
      usage_error("unknown flag '" + flag + "'");
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    if (!flags.emplace(flag, argv[++i]).second)
      usage_error(flag + " given twice");
  }
  if (selftest) {
    if (!flags.empty()) usage_error("--selftest takes no other flags");
    const bool faults = selftest_faults();
    const bool seeds = selftest_seeds();
    std::printf("selftest %s\n", faults && seeds ? "passed" : "FAILED");
    return faults && seeds ? 0 : 1;
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (!flags.contains(required))
      usage_error(std::string("missing ") + required);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (w.name == flags["--workload"]) workload = &w;
  if (!workload) usage_error("unknown workload '" + flags["--workload"] + "'");
  const std::uint64_t seed = parse_uint("--seed", flags["--seed"]);
  const std::uint64_t seconds = parse_uint("--seconds", flags["--seconds"]);
  if (seconds < 1) usage_error("--seconds must be at least 1");
  const std::uint64_t traced = parse_uint("--trace", flags["--trace"]);
  if (traced > 1) usage_error("--trace must be 0 or 1");

  return traced ? run_traced(*workload, seed, static_cast<double>(seconds))
                : run_end_to_end(*workload, seed,
                                 static_cast<double>(seconds));
}
