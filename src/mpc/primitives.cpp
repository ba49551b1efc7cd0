// Non-template machinery behind MpcContext: the lazily-owned shared engine
// and the engine-backed stable-sort permutation the keyed Level-1 sorts run
// on when ClusterConfig::distributed_level1 is set.
#include "mpc/primitives.hpp"

#include <numeric>

#include "mpc/cluster.hpp"
#include "mpc/sample_sort.hpp"

namespace arbor::mpc {
namespace {

// Wire format of the Level-1 record sort (see src/mpc/README.md): one
// record per item, (order-preserving key, original index), both words part
// of the lexicographic sort key — a total order whose sorted sequence is
// exactly the stable sort by key.
constexpr std::size_t kRecordWidth = 2;

// Slab sizing for the internal sort cluster: enough machines that slabs
// parallelize across the engine's workers, few enough that per-machine
// sorts amortize the routing. There is no hard machine-count cap: the
// splitter relay tree keeps every splitter round O(√p·s) per machine.
constexpr std::size_t kTargetRecordsPerMachine = 2048;

// Splitter sample budget per machine (clamped to the slab size inside the
// sort, raised to ⌈√p⌉ below so the tree root's thinned pool covers p−1
// splitters). 32 evenly-spaced samples of distinct (key, index) records
// keep bucket skew low even on heavily duplicated keys, because the index
// tiebreaker spreads duplicates across splitter intervals.
constexpr std::size_t kSamplesPerMachine = 32;

// Shape of the internal cluster a Level-1 sort of n keys executes on; the
// sizing rationale lives in the comments inside level1_sort_shape. The
// shape is what the context's cluster pool is keyed by: two sorts with
// equal (machines, words_per_machine) can share one cluster.
struct SortShape {
  ClusterConfig sort_cfg;
  std::size_t model_s = 0;  ///< the model's S, for the grounding ledger
  std::size_t samples = 0;  ///< splitter samples per machine
};

SortShape level1_sort_shape(const ClusterConfig& config, std::size_t n) {
  ARBOR_CHECK_MSG(config.num_machines > 0, "misconfigured cluster");
  const std::size_t model_s = config.words_per_machine;

  // Machines: enough for worker parallelism (kTargetRecordsPerMachine) and
  // enough that a slab plus routing slack fits the model's S, capped by
  // the model's machine count.
  const std::size_t fit = MpcContext::div_ceil(4 * n * kRecordWidth,
                                               std::max<std::size_t>(
                                                   model_s, 1));
  const std::size_t machines = std::clamp<std::size_t>(
      std::max(MpcContext::div_ceil(n, kTargetRecordsPerMachine), fit), 1,
      config.num_machines);
  const std::size_t group = sample_sort_tree_fanout(machines);
  // ⌈√p⌉ samples minimum: the tree root picks p−1 splitters from a pool of
  // at most G·s sampled keys, so s < ⌈√p⌉ would leave it short.
  const std::size_t samples = std::max(kSamplesPerMachine, group);
  const std::size_t slab_words =
      MpcContext::div_ceil(n, machines) * kRecordWidth;

  // The internal cluster is sized by the model's S. The capacity only
  // widens — linearly, never with the old machines·(machines−1) broadcast
  // term — when the model config itself cannot hold the dataflow (S too
  // small for the routed slabs or for the √p·s splitter pools, which
  // happens for test configs whose min_words floor is tiny relative to
  // the data); the grounding ledger still measures every round against
  // the model's S, so such runs are visible, not hidden.
  // Routing slack covers the worst-case bucket: a slab's share plus the
  // sampling granularity ⌈n/s⌉ (an adversarial key run shorter than one
  // sample gap on every machine draws no splitter, so up to n/s records
  // can land between two adjacent splitters) — sampling skew must never
  // abort a sort whose cost was charged correctly.
  const std::size_t routing_slack =
      4 * slab_words + MpcContext::div_ceil(n, samples) * kRecordWidth;
  const std::size_t splitter_slack =
      2 * (group * samples * kRecordWidth + 2);

  SortShape shape;
  shape.sort_cfg = config;
  shape.sort_cfg.num_machines = machines;
  shape.sort_cfg.words_per_machine =
      std::max(model_s, std::max(routing_slack, splitter_slack));
  // Multi-process transports partition the sort across a worker group —
  // worker runtimes do the compute, so the driver-side engine only moves
  // frames and stays serial.
  if (!config.transport.in_process())
    shape.sort_cfg.execution = ExecutionPolicy::serial();
  shape.model_s = model_s;
  shape.samples = samples;
  return shape;
}

// Contiguous initial distribution of (key, original index) records:
// machine m holds records [m·per, (m+1)·per).
std::vector<std::vector<Word>> build_key_slabs(const std::vector<Word>& keys,
                                               std::size_t machines) {
  const std::size_t n = keys.size();
  const std::size_t per = MpcContext::div_ceil(n, machines);
  std::vector<std::vector<Word>> slabs(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t begin = m * per;
    const std::size_t end = std::min(n, begin + per);
    if (begin >= end) continue;
    slabs[m].reserve((end - begin) * kRecordWidth);
    for (std::size_t i = begin; i < end; ++i) {
      slabs[m].push_back(keys[i]);
      slabs[m].push_back(static_cast<Word>(i));
    }
  }
  return slabs;
}

// Read the stable-sort permutation off the sorted buckets: the index words
// of the concatenated result slabs, in bucket-machine order.
std::vector<std::size_t> unpack_order(const RecordSortResult& sorted,
                                      std::size_t n) {
  std::vector<std::size_t> order(n);
  std::size_t pos = 0;
  for (const auto& slab : sorted.slabs) {
    const std::size_t records = slab.size() / kRecordWidth;
    for (std::size_t r = 0; r < records; ++r)
      order[pos++] = static_cast<std::size_t>(slab[r * kRecordWidth + 1]);
  }
  ARBOR_CHECK_MSG(pos == n, "record sort lost or duplicated records");
  return order;
}

}  // namespace

// Constructor and destructor out of line so the pooled Clusters
// (forward-declared in the header) are destructible where Cluster is
// complete — and, in the destructor, before owned_engine_, which the
// in-process pool entries execute on (member order in the class).
MpcContext::MpcContext(ClusterConfig config, RoundLedger* ledger,
                       engine::Engine* engine)
    : config_(config), ledger_(ledger), engine_(engine) {
  config.validate();
}

MpcContext::~MpcContext() = default;

engine::Engine* MpcContext::ensure_engine() {
  if (engine_ == nullptr) {
    owned_engine_ = std::make_unique<engine::Engine>(config_.execution);
    engine_ = owned_engine_.get();
  }
  return engine_;
}

RoundLedger* MpcContext::level1_sort_grounding() {
  if (!grounding_ledger_) {
    // Model-shaped: violations are counted against the model's S, however
    // the execution cluster was provisioned.
    grounding_ledger_ = std::make_unique<RoundLedger>(config_);
  }
  return grounding_ledger_.get();
}

std::vector<std::size_t> engine_sorted_order(const ClusterConfig& config,
                                             engine::Engine* engine,
                                             const std::vector<Word>& keys,
                                             RoundLedger* grounding) {
  const std::size_t n = keys.size();
  if (n <= 1) {
    ARBOR_CHECK_MSG(config.num_machines > 0, "misconfigured cluster");
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
  }
  const SortShape shape = level1_sort_shape(config, n);

  // The caller's primary ledger keeps the analytic ⌈log_S N⌉ charge —
  // bit-identical to the central path — while the execution itself is no
  // longer exempt: every round of the internal sort is charged to the
  // model-shaped grounding ledger (per-step labels, traffic peaks,
  // violations against the model's S).
  RoundLedger sort_ledger(ClusterConfig{shape.sort_cfg.num_machines,
                                        shape.model_s,
                                        shape.sort_cfg.execution});
  std::vector<std::vector<Word>> slabs =
      build_key_slabs(keys, shape.sort_cfg.num_machines);

  RecordSortResult sorted;
  if (config.transport.in_process()) {
    Cluster cluster(shape.sort_cfg, &sort_ledger, engine);
    sorted = sample_sort_records(cluster, std::move(slabs), kRecordWidth,
                                 /*key_words=*/kRecordWidth, shape.samples);
  } else {
    // Multi-process transports spawn a worker group for this cluster (the
    // shared engine's machine count does not match).
    Cluster cluster(shape.sort_cfg, &sort_ledger);
    sorted = sample_sort_records(cluster, std::move(slabs), kRecordWidth,
                                 /*key_words=*/kRecordWidth, shape.samples);
  }
  if (grounding) grounding->absorb_sequential(sort_ledger);
  return unpack_order(sorted, n);
}

std::vector<std::size_t> MpcContext::distributed_sorted_order(
    const std::vector<Word>& keys) {
  const std::size_t n = keys.size();
  ARBOR_CHECK(n > 1);  // callers handle the trivial sizes
  const SortShape shape = level1_sort_shape(config_, n);

  // Pool lookup: same (machines, capacity) → same cluster. The pool stays
  // tiny in practice (a pipeline's sorts cluster around a few data sizes),
  // so a linear scan beats a map.
  SortClusterSlot* slot = nullptr;
  for (SortClusterSlot& s : sort_pool_)
    if (s.machines == shape.sort_cfg.num_machines &&
        s.words_per_machine == shape.sort_cfg.words_per_machine) {
      slot = &s;
      break;
    }
  if (slot != nullptr) {
    // Reuse: the RoundState arenas keep their grown capacity and — over
    // the loopback/tcp transport — the worker group stays alive; only the
    // previous sort's final inboxes must go.
    slot->cluster->reset_inboxes();
    auto& tracer = trace::Tracer::global();
    if (tracer.metrics_on()) tracer.metrics().add("engine.arena_reuse_hits", 1);
  } else {
    sort_pool_.push_back(
        {shape.sort_cfg.num_machines, shape.sort_cfg.words_per_machine,
         config_.transport.in_process()
             ? std::make_unique<Cluster>(shape.sort_cfg, nullptr,
                                         ensure_engine())
             : std::make_unique<Cluster>(shape.sort_cfg, nullptr)});
    slot = &sort_pool_.back();
  }

  // Ledger charging is per sort (see engine_sorted_order): attach a
  // short-lived model-shaped ledger for this run and detach before it
  // dies, whatever the program does. A sort that throws (transport
  // failure) also evicts the pooled cluster — its state is unknown.
  RoundLedger sort_ledger(ClusterConfig{shape.sort_cfg.num_machines,
                                        shape.model_s,
                                        shape.sort_cfg.execution});
  slot->cluster->set_ledger(&sort_ledger);
  RecordSortResult sorted;
  try {
    sorted = sample_sort_records(
        *slot->cluster, build_key_slabs(keys, shape.sort_cfg.num_machines),
        kRecordWidth, /*key_words=*/kRecordWidth, shape.samples);
  } catch (...) {
    for (auto it = sort_pool_.begin(); it != sort_pool_.end(); ++it)
      if (&*it == slot) {
        sort_pool_.erase(it);
        break;
      }
    throw;
  }
  slot->cluster->set_ledger(nullptr);
  level1_sort_grounding()->absorb_sequential(sort_ledger);
  return unpack_order(sorted, n);
}

}  // namespace arbor::mpc
