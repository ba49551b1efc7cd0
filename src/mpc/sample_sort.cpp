#include "mpc/sample_sort.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "check/ownership.hpp"
#include "engine/records.hpp"
#include "net/registry.hpp"
#include "obs/cost_model.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {

namespace {

// Machine-local state of a sample sort. The word sort is the width-1
// special case of the record sort, so one state serves both programs. One
// builder produces the program for both deployments: the driver's
// in-process run (state over the full input) and a worker's block share
// (state holds only its machines' slabs) — which is what makes the
// transport an execution detail rather than a second protocol
// implementation.
struct SortState {
  std::vector<std::vector<Word>> slabs;   ///< inputs; key-sorted by step 1
  std::vector<std::vector<Word>> result;  ///< record sorts: final step slot m
  /// Machine m's own group's fine splitter keys, parsed out of the down
  /// packet by the route step and consumed by the placement step
  /// (machine-owned state handed between m's own steps — allowed by the
  /// machine-independent contract).
  std::vector<std::vector<Word>> fine;
  std::size_t machines = 0;
  std::size_t record_width = 1;
  std::size_t key_words = 1;
  std::size_t samples_per_machine = 0;
};

// ---------------------------------------------------------- tree topology

// ⌈√p⌉-ary splitter relay tree: machines are cut into G = ⌈p/r⌉ contiguous
// groups of r = ⌈√p⌉ (the last possibly smaller, never empty); a group's
// first machine is its relay, machine 0 (relay of group 0) the root.
// Bucket b is owned by machine b, so group boundaries in machine space are
// also bucket-range boundaries in splitter space — which is what lets the
// down-relay ship each group only the G−1 boundary splitters plus its own
// members(g)−1 interior splitters instead of all p−1.
struct SplitterTree {
  std::size_t machines = 0;
  std::size_t group_size = 0;  ///< r = ⌈√p⌉
  std::size_t groups = 0;      ///< G = ⌈p/r⌉ ≤ r

  static SplitterTree over(std::size_t machines) {
    SplitterTree t;
    t.machines = machines;
    t.group_size = 1;
    while (t.group_size * t.group_size < machines) ++t.group_size;
    t.groups = (machines + t.group_size - 1) / t.group_size;
    return t;
  }

  std::size_t group_of(std::size_t m) const { return m / group_size; }
  bool is_relay(std::size_t m) const { return m % group_size == 0; }
  std::size_t relay_of(std::size_t g) const { return g * group_size; }
  std::size_t group_begin(std::size_t g) const { return g * group_size; }
  std::size_t group_end(std::size_t g) const {
    return std::min(machines, (g + 1) * group_size);
  }
  std::size_t members(std::size_t g) const {
    return group_end(g) - group_begin(g);
  }
};

// p−1 splitter keys at the quantiles of a key-sorted pool (entries may
// repeat when the pool is smaller than p−1; repeats only make some
// buckets empty). Empty when the pool is empty or the cluster has one
// machine — "no splitters" routes everything to machine 0.
std::vector<Word> pick_splitters(const std::vector<Word>& pool,
                                 std::size_t machines,
                                 std::size_t key_words) {
  std::vector<Word> chosen;
  const std::size_t pooled = pool.size() / key_words;
  if (machines <= 1 || pooled == 0) return chosen;
  chosen.reserve((machines - 1) * key_words);
  for (std::size_t b = 1; b < machines; ++b) {
    const Word* key = pool.data() + (b * pooled / machines) * key_words;
    chosen.insert(chosen.end(), key, key + key_words);
  }
  return chosen;
}

// Key-sorted sample pool of an inbox. Every pool message is a sorted run
// (an evenly-spaced sample of a sorted slab, or a relay's thinned sorted
// pool), so the pool is their k-way merge in delivery order.
std::vector<Word> sorted_pool(const engine::InboxView& inbox, std::size_t kw) {
  std::vector<Word> pool;
  engine::merge_sorted_inbox(inbox, kw, kw, pool);
  return pool;
}

// ------------------------------------------------------- sort program
//
// Six communication rounds whose per-machine volume is O(√p·s·key_words)
// words in every splitter round (s = samples per machine) and O(slab) in
// the route rounds — no machine ever pools all p·s samples, so the
// dataflow fits the model's S-cap at any p:
//
//   up    leaves send clamped evenly-spaced samples to their relay
//         (relay receives ≤ r·s keys);
//   up    relays re-sample their pool down to s keys and forward to the
//         root (root receives ≤ G·s keys);
//   pick  the root picks the p−1 splitters and scatters per-group packets
//         [n_coarse, n_fine | boundary splitters | group g's interior
//         splitters] — ≤ (G−1) + (r−1) keys per packet;
//   down  relays forward their packet to every group member;
//   route every machine keeps its group's fine splitters and sends each
//         record to a spread member of its destination group (boundary
//         splitters only);
//   route the spread members place each received record on its final
//         bucket machine (own group's fine splitters).
//
// A seventh, compute-only round (record sorts) merges every bucket: the
// routed messages are contiguous key-sorted spans of the senders' slabs,
// so each bucket machine k-way merges its inbox into its preallocated
// result slot — inside a round so the engine spreads the merges across
// its workers.
//
// The explicit [n_coarse, n_fine] packet header keeps "no splitters"
// (machines == 1, all-empty pool) a clean parseable message, and a relay
// whose children had no samples still scatters/forwards clean headers —
// the route rounds rely on the packet being present, never on an accident
// of the protocol.
engine::RoundProgram make_sort_program(std::shared_ptr<SortState> st,
                                       bool bucket_sort_round) {
  const std::size_t machines = st->machines;
  const std::size_t width = st->record_width;
  const std::size_t kw = st->key_words;
  const SplitterTree tree = SplitterTree::over(machines);
  st->fine.assign(machines, {});
  engine::RoundProgram program;

  // Round 1 — leaves → relays. Key-sorting slabs[m] in place mutates only
  // machine-owned state; the sorted slab is reused by the route round (for
  // the word sort the order of a slab is meaningless anyway). Samples are
  // clamped to the slab size (no repeated indices); an empty slab sends
  // nothing — the relay pools whatever arrives.
  program.independent(
      "sample_sort.tree.up",
      [st, tree, width, kw](std::size_t m, const auto&, Sender& send) {
        engine::stable_sort_records(st->slabs[m], width, kw);
        const std::vector<Word> sample = engine::sample_record_keys(
            st->slabs[m], width, kw, st->samples_per_machine);
        if (!sample.empty())
          send.send(tree.relay_of(tree.group_of(m)), sample);
      });

  // Round 2 — relays → root: pool the ≤ r children's samples, re-sample
  // the pool down to the per-machine budget (sample-of-samples: the root's
  // pool stays ≤ G·s keys instead of p·s), forward to the root.
  program.independent(
      "sample_sort.tree.up",
      [st, tree, kw](std::size_t m, const auto& inbox, Sender& send) {
        if (!tree.is_relay(m)) return;
        const std::vector<Word> pool = sorted_pool(inbox, kw);
        const std::vector<Word> thinned = engine::sample_record_keys(
            pool, kw, kw, st->samples_per_machine);
        if (!thinned.empty()) send.send(0, thinned);
      });

  // Round 3 — the root picks the p−1 splitters from the thinned pool and
  // scatters one packet per group: the G−1 boundary splitters t_r, t_2r, …
  // (chosen indices j·r−1, always in range because every group is
  // non-empty) plus group g's interior splitters (chosen indices
  // group_begin(g) … group_end(g)−2: members(g)−1 keys).
  program.independent(
      "sample_sort.tree.pick",
      [tree, machines, kw](std::size_t m, const auto& inbox, Sender& send) {
        if (m != 0) return;
        const std::vector<Word> pool = sorted_pool(inbox, kw);
        const std::vector<Word> chosen =
            pick_splitters(pool, machines, kw);
        for (std::size_t g = 0; g < tree.groups; ++g) {
          std::vector<Word> packet(2, 0);
          if (!chosen.empty()) {
            for (std::size_t j = 1; j < tree.groups; ++j) {
              const Word* key =
                  chosen.data() + (j * tree.group_size - 1) * kw;
              packet.insert(packet.end(), key, key + kw);
              ++packet[0];
            }
            for (std::size_t i = tree.group_begin(g);
                 i + 1 < tree.group_end(g); ++i) {
              const Word* key = chosen.data() + i * kw;
              packet.insert(packet.end(), key, key + kw);
              ++packet[1];
            }
          }
          send.send(tree.relay_of(g), packet);
        }
      });

  // Round 4 — relays forward their packet verbatim to every group member
  // (including themselves).
  program.independent(
      "sample_sort.tree.down",
      [tree](std::size_t m, const auto& inbox, Sender& send) {
        if (!tree.is_relay(m)) return;
        ARBOR_CHECK_MSG(!inbox.empty(),
                        "splitter tree: relay " + std::to_string(m) +
                            " missing its splitter packet from the root");
        const std::vector<Word> packet = inbox.front();
        const std::size_t g = tree.group_of(m);
        for (std::size_t dst = tree.group_begin(g);
             dst < tree.group_end(g); ++dst)
          send.send(dst, packet);
      });

  // Round 5 — parse the packet (keeping the group's fine splitters for the
  // placement round), then send every record to a spread member of its
  // destination group: member (m mod members(g)), so a group's incoming
  // volume spreads across its members instead of flooding the relay.
  program.independent(
      "sample_sort.tree.route",
      [st, tree, width, kw](std::size_t m, const auto& inbox,
                            Sender& send) {
        ARBOR_CHECK_MSG(
            !inbox.empty(),
            "splitter tree: machine " + std::to_string(m) +
                " missing its splitter packet from relay " +
                std::to_string(tree.relay_of(tree.group_of(m))));
        const std::span<const Word> packet = inbox.front().span();
        ARBOR_CHECK_MSG(packet.size() >= 2,
                        "splitter tree: truncated splitter packet on "
                        "machine " +
                            std::to_string(m));
        const auto n_coarse = static_cast<std::size_t>(packet[0]);
        const auto n_fine = static_cast<std::size_t>(packet[1]);
        ARBOR_CHECK_MSG(packet.size() == 2 + (n_coarse + n_fine) * kw,
                        "splitter tree: splitter packet header disagrees "
                        "with its payload on machine " +
                            std::to_string(m));
        const Word* coarse = packet.data() + 2;
        st->fine[m].assign(packet.begin() + 2 + n_coarse * kw,
                           packet.end());

        // The slab is key-sorted (round 1), so each destination group's
        // records are one contiguous span: partition once against the
        // boundary splitters and ship bucket g as a single message.
        engine::send_records(send, std::span<const Word>(st->slabs[m]), width,
                             kw, std::span<const Word>(coarse, n_coarse * kw),
                             [&tree, m](std::size_t g) {
                               return tree.group_begin(g) +
                                      (m % tree.members(g));
                             });
      });

  // Round 6 — place every received record on its final bucket machine
  // using the group's fine splitters (final machine = group base + count
  // of fine splitters ≤ key). Each incoming message is a contiguous bucket
  // of some sender's key-sorted slab (round 5), so it splits into spans
  // against the fine splitters the same way a whole slab would; each span
  // ships directly as one message (slab → outbox, no intermediate
  // buffer). Spans go out in inbox delivery order (source asc, send
  // order), so the final buckets' contents are deterministic in every
  // mode.
  program.independent(
      "sample_sort.tree.route",
      [st, tree, width, kw](std::size_t m, const auto& inbox,
                            Sender& send) {
        const std::size_t base = tree.group_begin(tree.group_of(m));
        for (const auto& msg : inbox)
          engine::send_records(send, msg.span(), width, kw,
                               std::span<const Word>(st->fine[m]),
                               [base](std::size_t local) {
                                 return base + local;
                               });
      });

  // Round 7 (record sorts only): the parallel bucket merges. The word sort
  // skips this: its buckets stay in the inboxes, where the driver reads
  // them.
  if (bucket_sort_round)
    program.independent(
        "sample_sort.tree.sort",
        [st, width, kw](std::size_t m, const auto& inbox, Sender&) {
          engine::merge_sorted_inbox(inbox, width, kw, st->result[m]);
        });

  // Everything the steps mutate is machine-sliced: slabs[m] (sorted in
  // place by the sample round), fine[m] (parsed splitters handed between
  // m's own steps), result[m] (the bucket sort's output slot).
  auto own = std::make_shared<check::Ownership>();
  own->slabs("slabs", &st->slabs)
      .slabs("fine", &st->fine)
      .slabs("result", &st->result)
      .keep_alive(st);
  program.owned(std::move(own));

  // The paper's per-round claims, as data: every splitter-phase bound is a
  // closed form of (p, s, key_words) the post-run audit checks against the
  // measured per-label peaks. Route rounds move the data itself and are
  // bounded only by the machine capacity S (kWordsCapacity resolves to S
  // at audit time); bucket-sort rounds are compute-only and must move
  // exactly zero words.
  const std::size_t s = st->samples_per_machine;
  const std::size_t r = tree.group_size;
  const std::size_t G = tree.groups;
  // Pick/down packet: [n_coarse, n_fine | keys] — at most the G−1 group
  // boundaries plus a group's r−1 interior splitters.
  const std::size_t packet = 2 + (G + r - 2) * kw;
  auto cost = std::make_shared<obs::CostModel>(
      bucket_sort_round ? "mpc.sample_sort_records" : "mpc.sample_sort");
  cost->bound("sample_sort.tree.up", r * s * kw, 2,
              "r*s*kw (r = ceil(sqrt(p)) members' samples pooled at a "
              "relay; the thinned relay->root hop is smaller)");
  cost->bound("sample_sort.tree.pick", G * packet, 1,
              "G*(2+(G+r-2)*kw) (root ships one boundary+interior packet "
              "per relay)");
  cost->bound("sample_sort.tree.down", r * packet, 1,
              "r*(2+(G+r-2)*kw) (a relay fans its packet to <= r members)");
  cost->bound("sample_sort.tree.route", obs::kWordsCapacity, 2,
              "<= S (the data movement rounds: route + placement)");
  if (bucket_sort_round)
    cost->bound("sample_sort.tree.sort", 0, 1,
                "0 (machine-local bucket merge; moves no words)");
  program.costed(std::move(cost));
  return program;
}

}  // namespace

std::size_t sample_sort_tree_fanout(std::size_t machines) {
  return SplitterTree::over(machines).group_size;
}

SampleSortResult sample_sort(Cluster& cluster,
                             const std::vector<std::vector<Word>>& input,
                             std::size_t samples_per_machine) {
  trace::Span stage_span = trace::Tracer::global().span("mpc", "sample_sort");
  const std::size_t machines = cluster.num_machines();
  ARBOR_CHECK(input.size() == machines);
  ARBOR_CHECK(samples_per_machine >= 1);
  const std::size_t start_rounds = cluster.rounds_executed();

  // Machine-local state lives here (the cluster only moves messages).
  auto st = std::make_shared<SortState>();
  st->slabs = input;
  st->machines = machines;
  st->samples_per_machine = samples_per_machine;

  engine::RoundProgram program =
      make_sort_program(st, /*bucket_sort_round=*/false);
  if (cluster.distributed()) {
    engine::RemoteSpec spec;
    spec.name = "mpc.sample_sort";
    spec.scalars = {static_cast<Word>(samples_per_machine)};
    spec.inputs = input;
    program.distributable(std::move(spec));
  }

  cluster.run_program(program);

  // The buckets sit in the inboxes when the program returns — identically
  // under every backend (the transport syncs final inboxes back).
  SampleSortResult result;
  result.slabs.resize(machines);
  // Every routed message is a sorted word span, so each bucket is the
  // k-way merge of its inbox.
  for (std::size_t m = 0; m < machines; ++m)
    engine::merge_sorted_inbox(cluster.inbox(m), 1, 1, result.slabs[m]);
  result.rounds = cluster.rounds_executed() - start_rounds;
  return result;
}

RecordSortResult sample_sort_records(
    Cluster& cluster, std::vector<std::vector<Word>> input,
    std::size_t record_width, std::size_t key_words,
    std::size_t samples_per_machine) {
  const std::size_t machines = cluster.num_machines();
  ARBOR_CHECK(input.size() == machines);
  ARBOR_CHECK(record_width > 0);
  if (key_words == 0) key_words = record_width;
  ARBOR_CHECK(key_words <= record_width);
  ARBOR_CHECK(samples_per_machine >= 1);
  const std::size_t start_rounds = cluster.rounds_executed();

  for (const auto& slab : input)
    engine::record_count(slab.size(), record_width);  // validates widths

  auto st = std::make_shared<SortState>();
  st->machines = machines;
  st->record_width = record_width;
  st->key_words = key_words;
  st->samples_per_machine = samples_per_machine;
  st->result.resize(machines);

  engine::RoundProgram program =
      make_sort_program(st, /*bucket_sort_round=*/true);
  if (cluster.distributed()) {
    engine::RemoteSpec spec;
    spec.name = "mpc.sample_sort_records";
    spec.scalars = {static_cast<Word>(record_width),
                    static_cast<Word>(key_words),
                    static_cast<Word>(samples_per_machine)};
    spec.inputs = input;  // copy: the state takes the originals below
    spec.has_output = true;
    spec.output_sink = [st](std::size_t m, std::span<const Word> slab) {
      st->result[m].assign(slab.begin(), slab.end());
    };
    program.distributable(std::move(spec));
  }
  st->slabs = std::move(input);

  cluster.run_program(program);

  RecordSortResult result;
  result.slabs = std::move(st->result);
  result.rounds = cluster.rounds_executed() - start_rounds;
  return result;
}

void register_sample_sort_programs(net::Registry& registry) {
  registry.add("mpc.sample_sort", [](const net::ProgramInputs& in) {
    ARBOR_CHECK_MSG(in.scalars.size() == 1,
                    "mpc.sample_sort expects 1 scalar");
    auto st = std::make_shared<SortState>();
    st->machines = in.machines;
    st->samples_per_machine = static_cast<std::size_t>(in.scalars[0]);
    st->slabs.resize(in.machines);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m)
      st->slabs[m] = in.inputs[m - in.block_begin];
    net::WorkerProgram out;
    out.program = make_sort_program(st, /*bucket_sort_round=*/false);
    out.state = st;
    return out;
  });

  registry.add("mpc.sample_sort_records", [](const net::ProgramInputs& in) {
    ARBOR_CHECK_MSG(in.scalars.size() == 3,
                    "mpc.sample_sort_records expects 3 scalars");
    auto st = std::make_shared<SortState>();
    st->machines = in.machines;
    st->record_width = static_cast<std::size_t>(in.scalars[0]);
    st->key_words = static_cast<std::size_t>(in.scalars[1]);
    st->samples_per_machine = static_cast<std::size_t>(in.scalars[2]);
    ARBOR_CHECK(st->record_width > 0 && st->key_words > 0 &&
                st->key_words <= st->record_width);
    st->slabs.resize(in.machines);
    st->result.resize(in.machines);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m) {
      st->slabs[m] = in.inputs[m - in.block_begin];
      engine::record_count(st->slabs[m].size(), st->record_width);
    }
    net::WorkerProgram out;
    out.program = make_sort_program(st, /*bucket_sort_round=*/true);
    out.state = st;
    out.output = [st](std::size_t m) { return st->result[m]; };
    return out;
  });
}

}  // namespace arbor::mpc
