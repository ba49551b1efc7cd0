#include "engine/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "check/monitor.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

namespace {

/// Largest round volume (front-bank words) the async scheduler still fuses
/// into one deliver+compute phase. Fusing saves a phase barrier but pays a
/// payload copy per delivered word; the zero-copy direct scatter pays one
/// fixed routing pass and copies nothing. Small rounds (splitter
/// exchanges, votes) are barrier-dominated and keep fusing; bulk route
/// rounds are copy-dominated and go direct — which is what erases the
/// parallel-policy route-round penalty on the Level-1 sort.
constexpr std::size_t kFuseMaxRouteWords = 16384;

std::size_t front_bank_words(const std::vector<Outbox>& outboxes) {
  std::size_t total = 0;
  for (const Outbox& out : outboxes) total += out.word_count();
  return total;
}

}  // namespace

ProgramStats Scheduler::run(RoundState& state, std::size_t capacity,
                            std::size_t first_round_index,
                            const RoundProgram& program,
                            const RoundHook& on_round) {
  ARBOR_CHECK(state.num_machines() > 0);
  ARBOR_CHECK(capacity > 0);
  ARBOR_CHECK_MSG(!program.steps.empty(), "RoundProgram has no steps");
  // Shared schedulers must serialize programs: the pool and the scratch
  // routing tables hold one round at a time. Fail loudly instead of
  // corrupting. (exchange: if the flag was already set we throw without
  // constructing the reset guard, leaving the owner's flag intact.)
  ARBOR_CHECK_MSG(
      !in_program_.exchange(true, std::memory_order_acq_rel),
      "Scheduler re-entered: a shared Engine executes one program at a "
      "time (do not run a program or round from inside a step function, a "
      "continue callback, or a second thread)");
  struct Reset {
    std::atomic<bool>& flag;
    ~Reset() { flag.store(false, std::memory_order_release); }
  } reset{in_program_};
  // Zero-copy deliveries leave the final round's inboxes as spans into an
  // outbox bank; everything outside a running program expects the flat
  // representation, so materialize on every exit path (including a step
  // throwing mid-program — the referenced bank is still frozen then).
  struct Materialize {
    Scheduler& scheduler;
    RoundState& state;
    ~Materialize() { scheduler.materialize_scatter(state); }
  } materialize{*this, state};

  // Overlap needs flat inboxes, the parallel engine, and the policy
  // opt-in; barrier steps drop back to strict per step below. The serial
  // policy always runs strict rounds — its pool-less flat rounds take the
  // fused route+deliver_direct pass instead, which beats overlap when
  // there are no phase barriers to save. Checked execution forces strict
  // phases: the Monitor replays steps under two machine orders, which a
  // fused deliver+compute cannot interleave with.
  const bool overlap = policy_.is_parallel() && state.is_flat &&
                       policy_.async_rounds && !policy_.check;

  std::unique_ptr<check::Monitor> monitor;
  if (policy_.check)
    monitor = std::make_unique<check::Monitor>(program, capacity,
                                               state.num_machines());

  trace::Tracer& tracer = trace::Tracer::global();

  ProgramStats stats;
  for (;;) {
    bool computed_ahead = false;
    for (std::size_t i = 0; i < program.steps.size(); ++i) {
      const std::string& label = program.steps[i].name;
      const std::int64_t round_t0 = tracer.metrics_on() ? trace::now_ns() : 0;
      if (!computed_ahead) {
        trace::Span span = tracer.span("engine", "compute " + label);
        compute(state, capacity, program.steps[i], monitor.get());
      }
      computed_ahead = false;
      const ProgramStep* next =
          i + 1 < program.steps.size() ? &program.steps[i + 1] : nullptr;
      // Fusing delivery with the next compute only pays off while the
      // delivered volume is barrier-dominated; past the threshold the
      // zero-copy direct scatter wins (see kFuseMaxRouteWords). The choice
      // is execution-only — deliveries are byte-identical either way.
      const bool fused = overlap && next &&
                         next->kind == StepKind::kMachineIndependent &&
                         front_bank_words(state.front_outboxes()) <=
                             kFuseMaxRouteWords;
      // Flat unchecked delivery fuses route and deliver into a zero-copy
      // scatter pass — source-major and routing-table-free when inline,
      // table-then-parallel-staging under a pool — so the scatter inboxes
      // alias the frozen bank in every policy. The strict two-phase path
      // remains for the fused async phase and the nested (checked)
      // representation.
      const bool direct = !fused && state.is_flat && !policy_.check;
      if (direct) {
        trace::Span span = tracer.span("engine", "route+deliver " + label);
        const RoundStats round_stats = route_and_deliver_direct(
            state, capacity, first_round_index + stats.rounds, label);
        span.end();
        ++stats.rounds;
        if (on_round) on_round(round_stats);
        if (tracer.metrics_on()) {
          const double us =
              static_cast<double>(trace::now_ns() - round_t0) / 1000.0;
          tracer.metrics().observe("round_us", us);
          tracer.metrics().observe("round_us." + label, us);
        }
        continue;
      }
      RoundStats round_stats;
      {
        trace::Span span = tracer.span("engine", "route " + label);
        round_stats =
            route(state, capacity, first_round_index + stats.rounds, label);
      }
      if (fused) {
        // Commit round i before the fused phase: its caps are validated and
        // its stats exact, and the strict executor would have charged it
        // before the next step's compute could throw — charging afterwards
        // would make ledger totals diverge between async and strict on
        // exactly the error paths the caps exist for.
        ++stats.rounds;
        if (on_round) on_round(round_stats);
        {
          // The span that proves (or disproves) the async overlap claim:
          // one fused phase where strict execution would show a deliver
          // span, a barrier, then a compute span.
          trace::Span span =
              tracer.span("engine", "deliver+compute " + next->name);
          deliver_and_compute(state, capacity, *next);
        }
        state.flip();  // the fused compute's bank becomes next round's front
        computed_ahead = true;
        ++stats.overlapped;
      } else {
        trace::Span span = tracer.span("engine", "deliver " + label);
        deliver(state);
        span.end();
        ++stats.rounds;
        if (on_round) on_round(round_stats);
      }
      if (tracer.metrics_on()) {
        // Per step-iteration wall time: under overlap the iteration ends
        // when the fused deliver+compute does.
        const double us =
            static_cast<double>(trace::now_ns() - round_t0) / 1000.0;
        tracer.metrics().observe("round_us", us);
        tracer.metrics().observe("round_us." + label, us);
      }
    }
    ++stats.passes;
    if (!program.continue_fn) break;
    bool more;
    if (monitor) {
      // The continue callback runs at a true barrier and may update shared
      // pass state — unless the program has machine-independent steps,
      // whose contract forbids them reading state the callback maintains.
      const std::vector<std::uint64_t> before = monitor->hashes();
      more = program.continue_fn(stats.passes);
      monitor->expect_continue_clean(before, "continue callback");
    } else {
      more = program.continue_fn(stats.passes);
    }
    if (!more) break;
    if (stats.passes >= program.max_passes) break;
  }
  return stats;
}

void Scheduler::run_parallel(std::size_t n, const ThreadPool::BlockFn& fn) {
  if (pool_)
    pool_->run_blocks(n, fn);
  else
    fn(0, n);
}

void Scheduler::compute(RoundState& state, std::size_t capacity,
                        const ProgramStep& step, check::Monitor* monitor) {
  const std::size_t machines = state.num_machines();
  std::vector<Outbox>& out = state.front_outboxes();
  if (monitor) {
    // Checked execution: single-threaded by design, so contract violations
    // are deterministic and reproduce without a thread schedule.
    monitor->run_step(
        step, 0, machines,
        [&state](std::size_t m) { return state.inbox(m); }, out);
    return;
  }
  trace::Tracer& tracer = trace::Tracer::global();
  run_parallel(machines, [&](std::size_t begin, std::size_t end) {
    // One span per machine block: pool threads show up as their own trace
    // lanes, and the block spans' alignment makes load imbalance visible.
    trace::Span span = tracer.span("engine", "block " + step.name);
    for (std::size_t m = begin; m < end; ++m) {
      out[m].clear();  // keeps arena capacity from previous rounds
      Sender sender(m, capacity, machines, out[m]);
      step.fn(m, state.inbox(m), sender);
    }
  });
}

RoundStats Scheduler::route(RoundState& state, std::size_t capacity,
                            std::size_t round_index,
                            const std::string& step_name) {
  const std::size_t machines = state.num_machines();
  const std::vector<Outbox>& outboxes = state.front_outboxes();
  RoundStats stats;

  // Count per-destination volume and group the outbox records by
  // destination with a stable counting sort (source asc, send order) — the
  // delivery order of the serial reference executor.
  recv_words_.assign(machines, 0);
  recv_msgs_.assign(machines, 0);
  std::size_t total_msgs = 0;
  for (std::size_t src = 0; src < machines; ++src) {
    const Outbox& out = outboxes[src];
    total_msgs += out.msgs.size();
    // Sent volume is the sum of message lengths, not the arena size: a
    // sender that aliases one arena payload under several messages must
    // still be charged per message sent.
    std::size_t sent = 0;
    for (const Outbox::Msg& msg : out.msgs) {
      sent += msg.length;
      recv_words_[msg.dst] += msg.length;
      recv_msgs_[msg.dst] += 1;
    }
    stats.max_sent = std::max(stats.max_sent, sent);
  }

  // Receiver-side cap: validated once per machine, naming the offender.
  for (std::size_t dst = 0; dst < machines; ++dst) {
    ARBOR_CHECK_MSG(recv_words_[dst] <= capacity,
                    "machine " + std::to_string(dst) +
                        " exceeded receive capacity: " +
                        std::to_string(recv_words_[dst]) + " > " +
                        std::to_string(capacity) + " words in round " +
                        std::to_string(round_index) +
                        step_name_suffix(step_name));
    stats.max_received = std::max(stats.max_received, recv_words_[dst]);
  }

  route_begin_.resize(machines + 1);
  route_begin_[0] = 0;
  for (std::size_t dst = 0; dst < machines; ++dst)
    route_begin_[dst + 1] = route_begin_[dst] + recv_msgs_[dst];
  route_cursor_.assign(route_begin_.begin(), route_begin_.end() - 1);
  routes_.resize(total_msgs);
  for (std::size_t src = 0; src < machines; ++src)
    for (const Outbox::Msg& msg : outboxes[src].msgs)
      routes_[route_cursor_[msg.dst]++] = {static_cast<std::uint32_t>(src),
                                           msg.offset, msg.length};

  return stats;
}

RoundStats Scheduler::route_and_deliver_direct(RoundState& state,
                                               std::size_t capacity,
                                               std::size_t round_index,
                                               const std::string& step_name) {
  const std::size_t machines = state.num_machines();
  const std::vector<Outbox>& outboxes = state.front_outboxes();

  if (pool_ != nullptr) {
    // Parallel zero-copy scatter: route() groups the outbox records by
    // destination and validates the receiver caps — with the exact strict
    // error text, before any inbox mutation — then worker threads convert
    // each destination's route entries into span references concurrently.
    // Destinations are disjoint across threads, so the staging is
    // lock-free, and still no payload word moves.
    RoundStats stats = route(state, capacity, round_index, step_name);
    if (scatter_scratch_.size() != machines) scatter_scratch_.resize(machines);
    run_parallel(machines, [&](std::size_t begin, std::size_t end) {
      for (std::size_t dst = begin; dst < end; ++dst) {
        ScatterInbox& sc = scatter_scratch_[dst];
        sc.clear();
        sc.msgs.reserve(recv_msgs_[dst]);
        for (std::size_t r = route_begin_[dst]; r < route_begin_[dst + 1];
             ++r) {
          const Route& route = routes_[r];
          sc.msgs.push_back(
              {outboxes[route.src].words.data() + route.offset, route.length});
        }
        sc.words = recv_words_[dst];
      }
    });
    state.scatter_inboxes.swap(scatter_scratch_);
    state.scatter_active = true;
    state.back_outboxes();  // ensure the other bank is sized before flipping
    state.flip();
    return stats;
  }

  RoundStats stats;

  // One source-major pass: count per-destination volume AND stage span
  // references. Each destination sees its messages in (source asc, send
  // order) — the counting-sorted order deliver() walks — but no payload
  // word is copied and no routing table is built.
  recv_words_.assign(machines, 0);
  if (scatter_scratch_.size() != machines) scatter_scratch_.resize(machines);
  for (ScatterInbox& in : scatter_scratch_) in.clear();
  for (std::size_t src = 0; src < machines; ++src) {
    const Outbox& out = outboxes[src];
    std::size_t sent = 0;  // Σ msg lengths, like route() — see there
    for (const Outbox::Msg& msg : out.msgs) {
      sent += msg.length;
      recv_words_[msg.dst] += msg.length;
      scatter_scratch_[msg.dst].msgs.push_back(
          {out.words.data() + msg.offset, msg.length});
    }
    stats.max_sent = std::max(stats.max_sent, sent);
  }

  // Receiver-side cap: validated (with route()'s exact diagnostics) before
  // any inbox state changes — on a violation the staged spans are simply
  // discarded and the previous round's inboxes remain current.
  for (std::size_t dst = 0; dst < machines; ++dst) {
    ARBOR_CHECK_MSG(recv_words_[dst] <= capacity,
                    "machine " + std::to_string(dst) +
                        " exceeded receive capacity: " +
                        std::to_string(recv_words_[dst]) + " > " +
                        std::to_string(capacity) + " words in round " +
                        std::to_string(round_index) +
                        step_name_suffix(step_name));
    stats.max_received = std::max(stats.max_received, recv_words_[dst]);
    scatter_scratch_[dst].words = recv_words_[dst];
  }

  // Commit: the staged bank becomes the live inboxes. The spans alias the
  // current front bank, which flips below so the next round's compute
  // writes the other bank and the references stay valid for the round
  // that reads them.
  state.scatter_inboxes.swap(scatter_scratch_);
  state.scatter_active = true;
  state.back_outboxes();  // ensure the other bank is sized before flipping
  state.flip();
  return stats;
}

void Scheduler::materialize_scatter(RoundState& state) {
  if (!state.scatter_active) return;
  const std::size_t machines = state.num_machines();
  for (std::size_t m = 0; m < machines; ++m) {
    Inbox& in = state.flat_inboxes[m];
    const ScatterInbox& sc = state.scatter_inboxes[m];
    in.clear();
    in.words.reserve(sc.words);
    in.msgs.reserve(sc.msgs.size());
    for (const std::span<const Word>& span : sc.msgs) in.append(span);
  }
  for (ScatterInbox& sc : state.scatter_inboxes) sc.clear();
  state.scatter_active = false;
}

void Scheduler::deliver(RoundState& state) {
  const std::size_t machines = state.num_machines();
  const std::vector<Outbox>& outboxes = state.front_outboxes();
  state.scatter_active = false;  // flat inboxes become current again
  // Copy payloads out of the source arenas into each destination's inbox.
  // Flat inboxes are filled in parallel (destinations are disjoint); the
  // nested reference representation materializes one vector per message on
  // the calling thread.
  if (state.is_flat) {
    run_parallel(machines, [&](std::size_t begin, std::size_t end) {
      for (std::size_t dst = begin; dst < end; ++dst) {
        Inbox& in = state.flat_inboxes[dst];
        in.clear();
        in.words.reserve(recv_words_[dst]);
        in.msgs.reserve(recv_msgs_[dst]);
        for (std::size_t r = route_begin_[dst]; r < route_begin_[dst + 1];
             ++r) {
          const Route& route = routes_[r];
          const Outbox& out = outboxes[route.src];
          in.append({out.words.data() + route.offset, route.length});
        }
      }
    });
  } else {
    for (std::size_t dst = 0; dst < machines; ++dst) {
      auto& in = state.nested_inboxes[dst];
      in.clear();
      in.reserve(recv_msgs_[dst]);
      for (std::size_t r = route_begin_[dst]; r < route_begin_[dst + 1]; ++r) {
        const Route& route = routes_[r];
        const Outbox& out = outboxes[route.src];
        const Word* data = out.words.data() + route.offset;
        in.emplace_back(data, data + route.length);
      }
    }
  }
}

void Scheduler::deliver_and_compute(RoundState& state, std::size_t capacity,
                                    const ProgramStep& next_step) {
  const std::size_t machines = state.num_machines();
  // The front bank is frozen (round r's routed outboxes); the fused compute
  // writes the back bank. Materialize the back bank on this thread before
  // entering the parallel region.
  const std::vector<Outbox>& cur = state.front_outboxes();
  std::vector<Outbox>& nxt = state.back_outboxes();
  state.scatter_active = false;  // flat inboxes become current again
  trace::Tracer& tracer = trace::Tracer::global();
  run_parallel(machines, [&](std::size_t begin, std::size_t end) {
    trace::Span span = tracer.span("engine", "block " + next_step.name);
    for (std::size_t m = begin; m < end; ++m) {
      // Deliver round r's messages for machine m...
      Inbox& in = state.flat_inboxes[m];
      in.clear();
      in.words.reserve(recv_words_[m]);
      in.msgs.reserve(recv_msgs_[m]);
      for (std::size_t r = route_begin_[m]; r < route_begin_[m + 1]; ++r) {
        const Route& route = routes_[r];
        const Outbox& out = cur[route.src];
        in.append({out.words.data() + route.offset, route.length});
      }
      // ...and immediately start round r+1's compute for it: m's inbox is
      // complete even though other machines' deliveries may still be in
      // flight (the machine-independent contract makes this sufficient).
      nxt[m].clear();
      Sender sender(m, capacity, machines, nxt[m]);
      next_step.fn(m, InboxView(in), sender);
    }
  });
}

}  // namespace arbor::engine
