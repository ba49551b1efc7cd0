// Executes RoundPrograms over a RoundState, overlapping rounds when the
// program allows it.
//
// Strict execution (the original three-phase round, still used for barrier
// steps, the serial policy, and single-step programs):
//
//   compute — machines are partitioned into contiguous blocks, one per
//             worker thread; each machine's step function writes into its
//             own flat Outbox (no sharing, no locks).
//   route   — a single pass over the outbox records counts per-destination
//             words, validates the receiver-side traffic cap once per
//             machine, and builds a routing table grouped by destination
//             (a stable counting sort by dst) for the phases that need
//             destination-grouped access.
//   deliver — destinations are partitioned across the workers; each worker
//             copies the payloads for its destinations out of the source
//             arenas into the destination Inbox arenas.
//
// Unchecked flat execution collapses route and deliver into a zero-copy
// pass (route_and_deliver_direct) that skips the payload copy entirely: it
// counts volume, validates the caps, and records span references into the
// frozen outbox bank (ScatterInbox); the banks flip, and the next compute
// reads the spans where they lie — the same (source asc, send order)
// delivery order with zero words moved. Pool-less (serial) rounds do it in
// ONE source-major pass with no routing table; parallel rounds first build
// the destination-grouped routing table (route(), which also validates the
// receiver caps with the exact strict-path error text before any inbox
// mutation), then stage each destination's spans from worker threads —
// destinations are disjoint, so the staging is lock-free. The final
// round's spans are materialized into flat inboxes before run() returns,
// so only the scheduler ever observes the scatter representation.
//
// Asynchronous overlap: when the NEXT step of the program is tagged
// machine-independent (see program.hpp for the contract), the deliver phase
// of round r and the compute phase of round r+1 run fused in ONE parallel
// phase. Each worker, for each machine m in its block, first copies m's
// round-r messages out of the frozen front outbox bank into m's inbox, then
// immediately runs round r+1's step for m, writing into the back outbox
// bank; the banks flip at the phase barrier. Machine m's compute therefore
// starts as soon as m's own inbox is complete — other machines' deliveries
// may still be in flight — which halves the barrier count per round and
// overlaps copy-dominated delivery with compute. No writes are shared: the
// front bank is read-only during the fused phase, inbox m and back-bank
// slot m are touched only by the worker that owns machine m.
//
// Delivery order is (source machine asc, send order) for every destination
// in both modes — exactly the order the serial reference executor produces —
// so inboxes, fingerprints, and ledger totals are bit-identical across
// {serial, parallel} × {async on, off} (tests/engine_test.cpp,
// tests/level0_programs_test.cpp). Traffic accounting is computed from
// per-machine totals in the route phase, so it is exact under concurrency
// without atomics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <functional>
#include <vector>

#include "engine/execution_policy.hpp"
#include "engine/program.hpp"
#include "engine/round_state.hpp"
#include "engine/thread_pool.hpp"

namespace arbor::check {
class Monitor;  // check/monitor.hpp
}  // namespace arbor::check

namespace arbor::engine {

/// Per-round commit hook: invoked once per round when the round is
/// committed — compute done, caps validated, traffic stats final. Under
/// strict execution that is after the round's delivery; under async
/// overlap the round's delivery may still be in flight (it runs fused
/// with the next compute), so the hook must not inspect inboxes — it is
/// for accounting (clusters charge their ledgers here), and the charged
/// totals are identical in every mode, including mid-program throws.
using RoundHook = std::function<void(const RoundStats&)>;

class Scheduler {
 public:
  /// `pool` may be null (phases run inline on the calling thread); it is
  /// borrowed, not owned.
  Scheduler(ExecutionPolicy policy, ThreadPool* pool)
      : policy_(policy), pool_(pool) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Execute `program` on `state`. `first_round_index` only feeds error
  /// messages; `on_round` (optional) fires once per completed round. Not
  /// thread-safe and not reentrant: a shared scheduler executes one program
  /// at a time and fails loudly otherwise.
  ProgramStats run(RoundState& state, std::size_t capacity,
                   std::size_t first_round_index, const RoundProgram& program,
                   const RoundHook& on_round);

 private:
  void run_parallel(std::size_t n, const ThreadPool::BlockFn& fn);
  /// `monitor` non-null routes the phase through checked execution
  /// (inline, single-threaded) instead of the parallel block loop.
  void compute(RoundState& state, std::size_t capacity,
               const ProgramStep& step, check::Monitor* monitor);
  RoundStats route(RoundState& state, std::size_t capacity,
                   std::size_t round_index, const std::string& step_name);
  void deliver(RoundState& state);
  /// Zero-copy route+delivery for flat unchecked rounds: count
  /// per-destination volume, validate the caps, and stage span references
  /// into the frozen outbox bank (then flip banks so the spans survive the
  /// next compute). Pool-less execution does it in ONE source-major pass
  /// with no routing table; under a pool, route() builds the
  /// destination-grouped table (and validates the caps) first and worker
  /// threads stage the spans sharded by destination — disjoint
  /// destinations, so lock-free. Caps are validated — with route()'s exact
  /// error text — before any inbox state changes, so a violating round
  /// leaves the previous round's inboxes intact exactly like the two-phase
  /// path. Delivery order is identical to deliver(): the counting sort
  /// groups by destination but keeps (source asc, send order) inside each
  /// group, which is exactly the order a single source-major pass
  /// produces.
  RoundStats route_and_deliver_direct(RoundState& state, std::size_t capacity,
                                      std::size_t round_index,
                                      const std::string& step_name);
  /// Copy scatter-delivered spans into the flat inboxes and drop the
  /// scatter flag; no-op when the last delivery already produced flat
  /// inboxes. Runs on every program exit path.
  void materialize_scatter(RoundState& state);
  void deliver_and_compute(RoundState& state, std::size_t capacity,
                           const ProgramStep& next_step);

  ExecutionPolicy policy_;
  ThreadPool* pool_;  // null => phases run inline
  // Reentrancy/concurrency guard. Atomic so that a step function calling
  // back into a shared scheduler from a worker thread is reported as the
  // programming error it is instead of being a data race on the flag.
  std::atomic<bool> in_program_{false};

  // Scratch routing tables, reused across rounds.
  struct Route {
    std::uint32_t src = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::vector<std::size_t> recv_words_;
  std::vector<std::size_t> recv_msgs_;
  std::vector<std::size_t> route_begin_;  // per dst: first index into routes_
  std::vector<std::size_t> route_cursor_;
  std::vector<Route> routes_;
  // Staging bank for route_and_deliver_direct: spans are collected here and
  // swapped into the state only after the caps validate, so a cap violation
  // leaves the previous round's inboxes untouched.
  std::vector<ScatterInbox> scatter_scratch_;
};

}  // namespace arbor::engine
