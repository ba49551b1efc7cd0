// Model-race detector: checked execution of RoundProgram steps.
//
// ExecutionPolicy::checked() routes every compute phase through a Monitor
// instead of the parallel block loop. The Monitor executes the step twice
// for machine-independent steps — once in DESCENDING machine order into
// scratch outboxes (the adversarial schedule), once in ASCENDING order
// into the real outboxes (the reference schedule the serial executor
// uses) — with registered state snapshotted and restored in between, and
// raises a deterministic RaceError when:
//
//   * any invocation changes a state slice owned by a DIFFERENT machine
//     (cross-machine write — violates the StepFn concurrency contract),
//   * a machine's sends or post-step state differ between the two orders
//     (cross-machine read inside a kMachineIndependent step — the tag
//     promised order independence and the replay disproved it),
//   * a continue callback writes machine-owned state while the program
//     contains independent steps (the callback's writes are exactly the
//     "global aggregates updated between rounds" the contract bans).
//
// Barrier steps run once (cross-machine reads are legal there) but keep
// the per-invocation write check. Everything is single-threaded and
// deterministic, so violations reproduce bit-identically in tier-1 with
// no sanitizer or thread schedule involved.
//
// State is visible to the Monitor two ways: families declared up front on
// the program (ownership.hpp) and spans registered dynamically from
// inside a running step via owned_span() below. When no checked run is
// active, owned_span is one relaxed atomic load and a branch — the same
// zero-cost-when-off discipline trace::Tracer::mode() uses
// (bench_engine_scaling A/Bs it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/ownership.hpp"
#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "engine/program.hpp"
#include "util/assert.hpp"

namespace arbor::check {

/// A checked-execution violation. Subtype of InvariantError so the
/// multi-process error relay (worker -> kError -> driver rethrow) carries
/// it across the wire like any other simulated-machine invariant.
class RaceError : public InvariantError {
 public:
  explicit RaceError(const std::string& what) : InvariantError(what) {}
};

/// Register `span` as owned by `machine` with the checked run active on
/// this thread, if any — a no-op (one relaxed load + branch) otherwise.
/// Call it from inside a step function (before mutating the span) for
/// state that is not declared as an Ownership family up front.
void owned_span(std::size_t machine, std::span<engine::Word> span);

/// One program execution's shadow state. Built per run_program call from
/// the program's Ownership declaration; drives every step of that program.
class Monitor {
 public:
  Monitor(const engine::RoundProgram& program, std::size_t capacity,
          std::size_t num_machines);
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Execute `step` for machines [begin, end) under checking. `inbox_of`
  /// yields a machine's delivered inbox; `out` is the real outbox bank,
  /// indexed by absolute machine id (out[m] is cleared and written for
  /// every m in the range, exactly like the unchecked compute phase).
  void run_step(const engine::ProgramStep& step, std::size_t begin,
                std::size_t end,
                const std::function<engine::InboxView(std::size_t)>& inbox_of,
                std::vector<engine::Outbox>& out);

  /// Guard a continue callback / pass hook: capture hashes() before
  /// invoking it, then expect_continue_clean(before) after. Raises only
  /// when the program has machine-independent steps (barrier-only
  /// programs may legally maintain shared pass state in the callback).
  std::vector<std::uint64_t> hashes() const;
  void expect_continue_clean(const std::vector<std::uint64_t>& before,
                             const std::string& what) const;

  /// Dynamic registration target of owned_span() (active runs only).
  void note_span(std::size_t machine, engine::Word* data, std::size_t count);

 private:
  struct DynSpan {
    std::size_t machine = 0;
    engine::Word* data = nullptr;
    std::size_t count = 0;
    std::vector<engine::Word> registered_content;  ///< restore target
  };

  std::size_t slot_count() const;
  std::uint64_t slot_hash(std::size_t slot) const;
  std::string slot_describe(std::size_t slot) const;
  std::size_t slot_owner(std::size_t slot) const;
  void hash_all(std::vector<std::uint64_t>& into) const;
  void check_writes(const std::vector<std::uint64_t>& before,
                    std::size_t writer, const engine::ProgramStep& step);
  void snapshot_families();
  void restore_families();

  std::shared_ptr<const Ownership> ownership_;  ///< may be null
  std::size_t capacity_ = 0;
  std::size_t num_machines_ = 0;
  bool has_independent_ = false;
  std::string independent_step_;  ///< name of the first independent step
  std::vector<DynSpan> dyn_spans_;
  std::vector<std::shared_ptr<void>> family_snaps_;
  std::vector<std::vector<engine::Word>> dyn_snaps_;  ///< step-start content
  std::size_t dyn_snap_count_ = 0;
  std::vector<engine::Outbox> probe_out_;  ///< adversarial-order outboxes
  // Scratch hash buffers reused across invocations.
  std::vector<std::uint64_t> pre_, post_, probe_state_, real_state_;
};

}  // namespace arbor::check
