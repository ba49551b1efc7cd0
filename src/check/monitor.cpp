#include "check/monitor.hpp"

#include <atomic>
#include <sstream>
#include <utility>

#include "util/hashing.hpp"

namespace arbor::check {
namespace {

std::atomic<int> g_active_monitors{0};
thread_local Monitor* tl_monitor = nullptr;

/// Scopes owned_span() registration to the thread driving a checked step.
class ThreadMonitorScope {
 public:
  explicit ThreadMonitorScope(Monitor* m) : prev_(tl_monitor) {
    tl_monitor = m;
  }
  ~ThreadMonitorScope() { tl_monitor = prev_; }
  ThreadMonitorScope(const ThreadMonitorScope&) = delete;
  ThreadMonitorScope& operator=(const ThreadMonitorScope&) = delete;

 private:
  Monitor* prev_;
};

std::uint64_t outbox_fingerprint(const engine::Outbox& out) {
  std::uint64_t h = util::mix64(0x6f7574);  // "out"
  h = util::hash_combine(h, out.msgs.size());
  for (const engine::Outbox::Msg& m : out.msgs) {
    h = util::hash_combine(h, m.dst);
    h = util::hash_combine(h, m.length);
    for (engine::Word w : out.payload(m)) h = util::hash_combine(h, w);
  }
  return h;
}

std::string quoted(const std::string& name) { return "\"" + name + "\""; }

}  // namespace

void owned_span(std::size_t machine, std::span<engine::Word> span) {
  // Fast gate: one relaxed load and a branch when no checked run exists
  // anywhere in the process (the tracer's zero-cost-off discipline).
  if (g_active_monitors.load(std::memory_order_relaxed) == 0) return;
  if (Monitor* m = tl_monitor) m->note_span(machine, span.data(), span.size());
}

Monitor::Monitor(const engine::RoundProgram& program, std::size_t capacity,
                 std::size_t num_machines)
    : ownership_(program.ownership),
      capacity_(capacity),
      num_machines_(num_machines) {
  for (const engine::ProgramStep& step : program.steps) {
    if (step.kind == engine::StepKind::kMachineIndependent) {
      has_independent_ = true;
      independent_step_ = step.name;
      break;
    }
  }
  g_active_monitors.fetch_add(1, std::memory_order_relaxed);
}

Monitor::~Monitor() {
  g_active_monitors.fetch_sub(1, std::memory_order_relaxed);
}

void Monitor::note_span(std::size_t machine, engine::Word* data,
                        std::size_t count) {
  for (const DynSpan& s : dyn_spans_)
    if (s.data == data && s.count == count) return;
  DynSpan span;
  span.machine = machine;
  span.data = data;
  span.count = count;
  span.registered_content.assign(data, data + count);
  dyn_spans_.push_back(std::move(span));
}

std::size_t Monitor::slot_count() const {
  const std::size_t fam = ownership_ ? ownership_->families().size() : 0;
  return fam * num_machines_ + dyn_spans_.size();
}

std::uint64_t Monitor::slot_hash(std::size_t slot) const {
  const std::size_t fam = ownership_ ? ownership_->families().size() : 0;
  if (slot < fam * num_machines_)
    return ownership_->families()[slot / num_machines_].hash(slot %
                                                             num_machines_);
  const DynSpan& s = dyn_spans_[slot - fam * num_machines_];
  return detail::hash_span(s.data, s.count);
}

std::size_t Monitor::slot_owner(std::size_t slot) const {
  const std::size_t fam = ownership_ ? ownership_->families().size() : 0;
  if (slot < fam * num_machines_) return slot % num_machines_;
  return dyn_spans_[slot - fam * num_machines_].machine;
}

std::string Monitor::slot_describe(std::size_t slot) const {
  const std::size_t fam = ownership_ ? ownership_->families().size() : 0;
  if (slot < fam * num_machines_)
    return ownership_->families()[slot / num_machines_].describe(
        slot % num_machines_);
  const DynSpan& s = dyn_spans_[slot - fam * num_machines_];
  return detail::describe_span("owned_span", s.machine, s.data, s.count);
}

void Monitor::hash_all(std::vector<std::uint64_t>& into) const {
  const std::size_t n = slot_count();
  into.resize(n);
  for (std::size_t i = 0; i < n; ++i) into[i] = slot_hash(i);
}

void Monitor::check_writes(const std::vector<std::uint64_t>& before,
                           std::size_t writer,
                           const engine::ProgramStep& step) {
  hash_all(post_);
  // Spans registered DURING this invocation appended past before.size();
  // they have no pre-image to compare (the contract is "register before
  // mutating"), so only the common prefix is checkable.
  for (std::size_t slot = 0; slot < before.size(); ++slot) {
    if (post_[slot] == before[slot]) continue;
    const std::size_t owner = slot_owner(slot);
    if (owner == writer) continue;
    std::ostringstream os;
    os << "checked execution: step " << quoted(step.name) << ": machine "
       << writer << " wrote state owned by machine " << owner << " ("
       << slot_describe(slot) << ")";
    throw RaceError(os.str());
  }
}

void Monitor::snapshot_families() {
  family_snaps_.clear();
  if (ownership_)
    for (const Family& f : ownership_->families())
      family_snaps_.push_back(f.snapshot());
  dyn_snap_count_ = dyn_spans_.size();
  dyn_snaps_.resize(dyn_snap_count_);
  for (std::size_t i = 0; i < dyn_snap_count_; ++i)
    dyn_snaps_[i].assign(dyn_spans_[i].data,
                         dyn_spans_[i].data + dyn_spans_[i].count);
}

void Monitor::restore_families() {
  if (ownership_) {
    const std::vector<Family>& families = ownership_->families();
    for (std::size_t i = 0; i < family_snaps_.size(); ++i)
      families[i].restore(family_snaps_[i]);
  }
  for (std::size_t i = 0; i < dyn_spans_.size(); ++i) {
    // Spans known before the probe restore to their step-start content;
    // spans first registered inside the probe restore to their
    // at-registration content (their owner had not yet mutated them).
    const std::vector<engine::Word>& src =
        i < dyn_snap_count_ ? dyn_snaps_[i] : dyn_spans_[i].registered_content;
    std::copy(src.begin(), src.end(), dyn_spans_[i].data);
  }
}

void Monitor::run_step(
    const engine::ProgramStep& step, std::size_t begin, std::size_t end,
    const std::function<engine::InboxView(std::size_t)>& inbox_of,
    std::vector<engine::Outbox>& out) {
  ThreadMonitorScope scope(this);
  const bool probe =
      step.kind == engine::StepKind::kMachineIndependent && end - begin > 1;

  if (probe) {
    snapshot_families();
    if (probe_out_.size() < out.size()) probe_out_.resize(out.size());
    // Adversarial schedule: descending machine order. Any machine that
    // reads a peer's state sees it in a different phase than under the
    // ascending reference order below, so the fingerprints diverge.
    for (std::size_t m = end; m-- > begin;) {
      hash_all(pre_);
      probe_out_[m].clear();
      engine::Sender sender(m, capacity_, num_machines_, probe_out_[m]);
      step.fn(m, inbox_of(m), sender);
      check_writes(pre_, m, step);
    }
    hash_all(probe_state_);
    restore_families();
  }

  // Reference schedule: ascending order into the real outboxes — the order
  // the serial executor uses, so checked runs stay bit-identical to it.
  for (std::size_t m = begin; m < end; ++m) {
    hash_all(pre_);
    out[m].clear();
    engine::Sender sender(m, capacity_, num_machines_, out[m]);
    step.fn(m, inbox_of(m), sender);
    check_writes(pre_, m, step);
    if (probe &&
        outbox_fingerprint(out[m]) != outbox_fingerprint(probe_out_[m])) {
      std::ostringstream os;
      os << "checked execution: step " << quoted(step.name)
         << " is tagged machine-independent but machine " << m
         << "'s sends depend on machine execution order";
      throw RaceError(os.str());
    }
  }

  if (probe) {
    hash_all(real_state_);
    const std::size_t n = std::min(probe_state_.size(), real_state_.size());
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (real_state_[slot] == probe_state_[slot]) continue;
      std::ostringstream os;
      os << "checked execution: step " << quoted(step.name)
         << " is tagged machine-independent but state owned by machine "
         << slot_owner(slot) << " (" << slot_describe(slot)
         << ") depends on machine execution order";
      throw RaceError(os.str());
    }
  }
}

std::vector<std::uint64_t> Monitor::hashes() const {
  std::vector<std::uint64_t> h;
  hash_all(h);
  return h;
}

void Monitor::expect_continue_clean(const std::vector<std::uint64_t>& before,
                                    const std::string& what) const {
  // Barrier-only programs may legally maintain shared pass state in their
  // continue callback (peeling's round counter); only programs with
  // machine-independent steps promise the callback stays out of the state
  // those steps read.
  if (!has_independent_) return;
  std::vector<std::uint64_t> after;
  hash_all(after);
  const std::size_t n = std::min(before.size(), after.size());
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (after[slot] == before[slot]) continue;
    std::ostringstream os;
    os << "checked execution: " << what << " mutated state owned by machine "
       << slot_owner(slot) << " (" << slot_describe(slot)
       << ") while the program has machine-independent step "
       << quoted(independent_step_);
    throw RaceError(os.str());
  }
}

}  // namespace arbor::check
