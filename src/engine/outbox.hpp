// Flat per-machine outbox and the Sender handed to step functions.
//
// A send appends the payload to the machine's Word arena and records a
// (dst, offset, length) triple — no per-message allocation. Arenas persist
// across rounds inside RoundState and clear() keeps their capacity, so after
// the first few rounds a steady-state round performs no allocation at all on
// the send side. The sender-side traffic cap is enforced as messages are
// queued; the destination range is validated here too, so the merge phase
// can trust every record.
//
// Tradeoff vs. the pre-engine executor: sends always copy the payload into
// the arena (the old per-message std::vector could be moved end-to-end).
// The copy is what makes zero-allocation rounds and lock-free parallel
// delivery possible, and it wins on measured round throughput even for the
// serial executor; but a step function that materializes a large buffer
// solely to send it should prefer building it in place and sending a span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/types.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

/// One machine's outgoing messages for the current round.
struct Outbox {
  struct Msg {
    std::size_t dst = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  std::vector<Word> words;
  std::vector<Msg> msgs;

  void clear() noexcept {
    words.clear();
    msgs.clear();
  }

  std::size_t word_count() const noexcept { return words.size(); }

  std::span<const Word> payload(const Msg& m) const {
    return {words.data() + m.offset, m.length};
  }
};

/// Outgoing-message sink handed to the per-machine step function.
class Sender {
 public:
  Sender(std::size_t source, std::size_t capacity, std::size_t num_machines,
         Outbox& out)
      : source_(source),
        capacity_(capacity),
        num_machines_(num_machines),
        out_(out) {}

  void send(std::size_t dst_machine, std::span<const Word> payload) {
    ARBOR_CHECK_MSG(dst_machine < num_machines_,
                    "message to nonexistent machine " +
                        std::to_string(dst_machine) + " from machine " +
                        std::to_string(source_));
    words_sent_ += payload.size();
    ARBOR_CHECK_MSG(words_sent_ <= capacity_,
                    "machine " + std::to_string(source_) +
                        " exceeded send capacity " + std::to_string(capacity_));
    out_.msgs.push_back({dst_machine, out_.words.size(), payload.size()});
    out_.words.insert(out_.words.end(), payload.begin(), payload.end());
  }

  void send(std::size_t dst_machine, const std::vector<Word>& payload) {
    send(dst_machine, std::span<const Word>(payload));
  }

  std::size_t words_sent() const noexcept { return words_sent_; }
  std::size_t source() const noexcept { return source_; }

 private:
  std::size_t source_;
  std::size_t capacity_;
  std::size_t num_machines_;
  std::size_t words_sent_ = 0;
  Outbox& out_;
};

}  // namespace arbor::engine
