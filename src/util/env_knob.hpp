// Strict parsing for the ARBOR_* environment knobs.
//
// Every knob (ARBOR_DISTRIBUTED_LEVEL1, ARBOR_TRANSPORT, ARBOR_TRACE,
// ARBOR_TSAN, ...) shares one contract: unknown or malformed values throw
// an InvariantError with the single canonical message shape
//
//     NAME="value": <problem>
//
// instead of silently falling back to a default — a typo like
// ARBOR_DISTRIBUTED_LEVEL1=ture must fail the run. The helpers here are
// the one place that shape is produced; knob owners (mpc/config.cpp,
// trace/trace.cpp) only supply the problem text.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace arbor::util {

/// Throw the canonical knob rejection: `what="value": problem`.
[[noreturn]] void reject_knob(std::string_view what, std::string_view value,
                              std::string_view problem);

/// Exactly "1"/"on"/"true"/"yes" → true, "0"/"off"/"false"/"no" → false;
/// anything else is rejected by name.
bool parse_bool_knob(std::string_view value, std::string_view what);

/// A knob split at its first ':' — "tcp:4" → {"tcp", "4"}, "full" →
/// {"full", nullopt}. A present-but-empty argument ("tcp:") stays an
/// empty string_view so callers can reject it by item name; silent
/// fallback on a truncated knob is exactly the bug this layer exists to
/// prevent.
struct KnobParts {
  std::string_view head;
  std::optional<std::string_view> arg;
};
KnobParts split_knob(std::string_view value);

/// Parse `digits` as a decimal count in [min, max]. `item` names the field
/// in rejections ("worker count", ...); `what`/`value` identify the whole
/// knob so the message always shows the full offending setting.
std::size_t parse_count_knob(std::string_view digits, std::string_view item,
                             std::size_t min, std::size_t max,
                             std::string_view what, std::string_view value);

/// Parse `text` as a finite decimal number (no inf/nan, no leading '+',
/// nothing trailing), rejected as `what="text": <problem>`. Range checks
/// stay with the caller, which knows the field's meaning.
double parse_finite_knob(std::string_view text, std::string_view what);

/// getenv() that treats unset and empty identically (both → nullopt):
/// an exported-but-empty knob means "default", not "reject".
std::optional<std::string_view> env_knob(const char* name);

}  // namespace arbor::util
