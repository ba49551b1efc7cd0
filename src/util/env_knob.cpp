#include "util/env_knob.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <system_error>

#include "util/assert.hpp"

namespace arbor::util {

void reject_knob(std::string_view what, std::string_view value,
                 std::string_view problem) {
  throw InvariantError(std::string(what) + "=\"" + std::string(value) +
                       "\": " + std::string(problem));
}

bool parse_bool_knob(std::string_view value, std::string_view what) {
  if (value == "1" || value == "on" || value == "true" || value == "yes")
    return true;
  if (value == "0" || value == "off" || value == "false" || value == "no")
    return false;
  reject_knob(what, value,
              "not a boolean flag (use 1/on/true/yes or 0/off/false/no)");
}

KnobParts split_knob(std::string_view value) {
  const auto colon = value.find(':');
  if (colon == std::string_view::npos) return {value, std::nullopt};
  return {value.substr(0, colon), value.substr(colon + 1)};
}

std::size_t parse_count_knob(std::string_view digits, std::string_view item,
                             std::size_t min, std::size_t max,
                             std::string_view what, std::string_view value) {
  if (digits.empty())
    reject_knob(what, value, std::string(item) + " is empty");
  std::size_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9')
      reject_knob(what, value, std::string(item) + " is not a number");
    const auto digit = static_cast<std::size_t>(c - '0');
    if (digit > max || n > (max - digit) / 10)
      reject_knob(what, value, std::string(item) + " out of range");
    n = n * 10 + digit;
  }
  if (n < min)
    reject_knob(what, value,
                std::string(item) + " must be >= " + std::to_string(min));
  return n;
}

double parse_finite_knob(std::string_view text, std::string_view what) {
  double x = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(x))
    reject_knob(what, text, "not a finite decimal number");
  return x;
}

std::optional<std::string_view> env_knob(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::string_view(env);
}

}  // namespace arbor::util
