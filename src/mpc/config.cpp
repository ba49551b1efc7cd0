#include "mpc/config.hpp"

#include <string>
#include <utility>

#include "util/env_knob.hpp"

namespace arbor::mpc {

bool parse_bool_flag(std::string_view value, std::string_view what) {
  return util::parse_bool_knob(value, what);
}

TransportConfig parse_transport_flag(std::string_view value,
                                     std::string_view what) {
  const auto [kind, arg] = util::split_knob(value);
  // "tcp:" is a truncated "tcp:N" (or a script interpolating an empty
  // variable) — strict means strict, not "fall back to the default".
  if (arg && arg->empty())
    util::reject_knob(what, value, "worker count is empty");

  TransportConfig cfg;
  if (kind == "inprocess" || kind == "in-process") {
    cfg.kind = TransportConfig::Kind::kInProcess;
    if (arg)
      util::reject_knob(what, value,
                        "the in-process transport takes no worker count");
    return cfg;
  } else if (kind == "loopback") {
    cfg.kind = TransportConfig::Kind::kLoopback;
  } else if (kind == "tcp") {
    cfg.kind = TransportConfig::Kind::kTcp;
  } else {
    util::reject_knob(what, value,
                      "not a transport (use inprocess, loopback[:workers], "
                      "or tcp[:workers])");
  }

  if (arg)
    cfg.workers = util::parse_count_knob(*arg, "worker count", 1, 1024, what,
                                         value);
  return cfg;
}

bool distributed_level1_env_default() {
  static const bool value = [] {
    const auto env = util::env_knob("ARBOR_DISTRIBUTED_LEVEL1");
    if (!env) return false;
    return parse_bool_flag(*env, "ARBOR_DISTRIBUTED_LEVEL1");
  }();
  return value;
}

TransportConfig transport_env_default() {
  static const TransportConfig value = [] {
    const auto env = util::env_knob("ARBOR_TRANSPORT");
    if (!env) return TransportConfig{};
    return parse_transport_flag(*env, "ARBOR_TRANSPORT");
  }();
  return value;
}

void ClusterConfig::validate() const {
  ARBOR_CHECK_MSG(num_machines > 0,
                  "ClusterConfig::num_machines must be positive");
  ARBOR_CHECK_MSG(words_per_machine > 0,
                  "ClusterConfig::words_per_machine must be positive");
  const std::pair<bool, const char*> retired[] = {
      {route_aggregation, "route_aggregation"},
      {merge_path, "merge_path"},
      {fetch_cache, "fetch_cache"},
  };
  for (const auto& [value, field] : retired)
    ARBOR_CHECK_MSG(value, std::string("ClusterConfig::") + field +
                               " is retired and accepts only true");
}

}  // namespace arbor::mpc
