// trace-validate: check an arbor Chrome-trace file (scripts/check.sh
// --trace-smoke).
//
//   trace-validate FILE [--min-events N] [--expect label,label,...]
//                       [--expect-pids N] [--metrics name,name,...]
//
// Validates that FILE is well-formed JSON (src/trace/json_check.hpp — a
// real parse, not a grep), contains a traceEvents array with at least N
// complete ("ph": "X") events, mentions every --expect label in some
// event name, and carries process-name metadata for at least N distinct
// lanes (--expect-pids: driver + workers). A file with ZERO complete
// spans is rejected by name even when --min-events would allow it — an
// empty trace means the tracer never armed, which is the silent failure
// this tool exists to catch. --metrics asserts the file embeds a metrics
// block naming each given counter/histogram. Exit 0 on success; prints
// the first failure and exits 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/json_check.hpp"
#include "util/assert.hpp"
#include "util/env_knob.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--min-events N] [--expect l1,l2,...] "
               "[--expect-pids N] [--metrics n1,n2,...]\n",
               argv0);
  std::exit(2);
}

void split_list(const std::string& list, std::vector<std::string>& out) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t min_events = 1;
  std::size_t expect_pids = 0;
  std::vector<std::string> expect_labels;
  std::vector<std::string> expect_metrics;
  // Count values parse strictly: a malformed one exits 2 naming the flag.
  const auto count_value = [&](const char* flag, const char* text) {
    try {
      return arbor::util::parse_count_knob(text, "value", 0, 1'000'000'000,
                                           flag, text);
    } catch (const arbor::InvariantError& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      usage(argv[0]);
    }
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-events") == 0 && i + 1 < argc) {
      min_events = count_value(argv[i], argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--expect-pids") == 0 && i + 1 < argc) {
      expect_pids = count_value(argv[i], argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--expect") == 0 && i + 1 < argc) {
      split_list(argv[++i], expect_labels);
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      split_list(argv[++i], expect_metrics);
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (path.empty()) usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace-validate: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();

  const arbor::trace::JsonCheckResult check = arbor::trace::check_json(body);
  if (!check.ok) {
    std::fprintf(stderr, "trace-validate: %s is not valid JSON: %s at byte %zu\n",
                 path.c_str(), check.error.c_str(), check.offset);
    return 1;
  }
  if (body.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "trace-validate: %s has no traceEvents array\n",
                 path.c_str());
    return 1;
  }
  const std::size_t events = count_occurrences(body, "\"ph\":\"X\"");
  if (events == 0) {
    std::fprintf(stderr,
                 "trace-validate: %s contains zero complete spans — the "
                 "tracer never armed or nothing ran under it\n",
                 path.c_str());
    return 1;
  }
  if (events < min_events) {
    std::fprintf(stderr,
                 "trace-validate: %s has %zu complete events, expected >= %zu\n",
                 path.c_str(), events, min_events);
    return 1;
  }
  const std::size_t lanes = count_occurrences(body, "\"process_name\"");
  if (lanes < expect_pids) {
    std::fprintf(stderr,
                 "trace-validate: %s has %zu process lanes, expected >= %zu\n",
                 path.c_str(), lanes, expect_pids);
    return 1;
  }
  for (const std::string& label : expect_labels) {
    if (body.find(label) == std::string::npos) {
      std::fprintf(stderr, "trace-validate: %s never mentions \"%s\"\n",
                   path.c_str(), label.c_str());
      return 1;
    }
  }
  if (!expect_metrics.empty() &&
      body.find("\"metrics\"") == std::string::npos) {
    std::fprintf(stderr,
                 "trace-validate: %s embeds no metrics block (was the run "
                 "traced with metrics on?)\n",
                 path.c_str());
    return 1;
  }
  for (const std::string& metric : expect_metrics) {
    if (body.find("\"" + metric + "\"") == std::string::npos) {
      std::fprintf(stderr,
                   "trace-validate: %s records no counter/histogram named "
                   "\"%s\"\n",
                   path.c_str(), metric.c_str());
      return 1;
    }
  }
  std::printf("trace-validate: %s ok (%zu events, %zu lanes)\n", path.c_str(),
              events, lanes);
  return 0;
}
