#include "graph/io.hpp"

#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "graph/builder.hpp"
#include "util/assert.hpp"
#include "util/env_knob.hpp"

namespace arbor::graph {

namespace {

[[noreturn]] void reject_line(std::size_t line_no, const std::string& what) {
  throw InvariantError("edge list line " + std::to_string(line_no) + ": " +
                       what);
}

// Whitespace-separated tokens of one line ('\r' included, so CRLF files
// read like LF files).
std::vector<std::string_view> tokens_of(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::vector<std::string_view> tokens;
  std::size_t pos = line.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, pos);
    tokens.push_back(line.substr(pos, end - pos));
    pos = end == std::string_view::npos ? end
                                        : line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

// An unsigned decimal that fits a VertexId: no sign, no overflow.
VertexId parse_field(std::string_view token, const char* field,
                     std::size_t line_no) {
  const std::string what =
      "edge list line " + std::to_string(line_no) + ": " + field;
  return static_cast<VertexId>(util::parse_count_knob(
      token, "value", 0, std::numeric_limits<VertexId>::max(), what, token));
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  VertexId n = 0, m = 0;
  bool header_seen = false;
  GraphBuilder builder(0);
  std::size_t edges_read = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string_view> tokens = tokens_of(line);
    if (tokens.size() != 2)
      reject_line(line_no, std::string(header_seen ? "want 'u v'"
                                                   : "want header 'n m'") +
                               ", got " + std::to_string(tokens.size()) +
                               " fields");
    if (!header_seen) {
      n = parse_field(tokens[0], "vertex count", line_no);
      m = parse_field(tokens[1], "edge count", line_no);
      header_seen = true;
      builder = GraphBuilder(n);
      continue;
    }
    const VertexId u = parse_field(tokens[0], "endpoint", line_no);
    const VertexId v = parse_field(tokens[1], "endpoint", line_no);
    if (u >= n || v >= n)
      reject_line(line_no, "endpoint " + std::to_string(u >= n ? u : v) +
                               " out of range for n = " + std::to_string(n));
    if (edges_read == m)
      reject_line(line_no, "more edges than the header's m = " +
                               std::to_string(m));
    builder.add_edge(u, v);
    ++edges_read;
  }
  if (!header_seen) reject_line(line_no, "no header line 'n m'");
  if (edges_read != m)
    reject_line(line_no, "read " + std::to_string(edges_read) +
                             " edges, header says m = " + std::to_string(m));
  return builder.build();
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  ARBOR_CHECK_MSG(in.good(), "cannot open graph file: " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  ARBOR_CHECK_MSG(out.good(), "cannot open output file: " + path);
  write_edge_list(out, g);
}

}  // namespace arbor::graph
