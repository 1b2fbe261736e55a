// Invariant battery for the graph-topology subsystem and the correctness
// satellites that shipped with it:
//  * topology invariants — torus and ring rows in stencil order (and the
//    ring's refusal of windows wider than the ring), lollipop degree
//    spectrum, random-regular degree exactness, small-world edge
//    conservation, edge-list round-trips and malformed-input refusal;
//  * seeded mutation fuzz of the edge-list loader (byte flips,
//    truncations, dropped lines, duplicate and self edges, a hub over
//    the neighbourhood limit) against a reference reading of each
//    mutant: every rejection names its line or node, and every accepted
//    graph is exactly the one the mutant describes;
//  * greedy-BFS partition coverage/balance and the boundary definition;
//  * randomized flip fuzz over all three synthetic families: engine
//    invariant audit, degree conservation, magnetization bookkeeping;
//  * checked-parse helpers (util/parse.h): trailing garbage, overflow,
//    negative-into-unsigned, error messages naming the offending token;
//  * ArgParser malformed-value recording;
//  * checkpoint torn-write refusal (truncations must never load);
//  * ScenarioSpec topology keys: round-trip, default-text stability
//    (hash compatibility), graph-parameter validation, and refusal of
//    neighbourhoods over the engine's int16 count limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/scenario.h"
#include "core/model.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "grid/point.h"
#include "lattice/membership.h"
#include "rng/rng.h"
#include "util/args.h"
#include "util/parse.h"
#include "util/seg_assert.h"

namespace seg {
namespace {

// ---- builders ---------------------------------------------------------------

TEST(GraphTopologyTest, TorusRowsFollowStencilOrder) {
  const int n = 7;
  const auto offsets = neighborhood_offsets(NeighborhoodShape::kMoore, 2);
  const GraphTopology g = GraphTopology::torus(n, offsets);
  ASSERT_EQ(g.node_count(), static_cast<std::size_t>(n) * n);
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    const int x = static_cast<int>(v) % n;
    const int y = static_cast<int>(v) / n;
    const auto [row, len] = g.row(v);
    ASSERT_EQ(len, static_cast<int>(offsets.size()));
    for (int i = 0; i < len; ++i) {
      const int nx = torus_wrap(x + offsets[i].x, n);
      const int ny = torus_wrap(y + offsets[i].y, n);
      ASSERT_EQ(row[i], static_cast<std::uint32_t>(ny * n + nx))
          << "node " << v << " stencil slot " << i;
    }
  }
  EXPECT_TRUE(g.validate());
}

TEST(GraphTopologyTest, RingRowsFollowStencilOrder) {
  for (const auto& [n, w] : {std::pair{5, 2}, std::pair{40, 1},
                            std::pair{40, 6}}) {
    const GraphTopology g = GraphTopology::ring(n, w);
    std::string error;
    ASSERT_TRUE(g.validate(&error)) << error;
    ASSERT_EQ(g.node_count(), static_cast<std::size_t>(n));
    EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n) * w);
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
      const auto [row, len] = g.row(v);
      ASSERT_EQ(len, 2 * w + 1);
      for (int d = -w; d <= w; ++d) {
        ASSERT_EQ(row[d + w],
                  static_cast<std::uint32_t>(
                      torus_wrap(static_cast<int>(v) + d, n)))
            << "n=" << n << " w=" << w << " node " << v << " offset " << d;
      }
    }
  }
}

TEST(GraphTopologyTest, RingRefusesWindowWiderThanRing) {
#ifdef SEG_DEBUG_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(GraphTopology::ring(6, 3), "2w\\+1 <= n");
  EXPECT_DEATH(GraphTopology::ring(8, 0), "w >= 1");
#else
  GTEST_SKIP() << "SEG_ASSERT is compiled out of release builds";
#endif
}

TEST(GraphTopologyTest, LollipopDegreeSpectrum) {
  const int clique = 6, path = 4;
  const GraphTopology g = GraphTopology::lollipop(clique, path);
  std::string error;
  ASSERT_TRUE(g.validate(&error)) << error;
  ASSERT_EQ(g.node_count(), static_cast<std::size_t>(clique + path));
  EXPECT_EQ(g.edge_count(),
            static_cast<std::size_t>(clique * (clique - 1) / 2 + path));
  for (std::uint32_t v = 0; v + 1 < static_cast<std::uint32_t>(clique); ++v) {
    EXPECT_EQ(g.degree(v), clique - 1) << "clique node " << v;
  }
  // The junction carries the clique plus the first path node.
  EXPECT_EQ(g.degree(clique - 1), clique);
  for (std::uint32_t v = clique; v + 1 < g.node_count(); ++v) {
    EXPECT_EQ(g.degree(v), 2) << "path node " << v;
  }
  EXPECT_EQ(g.degree(static_cast<std::uint32_t>(g.node_count() - 1)), 1);
}

TEST(GraphTopologyTest, RandomRegularDegreesExact) {
  // Odd and even degrees, and a degree high enough that rejection
  // sampling of a simple graph would essentially never succeed — the
  // swap-repair construction must still deliver exact degrees.
  struct Case { int nodes, degree; std::uint64_t seed; };
  for (const Case c : {Case{64, 3, 1}, Case{128, 8, 2}, Case{90, 7, 3},
                       Case{256, 16, 4}}) {
    const GraphTopology g =
        GraphTopology::random_regular(c.nodes, c.degree, c.seed);
    std::string error;
    ASSERT_TRUE(g.validate(&error))
        << "nodes=" << c.nodes << " d=" << c.degree << ": " << error;
    ASSERT_EQ(g.node_count(), static_cast<std::size_t>(c.nodes));
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(g.degree(v), c.degree)
          << "nodes=" << c.nodes << " d=" << c.degree << " node " << v;
    }
  }
  // Same seed, same graph; different seed, different graph (whp).
  const GraphTopology a = GraphTopology::random_regular(64, 4, 9);
  const GraphTopology b = GraphTopology::random_regular(64, 4, 9);
  const GraphTopology c = GraphTopology::random_regular(64, 4, 10);
  bool ab_equal = true, ac_equal = true;
  for (std::uint32_t v = 0; v < a.node_count(); ++v) {
    for (std::uint32_t u = 0; u < a.node_count(); ++u) {
      ab_equal &= a.adjacent(v, u) == b.adjacent(v, u);
      ac_equal &= a.adjacent(v, u) == c.adjacent(v, u);
    }
  }
  EXPECT_TRUE(ab_equal);
  EXPECT_FALSE(ac_equal);
}

TEST(GraphTopologyTest, SmallWorldConservesEdgeCount) {
  const int n = 12;
  const auto offsets = neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const GraphTopology torus = GraphTopology::torus(n, offsets);
  for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
    const GraphTopology g = GraphTopology::small_world(n, offsets, beta, 5);
    std::string error;
    ASSERT_TRUE(g.validate(&error)) << "beta=" << beta << ": " << error;
    EXPECT_EQ(g.node_count(), torus.node_count());
    EXPECT_EQ(g.edge_count(), torus.edge_count()) << "beta=" << beta;
  }
  // beta = 0 keeps the torus edge set exactly (rows re-sorted is fine).
  const GraphTopology frozen = GraphTopology::small_world(n, offsets, 0.0, 5);
  for (std::uint32_t v = 0; v < frozen.node_count(); ++v) {
    for (std::uint32_t u = 0; u < frozen.node_count(); ++u) {
      ASSERT_EQ(frozen.adjacent(v, u), torus.adjacent(v, u))
          << "pair " << v << "," << u;
    }
  }
}

TEST(GraphTopologyTest, EdgeListRoundTrip) {
  const std::string path = ::testing::TempDir() + "seg_edges_roundtrip.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# a comment line\n0 1\n1 2\n2 0\n2 3\n\n3 4\n");
  std::fclose(f);
  GraphTopology g;
  std::string error;
  ASSERT_TRUE(GraphTopology::load_edge_list(path, &g, &error)) << error;
  EXPECT_TRUE(g.validate(&error)) << error;
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_FALSE(g.adjacent(0, 3));
  std::remove(path.c_str());
}

TEST(GraphTopologyTest, EdgeListRefusesMalformedInput) {
  const std::string path = ::testing::TempDir() + "seg_edges_malformed.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0 1\n1 2x\n");
  std::fclose(f);
  GraphTopology g;
  std::string error;
  EXPECT_FALSE(GraphTopology::load_edge_list(path, &g, &error));
  // The offending token must be named.
  EXPECT_NE(error.find("2x"), std::string::npos) << error;
  std::remove(path.c_str());
  EXPECT_FALSE(GraphTopology::load_edge_list(
      ::testing::TempDir() + "seg_no_such_file.txt", &g, &error));
}

// ---- edge-list fuzz ------------------------------------------------------------

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

// A star: node 0 joined to nodes 1..leaves.
std::string star_text(int leaves) {
  std::string text;
  for (int v = 1; v <= leaves; ++v) text += "0 " + std::to_string(v) + "\n";
  return text;
}

// What load_edge_list must do with `text`, read independently: the first
// non-blank line that is not two unsigned 32-bit ids is refused by number;
// otherwise no edges is refused, a neighbourhood over the limit is refused
// by node, and anything else loads as from_edges of the listed edges.
struct EdgeListVerdict {
  int bad_line = 0;        // 1-based; 0 = every line reads
  bool no_edges = false;
  long long hub = -1;      // first node over the limit, or -1
  GraphTopology graph;     // valid when accepted
};

bool read_id(const std::string& token, std::uint32_t* out) {
  std::size_t i = token[0] == '+' ? 1 : 0;
  if (i == token.size()) return false;
  unsigned long long value = 0;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    value = value * 10 + static_cast<unsigned>(token[i] - '0');
    if (value > 0xffffffffull) return false;
  }
  *out = static_cast<std::uint32_t>(value);
  return true;
}

EdgeListVerdict reference_verdict(const std::string& text) {
  EdgeListVerdict verdict;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::uint32_t max_node = 0;
  std::istringstream in(text);
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    line = line.substr(0, line.find('#'));
    std::vector<std::string> tokens;
    std::string token;
    for (const char c : line) {
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        if (!token.empty()) tokens.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
    if (!token.empty()) tokens.push_back(token);
    if (tokens.empty()) continue;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    if (tokens.size() != 2 || !read_id(tokens[0], &a) ||
        !read_id(tokens[1], &b)) {
      verdict.bad_line = line_no;
      return verdict;
    }
    edges.emplace_back(a, b);
    max_node = std::max({max_node, a, b});
  }
  if (edges.empty()) {
    verdict.no_edges = true;
    return verdict;
  }
  verdict.graph =
      GraphTopology::from_edges(static_cast<std::size_t>(max_node) + 1, edges);
  for (std::uint32_t v = 0; v < verdict.graph.node_count(); ++v) {
    if (verdict.graph.neighborhood_size(v) > kMaxNeighborhoodSize) {
      verdict.hub = v;
      break;
    }
  }
  return verdict;
}

bool same_graph(const GraphTopology& a, const GraphTopology& b) {
  if (a.node_count() != b.node_count()) return false;
  for (std::uint32_t v = 0; v < a.node_count(); ++v) {
    const auto [ra, la] = a.row(v);
    const auto [rb, lb] = b.row(v);
    if (la != lb || !std::equal(ra, ra + la, rb)) return false;
  }
  return true;
}

class EdgeListMutator {
 public:
  explicit EdgeListMutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string mutate(std::string text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    switch (below(5)) {
      case 0: {  // byte flips, biased toward bytes that stay readable
        static const std::string kAlphabet = "0123456789 \t\n\r#+-x";
        for (std::size_t i = 0, n = 1 + below(3); i < n && !text.empty();
             ++i) {
          text[below(text.size())] =
              below(4) == 0 ? static_cast<char>(below(256))
                            : kAlphabet[below(kAlphabet.size())];
        }
        return text;
      }
      case 1:  // truncation
        return text.substr(0, below(text.size() + 1));
      case 2:  // a dropped line
        if (!lines.empty()) lines.erase(lines.begin() + below(lines.size()));
        break;
      case 3: {  // a duplicate edge, either way round
        std::string line = lines[below(lines.size())];
        const std::size_t space = line.find(' ');
        if (below(2) == 0 && space != std::string::npos) {
          line = line.substr(space + 1) + " " + line.substr(0, space);
        }
        lines.insert(lines.begin() + below(lines.size() + 1), line);
        break;
      }
      default: {  // a self edge on an existing node
        const std::string& line = lines[below(lines.size())];
        const std::string id = line.substr(0, line.find(' '));
        lines.insert(lines.begin() + below(lines.size() + 1), id + " " + id);
        break;
      }
    }
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(EdgeListFuzz, MutantsLoadExactlyOrAreRefusedByLineOrNode) {
  std::string mesh;
  Rng edge_rng(707070);
  for (int i = 0; i < 60; ++i) {
    mesh += std::to_string(edge_rng.uniform_below(30)) + "\t" +
            std::to_string(edge_rng.uniform_below(30)) +
            (i % 7 == 0 ? "  # road\n" : "\n");
  }
  struct Corpus {
    std::string text;
    int mutants;
  };
  const Corpus corpora[] = {
      {"# a comment line\n0 1\n1 2\n2 0\n2 3\n\n3 4\n", 400},
      {mesh, 400},
      // One leaf over the limit: mutants that keep every leaf line are
      // refused by the hub's id.
      {star_text(kMaxNeighborhoodSize), 12},
  };
  const std::string path = ::testing::TempDir() + "seg_edges_fuzz.txt";
  EdgeListMutator mutator(808080);
  int accepted = 0, by_line = 0, by_node = 0, empty = 0;
  for (const Corpus& corpus : corpora) {
    for (int m = 0; m < corpus.mutants; ++m) {
      const std::string text = mutator.mutate(corpus.text);
      write_file(path, text);
      GraphTopology g;
      std::string error;
      const bool ok = GraphTopology::load_edge_list(path, &g, &error);
      const EdgeListVerdict want = reference_verdict(text);
      if (want.bad_line > 0) {
        ++by_line;
        ASSERT_FALSE(ok) << text;
        EXPECT_EQ(error.rfind(path + ":" + std::to_string(want.bad_line) +
                                  ": ",
                              0),
                  0u)
            << error;
      } else if (want.no_edges) {
        ++empty;
        ASSERT_FALSE(ok) << text;
        EXPECT_NE(error.find("has no edges"), std::string::npos) << error;
      } else if (want.hub >= 0) {
        ++by_node;
        ASSERT_FALSE(ok);
        EXPECT_NE(error.find("node " + std::to_string(want.hub) + " "),
                  std::string::npos)
            << error;
      } else {
        ++accepted;
        ASSERT_TRUE(ok) << error << "\n" << text;
        EXPECT_TRUE(same_graph(g, want.graph)) << text;
        // validate() is quadratic in the hub's degree; the small corpora
        // cover it.
        if (g.max_neighborhood_size() < 64) {
          EXPECT_TRUE(g.validate(&error)) << error;
        }
      }
    }
  }
  std::remove(path.c_str());
  // Every outcome class is exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(by_line, 50);
  EXPECT_GT(by_node, 0);
  EXPECT_GT(empty, 0);
}

TEST(EdgeListFuzz, DuplicateAndSelfEdgesCollapse) {
  const std::string base = "0 1\n1 2\n2 3\n3 0\n";
  const std::string path = ::testing::TempDir() + "seg_edges_dups.txt";
  write_file(path, base);
  GraphTopology clean;
  std::string error;
  ASSERT_TRUE(GraphTopology::load_edge_list(path, &clean, &error)) << error;
  write_file(path, base + "1 0\n2 2\n0 1\n3 3\n");
  GraphTopology noisy;
  ASSERT_TRUE(GraphTopology::load_edge_list(path, &noisy, &error)) << error;
  EXPECT_TRUE(same_graph(noisy, clean));
  EXPECT_EQ(noisy.edge_count(), 4u);
  std::remove(path.c_str());
}

TEST(EdgeListFuzz, HubAtTheLimitLoadsAndOneOverIsRefused) {
  const std::string path = ::testing::TempDir() + "seg_edges_hub.txt";
  // 32766 leaves: the hub's neighbourhood is exactly the limit.
  write_file(path, star_text(kMaxNeighborhoodSize - 1));
  auto g = std::make_shared<GraphTopology>();
  std::string error;
  ASSERT_TRUE(GraphTopology::load_edge_list(path, g.get(), &error)) << error;
  EXPECT_EQ(g->max_neighborhood_size(), kMaxNeighborhoodSize);
  // The engine's int16 counts hold the hub at full +1 occupancy.
  ModelParams params{.tau = 0.5, .p = 1.0};
  SchellingModel model(params, g,
                       std::vector<std::int8_t>(g->node_count(), 1));
  EXPECT_EQ(model.plus_count(0), kMaxNeighborhoodSize);
  model.flip(1);
  EXPECT_TRUE(model.check_invariants());
  // One more leaf pushes it over; the refusal names the hub.
  write_file(path, star_text(kMaxNeighborhoodSize));
  EXPECT_FALSE(GraphTopology::load_edge_list(path, g.get(), &error));
  EXPECT_NE(error.find("node 0 "), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(kMaxNeighborhoodSize)),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

// ---- partition --------------------------------------------------------------

TEST(GraphPartitionTest, GreedyBfsCoversAndClassifiesBoundary) {
  const GraphTopology g = GraphTopology::random_regular(200, 5, 21);
  for (const int parts : {1, 2, 4, 7}) {
    const GraphPartition partition = GraphPartition::greedy_bfs(g, parts);
    ASSERT_EQ(partition.part_count(), parts);
    std::vector<int> size(parts, 0);
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
      const int part = partition.part_of(v);
      ASSERT_GE(part, 0);
      ASSERT_LT(part, parts);
      ++size[part];
      // Boundary definition, verified against the raw adjacency.
      bool crosses = false;
      const auto [row, len] = g.row(v);
      for (int i = 0; i < len; ++i) {
        crosses |= partition.part_of(row[i]) != part;
      }
      ASSERT_EQ(partition.boundary(v), crosses) << "node " << v;
    }
    for (int part = 0; part < parts; ++part) {
      EXPECT_GT(size[part], 0) << "empty part " << part;
    }
  }
  EXPECT_TRUE(GraphPartition().trivial());
}

// ---- flip fuzz over the synthetic families ----------------------------------

TEST(GraphFuzzTest, RandomFlipsKeepEngineInvariants) {
  ModelParams params{.tau = 0.4, .p = 0.5, .tau_minus = 0.55};
  const auto stencil = neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const std::vector<std::shared_ptr<const GraphTopology>> topologies = {
      std::make_shared<const GraphTopology>(GraphTopology::lollipop(12, 20)),
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(96, 6, 31)),
      std::make_shared<const GraphTopology>(
          GraphTopology::small_world(10, stencil, 0.2, 31)),
  };
  Rng rng = Rng::stream(606060, 0);
  for (const auto& graph : topologies) {
    SchellingModel model(params, graph,
                         random_spins_count(graph->node_count(), params.p,
                                            rng));
    const std::size_t nodes = model.agent_count();
    for (int step = 0; step < 400; ++step) {
      // Arbitrary (not necessarily flippable) flips — the engine contract
      // is unconditional.
      model.flip(rng.uniform_below(static_cast<std::uint32_t>(nodes)));
      if (step % 100 == 99) ASSERT_TRUE(model.check_invariants());
    }
    ASSERT_TRUE(model.check_invariants());
    // Degree conservation: flips never touch the topology.
    std::size_t neighborhood_total = 0;
    for (std::uint32_t v = 0; v < nodes; ++v) {
      neighborhood_total += model.neighborhood_size_of(v);
    }
    EXPECT_EQ(neighborhood_total, 2 * graph->edge_count() + nodes);
    // Magnetization bookkeeping: plus_fraction equals a direct recount.
    std::size_t plus = 0;
    for (std::uint32_t v = 0; v < nodes; ++v) plus += model.spin(v) > 0;
    EXPECT_DOUBLE_EQ(model.plus_fraction(),
                     static_cast<double>(plus) / static_cast<double>(nodes));
  }
}

// ---- checked parsing ---------------------------------------------------------

TEST(CheckedParseTest, RejectsTrailingGarbageNamingToken) {
  std::int64_t i = 0;
  std::string error;
  EXPECT_FALSE(parse_i64_checked("10x", &i, &error));
  EXPECT_NE(error.find("'10x'"), std::string::npos) << error;
  EXPECT_TRUE(parse_i64_checked("10", &i, &error));
  EXPECT_EQ(i, 10);
  EXPECT_FALSE(parse_i64_checked("", &i, &error));
  EXPECT_FALSE(parse_i64_checked("1 2", &i, &error));
}

TEST(CheckedParseTest, RejectsOutOfRange) {
  std::int64_t i = 0;
  std::uint64_t u = 0;
  int narrow = 0;
  std::string error;
  EXPECT_FALSE(parse_i64_checked("99999999999999999999999", &i, &error));
  EXPECT_TRUE(parse_u64_checked("18446744073709551615", &u, &error));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(parse_u64_checked("18446744073709551616", &u, &error));
  // strtoull would silently wrap "-1"; the checked helper refuses it.
  EXPECT_FALSE(parse_u64_checked("-1", &u, &error));
  EXPECT_NE(error.find("'-1'"), std::string::npos) << error;
  // i64-representable but outside int.
  EXPECT_FALSE(parse_int_checked("3000000000", &narrow, &error));
  EXPECT_TRUE(parse_int_checked("-7", &narrow, &error));
  EXPECT_EQ(narrow, -7);
}

TEST(CheckedParseTest, DoubleRejectsGarbageOverflowAndNonFinite) {
  double d = 0.0;
  std::string error;
  EXPECT_TRUE(parse_double_checked("1e3", &d, &error));
  EXPECT_EQ(d, 1000.0);
  EXPECT_FALSE(parse_double_checked("0.5y", &d, &error));
  EXPECT_NE(error.find("'0.5y'"), std::string::npos) << error;
  EXPECT_FALSE(parse_double_checked("1e999", &d, &error));
  EXPECT_FALSE(parse_double_checked("nan", &d, &error));
  EXPECT_FALSE(parse_double_checked("inf", &d, &error));
}

TEST(ArgParserTest, RecordsMalformedNumericValues) {
  const char* argv[] = {"prog", "--n", "10x", "--tau", "0.4", "--beta",
                        "0.5z"};
  const ArgParser args(7, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);  // falls back AND records
  EXPECT_EQ(args.get_double("tau", 0.0), 0.4);
  EXPECT_EQ(args.get_double("beta", 0.1), 0.1);
  ASSERT_EQ(args.errors().size(), 2u);
  EXPECT_NE(args.errors()[0].find("--n"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("'10x'"), std::string::npos);
  EXPECT_NE(args.errors()[1].find("--beta"), std::string::npos);
}

// ---- checkpoint torn writes --------------------------------------------------

TEST(CheckpointTornWriteTest, TruncatedFilesNeverLoad) {
  CheckpointData data;
  data.seed = 99;
  data.spec_hash = 0xabcdef;
  data.metric_count = 2;
  data.done = {1, 0, 1, 1};
  data.values = {{1.5, 2.5}, {}, {3.25, -0.5}, {0.0, 42.0}};
  const std::string path = ::testing::TempDir() + "seg_ckpt_torn.txt";
  ASSERT_TRUE(save_checkpoint(path, data));

  CheckpointData loaded;
  ASSERT_TRUE(load_checkpoint(path, &loaded));
  EXPECT_EQ(loaded.seed, data.seed);
  EXPECT_EQ(loaded.done, data.done);
  EXPECT_EQ(loaded.values[2], data.values[2]);

  // Read the intact bytes, then re-write every proper prefix: a torn
  // write (power cut mid-write, rename of a half-synced file) must be
  // refused, never half-loaded.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[256];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  ASSERT_GT(bytes.size(), 40u);
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 9, bytes.size() / 2,
        bytes.size() / 4, std::size_t{10}}) {
    std::FILE* w = std::fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, keep, w), keep);
    std::fclose(w);
    CheckpointData torn;
    EXPECT_FALSE(load_checkpoint(path, &torn))
        << "truncation to " << keep << " of " << bytes.size()
        << " bytes loaded";
  }
  std::remove(path.c_str());
}

// ---- scenario topology keys --------------------------------------------------

TEST(ScenarioTopologyTest, DefaultSpecTextHasNoGraphKeys) {
  // Hash compatibility: a torus-only spec's canonical text must not gain
  // topology/graph_* lines, or every existing checkpoint would be
  // orphaned.
  const ScenarioSpec spec;
  const std::string text = spec.to_text();
  EXPECT_EQ(text.find("topology"), std::string::npos);
  EXPECT_EQ(text.find("graph_"), std::string::npos);
}

TEST(ScenarioTopologyTest, RoundTripsTopologyAxis) {
  ScenarioSpec spec;
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kRandomRegular,
                   TopologyFamily::kSmallWorld};
  spec.graph_clique = 16;
  spec.graph_degree = 6;
  spec.graph_beta = 0.25;
  spec.graph_seed = 12;
  spec.graph_nodes = 512;
  spec.metrics = {"flips", "happy_fraction"};
  std::string error;
  ASSERT_TRUE(spec.valid(&error)) << error;
  ScenarioSpec parsed;
  ASSERT_TRUE(ScenarioSpec::parse(spec.to_text(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.topology, spec.topology);
  EXPECT_EQ(parsed.graph_clique, 16);
  EXPECT_EQ(parsed.graph_degree, 6);
  EXPECT_EQ(parsed.graph_beta, 0.25);
  EXPECT_EQ(parsed.graph_seed, 12u);
  EXPECT_EQ(parsed.graph_nodes, 512u);
  EXPECT_EQ(parsed.hash(), spec.hash());
  // The topology axis is the outermost expansion loop.
  const auto points = expand_grid(parsed);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].topology, TopologyFamily::kLollipop);
  EXPECT_EQ(points[2].topology, TopologyFamily::kSmallWorld);
}

TEST(ScenarioTopologyTest, ValidRejectsBadGraphSpecs) {
  ScenarioSpec spec;
  spec.topology = {TopologyFamily::kRandomRegular};
  spec.metrics = {"flips"};
  spec.graph_nodes = 99;
  spec.graph_degree = 5;  // 99 * 5 stubs: odd-handshake violation
  std::string error;
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("even"), std::string::npos) << error;
  spec.graph_degree = 6;
  EXPECT_TRUE(spec.valid(&error)) << error;
  // Lattice-only metrics cannot ride a graph topology.
  spec.metrics = {"flips", "mean_mono_region"};
  EXPECT_FALSE(spec.valid(&error));
  EXPECT_NE(error.find("mean_mono_region"), std::string::npos) << error;
  // Unknown topology names are parse errors naming the family.
  ScenarioSpec parsed;
  EXPECT_FALSE(ScenarioSpec::parse("topology = mobius\n", &parsed, &error));
  EXPECT_NE(error.find("mobius"), std::string::npos) << error;
}

TEST(ScenarioTopologyTest, ValidRefusesNeighbourhoodsOverTheLimit) {
  const std::string limit = std::to_string(kMaxNeighborhoodSize);
  std::string error;
  // Moore windows fit up to w = 90 (181^2 = 32761 sites).
  ScenarioSpec torus;
  torus.n = {200};
  torus.w = {90};
  torus.metrics = {"flips"};
  EXPECT_TRUE(torus.valid(&error)) << error;
  torus.w = {91};
  EXPECT_FALSE(torus.valid(&error));
  EXPECT_NE(error.find("w=91"), std::string::npos) << error;
  EXPECT_NE(error.find(limit), std::string::npos) << error;
  // The lollipop's clique node carrying the path has clique + 1 sites.
  ScenarioSpec lollipop;
  lollipop.topology = {TopologyFamily::kLollipop};
  lollipop.metrics = {"flips"};
  lollipop.graph_clique = kMaxNeighborhoodSize - 1;
  EXPECT_TRUE(lollipop.valid(&error)) << error;
  lollipop.graph_clique = kMaxNeighborhoodSize;
  EXPECT_FALSE(lollipop.valid(&error));
  EXPECT_NE(error.find("node " + std::to_string(kMaxNeighborhoodSize - 1)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(limit), std::string::npos) << error;
  ScenarioSpec regular;
  regular.topology = {TopologyFamily::kRandomRegular};
  regular.metrics = {"flips"};
  regular.graph_nodes = 2 * kMaxNeighborhoodSize + 2;
  regular.graph_degree = kMaxNeighborhoodSize;
  EXPECT_FALSE(regular.valid(&error));
  EXPECT_NE(error.find("node 0"), std::string::npos) << error;
  EXPECT_NE(error.find(limit), std::string::npos) << error;
}

}  // namespace
}  // namespace seg
