#include "graph/topology.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "lattice/membership.h"
#include "rng/rng.h"
#include "util/parse.h"
#include "util/seg_assert.h"

namespace seg {
namespace {

// Undirected edge key for dedup sets; works for node counts < 2^32.
std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

int GraphTopology::min_neighborhood_size() const {
  int m = 0;
  for (std::uint32_t v = 0; v < node_count(); ++v) {
    const int s = neighborhood_size(v);
    if (v == 0 || s < m) m = s;
  }
  return m;
}

int GraphTopology::max_neighborhood_size() const {
  int m = 0;
  for (std::uint32_t v = 0; v < node_count(); ++v) {
    m = std::max(m, neighborhood_size(v));
  }
  return m;
}

bool GraphTopology::adjacent(std::uint32_t u, std::uint32_t v) const {
  const auto [ptr, len] = row(u);
  for (int i = 0; i < len; ++i) {
    if (ptr[i] == v) return true;
  }
  return false;
}

bool GraphTopology::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const std::size_t n = node_count();
  if (offsets_.size() != n + 1 || offsets_.front() != 0 ||
      offsets_.back() != adj_.size()) {
    return fail("CSR offsets inconsistent with adjacency size");
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (offsets_[v + 1] < offsets_[v]) return fail("CSR offsets not monotone");
    const auto [ptr, len] = row(v);
    int self_entries = 0;
    std::unordered_set<std::uint32_t> seen;
    for (int i = 0; i < len; ++i) {
      const std::uint32_t u = ptr[i];
      if (u >= n) {
        return fail("node " + std::to_string(v) + " has out-of-range entry " +
                    std::to_string(u));
      }
      if (!seen.insert(u).second) {
        return fail("node " + std::to_string(v) + " lists " +
                    std::to_string(u) + " twice");
      }
      if (u == v) {
        ++self_entries;
      } else if (!adjacent(u, v)) {
        return fail("edge " + std::to_string(v) + "-" + std::to_string(u) +
                    " is not symmetric");
      }
    }
    if (self_entries != 1) {
      return fail("node " + std::to_string(v) + " has " +
                  std::to_string(self_entries) + " self entries (want 1)");
    }
  }
  return true;
}

GraphTopology GraphTopology::torus(int n, const std::vector<Point>& offsets) {
  SEG_ASSERT(n > 0, "torus size " << n);
  SEG_ASSERT(std::find(offsets.begin(), offsets.end(), Point{0, 0}) !=
                 offsets.end(),
             "torus stencil must contain (0,0)");
  GraphTopology g;
  const std::size_t sites = static_cast<std::size_t>(n) * n;
  g.offsets_.resize(sites + 1);
  g.adj_.resize(sites * offsets.size());
  std::size_t at = 0;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      g.offsets_[static_cast<std::size_t>(y) * n + x] = at;
      // Stencil order, wrapped — matches both the span fast path's row
      // visitation and the generic offsets walk, so torus-as-graph flips
      // touch sites in the identical sequence (goldens pin this).
      for (const Point& d : offsets) {
        const int yy = torus_wrap(y + d.y, n);
        const int xx = torus_wrap(x + d.x, n);
        g.adj_[at++] = static_cast<std::uint32_t>(yy) * n + xx;
      }
    }
  }
  g.offsets_[sites] = at;
  return g;
}

GraphTopology GraphTopology::lollipop(int clique, int path) {
  SEG_ASSERT(clique >= 2 && path >= 1,
             "lollipop wants clique >= 2, path >= 1; got " << clique << ", "
                                                          << path);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t a = 0; a + 1 < static_cast<std::uint32_t>(clique); ++a) {
    for (std::uint32_t b = a + 1; b < static_cast<std::uint32_t>(clique); ++b) {
      edges.emplace_back(a, b);
    }
  }
  // Path hangs off the last clique node.
  std::uint32_t prev = static_cast<std::uint32_t>(clique) - 1;
  for (int i = 0; i < path; ++i) {
    const std::uint32_t next = static_cast<std::uint32_t>(clique + i);
    edges.emplace_back(prev, next);
    prev = next;
  }
  return from_edges(static_cast<std::size_t>(clique) + path, edges);
}

GraphTopology GraphTopology::random_regular(int nodes, int degree,
                                            std::uint64_t seed) {
  SEG_ASSERT(nodes > 0 && degree >= 1 && degree < nodes,
             "random_regular nodes=" << nodes << " degree=" << degree);
  SEG_ASSERT((static_cast<long long>(nodes) * degree) % 2 == 0,
             "random_regular needs an even stub count");
  // Configuration model: pair up degree stubs per node, then repair
  // self-loops and duplicate edges with seeded endpoint swaps. Rejection
  // sampling ("regenerate until simple") dies for d >= 4 — P(simple) is
  // roughly exp(-(d*d-1)/4) — so swap repair is the only practical route.
  for (std::uint64_t attempt = 0; attempt < 100; ++attempt) {
    Rng rng = Rng::stream(seed, attempt);
    std::vector<std::uint32_t> stubs;
    stubs.reserve(static_cast<std::size_t>(nodes) * degree);
    for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(nodes); ++v) {
      for (int k = 0; k < degree; ++k) stubs.push_back(v);
    }
    // Fisher-Yates.
    for (std::size_t i = stubs.size() - 1; i > 0; --i) {
      std::swap(stubs[i], stubs[rng.uniform_below(i + 1)]);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      edges.emplace_back(stubs[i], stubs[i + 1]);
    }
    // Repair passes: swap the second endpoint of each bad edge with the
    // second endpoint of a random edge. Each pass rescans, so a swap that
    // creates a new collision gets picked up next pass.
    bool simple = false;
    for (int pass = 0; pass < 200 && !simple; ++pass) {
      std::unordered_set<std::uint64_t> seen;
      std::vector<std::size_t> bad;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        auto& [a, b] = edges[i];
        if (a == b || !seen.insert(edge_key(a, b)).second) bad.push_back(i);
      }
      if (bad.empty()) {
        simple = true;
        break;
      }
      for (std::size_t i : bad) {
        const std::size_t r = rng.uniform_below(edges.size());
        std::swap(edges[i].second, edges[r].second);
      }
    }
    if (!simple) continue;  // reseed and start over
    GraphTopology g = from_edges(static_cast<std::size_t>(nodes), edges);
    // from_edges collapses duplicates, so a repaired multigraph would show
    // up as a degree deficit here; the repair loop guarantees it cannot.
    SEG_ASSERT(g.min_neighborhood_size() == degree + 1,
               "repair left a degree deficit");
    return g;
  }
  SEG_ASSERT(false, "random_regular: repair failed on 100 seeds");
  return GraphTopology{};
}

GraphTopology GraphTopology::small_world(int n,
                                         const std::vector<Point>& offsets,
                                         double beta, std::uint64_t seed) {
  SEG_ASSERT(n > 0 && beta >= 0.0 && beta <= 1.0,
             "small_world n=" << n << " beta=" << beta);
  const GraphTopology base = torus(n, offsets);
  const std::size_t sites = base.node_count();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::unordered_set<std::uint64_t> present;
  edges.reserve(base.edge_count());
  for (std::uint32_t u = 0; u < sites; ++u) {
    const auto [ptr, len] = base.row(u);
    for (int i = 0; i < len; ++i) {
      if (ptr[i] > u) {
        edges.emplace_back(u, ptr[i]);
        present.insert(edge_key(u, ptr[i]));
      }
    }
  }
  // Watts-Strogatz: rewire the far endpoint of each canonical edge with
  // probability beta, keeping the edge count constant and the graph simple.
  Rng rng = Rng::stream(seed, 0x5157u /* "WS" */);
  for (auto& [u, v] : edges) {
    if (!rng.bernoulli(beta)) continue;
    for (int tries = 0; tries < 32; ++tries) {
      const auto w = static_cast<std::uint32_t>(rng.uniform_below(sites));
      if (w == u || w == v || present.count(edge_key(u, w))) continue;
      present.erase(edge_key(u, v));
      present.insert(edge_key(u, w));
      v = w;
      break;
    }
    // All 32 draws collided (possible only on tiny/dense graphs): keep
    // the original edge rather than loop forever.
  }
  return from_edges(sites, edges);
}

GraphTopology GraphTopology::from_edges(
    std::size_t nodes,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  std::vector<std::vector<std::uint32_t>> adj(nodes);
  for (std::uint32_t v = 0; v < nodes; ++v) adj[v].push_back(v);
  for (const auto& [a, b] : edges) {
    SEG_ASSERT(a < nodes && b < nodes,
               "edge " << a << "-" << b << " out of range for " << nodes
                       << " nodes");
    if (a == b) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  GraphTopology g;
  g.offsets_.resize(nodes + 1);
  std::size_t at = 0;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    auto& list = adj[v];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    g.offsets_[v] = at;
    g.adj_.insert(g.adj_.end(), list.begin(), list.end());
    at += list.size();
  }
  g.offsets_[nodes] = at;
  return g;
}

bool GraphTopology::load_edge_list(const std::string& path, GraphTopology* out,
                                   std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open edge list '" + path + "'");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::uint32_t max_node = 0;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    line.resize(std::min(line.size(), line.find('#')));
    std::istringstream tokens(line);
    std::vector<std::string> fields;
    for (std::string t; tokens >> t;) fields.push_back(t);
    if (fields.empty()) continue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::string parse_error;
    if (fields.size() != 2 ||
        !parse_u64_checked(fields[0], &a, &parse_error) ||
        !parse_u64_checked(fields[1], &b, &parse_error) || a > 0xffffffffu ||
        b > 0xffffffffu) {
      return fail(path + ":" + std::to_string(line_no) +
                  ": expected 'u v' edge line" +
                  (parse_error.empty() ? "" : " (" + parse_error + ")"));
    }
    edges.emplace_back(static_cast<std::uint32_t>(a),
                       static_cast<std::uint32_t>(b));
    max_node = std::max({max_node, static_cast<std::uint32_t>(a),
                         static_cast<std::uint32_t>(b)});
  }
  if (edges.empty()) return fail("edge list '" + path + "' has no edges");
  GraphTopology g = from_edges(static_cast<std::size_t>(max_node) + 1, edges);
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    if (g.neighborhood_size(v) > kMaxNeighborhoodSize) {
      return fail(path + ": " +
                  over_neighborhood_limit("node " + std::to_string(v),
                                          g.neighborhood_size(v)));
    }
  }
  *out = std::move(g);
  return true;
}

}  // namespace seg
