// Arbitrary-graph neighborhood structure for the binary-spin engines.
//
// A GraphTopology is a CSR adjacency over `node_count()` nodes where
// every row INCLUDES the node itself — mirroring the torus convention
// that the (0,0) offset is part of the stencil, so a node's
// "neighborhood size" N_v (the quantity the membership thresholds are
// computed from) is simply its row length. Rows are the engine's touch
// order: a flip at v updates counts and memberships of exactly row(v),
// in row order.
//
// Builders:
//  * torus(n, offsets)  — the n x n torus with the given stencil
//    (neighborhood_offsets from core/model.h, (0,0) included). Rows are
//    emitted in EXACT stencil order (dy = -w..w, dx = -w..w, coordinates
//    wrapped), which is also the span order of the native window engine;
//    this is what makes torus-as-graph trajectories bitwise identical to
//    the span fast path (the differential suite pins all six goldens).
//  * ring(n, w) — the n-cycle where each node sees the 2w+1 nodes within
//    distance w (self included): the 1-D setting of Brandt et al. [23]
//    and Barmpalias et al. [24]. Rows are emitted in stencil order
//    (i + d wrapped, d = -w..w, self in the middle), the 1-D analogue of
//    torus(). The touch order fixes the set mutation history and hence
//    the seeded trajectories; the frozen ring hashes in test_ring.cc pin
//    it, so the 1-D tables of exp_one_dimensional stay reproducible.
//  * lollipop(clique, path) — a complete clique with a path glued to its
//    last node (the classic hitting-time pathology; heterogeneous
//    degrees stress the per-degree membership tables).
//  * random_regular(nodes, degree, seed) — configuration-model random
//    d-regular graph with a deterministic seeded rewiring repair of
//    self-loops and duplicate edges.
//  * small_world(n, offsets, beta, seed) — Watts-Strogatz rewiring of
//    the torus: each canonical torus edge is redirected with probability
//    beta to a uniform non-adjacent endpoint (edge count preserved).
//  * from_edges / load_edge_list — imported undirected edge lists (e.g.
//    real street networks).
//
// Every other constructor sorts rows ascending (self included at its
// sorted position); there is no stencil to follow off the torus and the
// ring, and sorted rows make trajectories a well-defined function of the
// edge set.
//
// All builders produce simple symmetric graphs: validate() checks
// symmetry, exactly one self entry per row, and no duplicate entries.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grid/point.h"

namespace seg {

class GraphTopology {
 public:
  GraphTopology() = default;

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  // Row length of v — the membership-threshold N_v (self included).
  int neighborhood_size(std::uint32_t v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }
  // Graph-theoretic degree (self excluded).
  int degree(std::uint32_t v) const { return neighborhood_size(v) - 1; }

  // {pointer, length} of v's row (self included), the engine touch order.
  std::pair<const std::uint32_t*, int> row(std::uint32_t v) const {
    return {adj_.data() + offsets_[v], neighborhood_size(v)};
  }

  // Undirected edge count, self entries excluded.
  std::size_t edge_count() const {
    return (adj_.size() - node_count()) / 2;
  }

  int min_neighborhood_size() const;
  int max_neighborhood_size() const;

  // True iff v is adjacent to u (or v == u, since rows include self).
  bool adjacent(std::uint32_t u, std::uint32_t v) const;

  // Structural audit: rows sorted-or-stencil consistent is NOT required,
  // but symmetry, exactly one self entry per row, in-range ids, and no
  // duplicate row entries are. On failure *error names the defect.
  bool validate(std::string* error = nullptr) const;

  static GraphTopology torus(int n, const std::vector<Point>& offsets);
  // Requires w >= 1 and 2w+1 <= n (a window wrapping onto itself would
  // list a node twice).
  static GraphTopology ring(int n, int w);
  static GraphTopology lollipop(int clique, int path);
  static GraphTopology random_regular(int nodes, int degree,
                                      std::uint64_t seed);
  static GraphTopology small_world(int n, const std::vector<Point>& offsets,
                                   double beta, std::uint64_t seed);
  // Undirected simple graph from an edge list; self loops in `edges` are
  // ignored, duplicates collapse. Rows come out sorted with self added.
  static GraphTopology from_edges(
      std::size_t nodes,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);
  // Text edge list: one "u v" pair per line, '#' comments; node count is
  // 1 + the largest id seen, and self loops and duplicates are dropped as
  // in from_edges. False (with *error) on an unreadable file, a malformed
  // line (named by number), an empty edge set, or a node whose
  // neighbourhood exceeds kMaxNeighborhoodSize (named by id).
  static bool load_edge_list(const std::string& path, GraphTopology* out,
                             std::string* error = nullptr);

 private:
  std::vector<std::size_t> offsets_;  // CSR row starts, node_count() + 1
  std::vector<std::uint32_t> adj_;    // rows, self included
};

}  // namespace seg
