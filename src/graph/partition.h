// Balanced graph partitions for sharded dynamics on arbitrary topologies.
//
// The ShardLayout row stripes only make sense on the torus;
// on a general graph the equivalent object is a balanced vertex partition
// with a boundary classification: a node is INTERIOR to its part iff the
// node and every neighbor live in the same part, so a flip there writes
// counts/codes/sets of its own part only and the phase-A parallel sweep
// stays race-free. Everything else is BOUNDARY and handled by the serial
// phase-B reconciliation, exactly as with stripes.
//
// greedy_bfs grows parts by breadth-first search from the lowest
// unassigned id with per-part size targets — deterministic (no RNG, no
// tie-breaking on addresses), so shard assignment is a pure function of
// (graph, parts) and sharded trajectories stay reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.h"

namespace seg {

class GraphPartition {
 public:
  // Default: the trivial single-part partition of any graph (part_of is
  // identically 0, no boundary). Used by serial graph engines.
  GraphPartition() = default;

  static GraphPartition greedy_bfs(const GraphTopology& graph, int parts);

  int part_count() const { return part_count_; }
  bool trivial() const { return part_count_ == 1; }

  int part_of(std::uint32_t v) const {
    return trivial() ? 0 : part_of_[v];
  }
  bool boundary(std::uint32_t v) const {
    return trivial() ? false : boundary_[v];
  }

  // True iff this partition labels every node of `graph`.
  bool compatible(const GraphTopology& graph) const {
    return trivial() || part_of_.size() == graph.node_count();
  }

 private:
  int part_count_ = 1;
  std::vector<std::int32_t> part_of_;
  std::vector<std::uint8_t> boundary_;
};

}  // namespace seg
