// Same-type connected-component statistics of a spin configuration:
// cluster sizes, the largest cluster, the interface length between types,
// and the complete-segregation predicate used by the paper's corollary
// ("complete segregation does not occur w.h.p. for p = 1/2"); plus the
// run lengths of a 1-D ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seg {

class SchellingModel;

struct ClusterStats {
  std::size_t cluster_count = 0;
  std::int64_t largest_cluster = 0;
  double mean_cluster_size = 0.0;
  // Number of 4-neighbor site pairs with opposite spins (each unordered
  // pair counted once) — the total boundary length between the two types.
  std::int64_t interface_length = 0;
};

// 4-connected same-spin clusters on the torus.
ClusterStats cluster_stats(const std::vector<std::int8_t>& spins, int n);

// Per-site label array (labels are arbitrary but consistent) and sizes,
// for callers that need the full decomposition.
struct ClusterLabels {
  std::vector<std::int32_t> label;      // size n*n
  std::vector<std::int64_t> size;       // indexed by label
};
ClusterLabels label_clusters(const std::vector<std::int8_t>& spins, int n);

// All agents share one type.
bool completely_segregated(const std::vector<std::int8_t>& spins);

// Fraction held by the majority type (0.5 .. 1.0).
double majority_fraction(const std::vector<std::int8_t>& spins);

ClusterStats cluster_stats(const SchellingModel& model);

// Lengths of the maximal monochromatic arcs of a ring ("run lengths", the
// 1-D literature's segregation statistic), where spins[i] neighbours
// spins[i + 1] and the last spin neighbours spins[0]. Listed from the
// first run start at or after index 0; they sum to spins.size(), and a
// monochromatic ring is one run of spins.size().
std::vector<int> run_lengths(const std::vector<std::int8_t>& spins);

}  // namespace seg
