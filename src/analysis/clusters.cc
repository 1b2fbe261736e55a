#include "analysis/clusters.h"

#include <algorithm>
#include <cassert>

#include "core/model.h"
#include "grid/point.h"
#include "grid/union_find.h"

namespace seg {

ClusterLabels label_clusters(const std::vector<std::int8_t>& spins, int n) {
  assert(spins.size() == static_cast<std::size_t>(n) * n);
  UnionFind uf(spins.size());
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * n + x;
      const std::size_t right =
          static_cast<std::size_t>(y) * n + torus_wrap(x + 1, n);
      const std::size_t down =
          static_cast<std::size_t>(torus_wrap(y + 1, n)) * n + x;
      if (spins[i] == spins[right]) uf.unite(i, right);
      if (spins[i] == spins[down]) uf.unite(i, down);
    }
  }
  ClusterLabels out;
  out.label.assign(spins.size(), -1);
  std::vector<std::int32_t> root_label(spins.size(), -1);
  for (std::size_t i = 0; i < spins.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (root_label[root] < 0) {
      root_label[root] = static_cast<std::int32_t>(out.size.size());
      out.size.push_back(0);
    }
    out.label[i] = root_label[root];
    ++out.size[root_label[root]];
  }
  return out;
}

ClusterStats cluster_stats(const std::vector<std::int8_t>& spins, int n) {
  const ClusterLabels labels = label_clusters(spins, n);
  ClusterStats stats;
  stats.cluster_count = labels.size.size();
  for (const std::int64_t s : labels.size) {
    stats.largest_cluster = std::max(stats.largest_cluster, s);
  }
  stats.mean_cluster_size =
      static_cast<double>(spins.size()) /
      static_cast<double>(std::max<std::size_t>(1, stats.cluster_count));
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * n + x;
      const std::size_t right =
          static_cast<std::size_t>(y) * n + torus_wrap(x + 1, n);
      const std::size_t down =
          static_cast<std::size_t>(torus_wrap(y + 1, n)) * n + x;
      stats.interface_length += spins[i] != spins[right];
      stats.interface_length += spins[i] != spins[down];
    }
  }
  return stats;
}

ClusterStats cluster_stats(const SchellingModel& model) {
  return cluster_stats(model.spins(), model.side());
}

bool completely_segregated(const std::vector<std::int8_t>& spins) {
  if (spins.empty()) return true;
  const std::int8_t first = spins.front();
  return std::all_of(spins.begin(), spins.end(),
                     [first](std::int8_t s) { return s == first; });
}

double majority_fraction(const std::vector<std::int8_t>& spins) {
  if (spins.empty()) return 1.0;
  std::size_t plus = 0;
  for (const std::int8_t s : spins) plus += s > 0;
  const double frac =
      static_cast<double>(plus) / static_cast<double>(spins.size());
  return std::max(frac, 1.0 - frac);
}

std::vector<int> run_lengths(const std::vector<std::int8_t>& spins) {
  const std::size_t n = spins.size();
  // Run starts: sites whose left neighbour holds the other type.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < n; ++i) {
    if (spins[i] != spins[(i + n - 1) % n]) starts.push_back(i);
  }
  if (starts.empty()) return {static_cast<int>(n)};
  starts.push_back(starts.front() + n);  // closes the last run, wrapped
  std::vector<int> lengths;
  for (std::size_t k = 1; k < starts.size(); ++k) {
    lengths.push_back(static_cast<int>(starts[k] - starts[k - 1]));
  }
  return lengths;
}

}  // namespace seg
