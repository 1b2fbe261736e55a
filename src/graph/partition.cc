#include "graph/partition.h"

#include <deque>

#include "util/seg_assert.h"

namespace seg {

GraphPartition GraphPartition::greedy_bfs(const GraphTopology& graph,
                                          int parts) {
  SEG_ASSERT(parts >= 1, "part count " << parts);
  const std::size_t n = graph.node_count();
  GraphPartition p;
  p.part_count_ = parts;
  if (parts == 1) return p;
  SEG_ASSERT(static_cast<std::size_t>(parts) <= n,
             parts << " parts over " << n << " nodes");

  p.part_of_.assign(n, -1);
  std::size_t assigned = 0;
  std::uint32_t scan = 0;  // lowest possibly-unassigned id
  for (int part = 0; part < parts; ++part) {
    // Remaining nodes split evenly over remaining parts (ceiling), so the
    // last part absorbs any BFS shortfall from disconnected components.
    const std::size_t remaining_parts = static_cast<std::size_t>(parts - part);
    const std::size_t target =
        (n - assigned + remaining_parts - 1) / remaining_parts;
    std::deque<std::uint32_t> frontier;
    std::size_t size = 0;
    while (size < target) {
      if (frontier.empty()) {
        while (scan < n && p.part_of_[scan] != -1) ++scan;
        if (scan >= n) break;
        frontier.push_back(scan);
        p.part_of_[scan] = part;
        ++size;
        ++assigned;
        continue;
      }
      const std::uint32_t v = frontier.front();
      frontier.pop_front();
      const auto [row, len] = graph.row(v);
      for (int i = 0; i < len && size < target; ++i) {
        const std::uint32_t u = row[i];
        if (p.part_of_[u] != -1) continue;
        p.part_of_[u] = part;
        frontier.push_back(u);
        ++size;
        ++assigned;
      }
    }
  }
  SEG_ASSERT(assigned == n, "BFS assigned " << assigned << " of " << n);

  p.boundary_.assign(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto [row, len] = graph.row(v);
    for (int i = 0; i < len; ++i) {
      if (p.part_of_[row[i]] != p.part_of_[v]) {
        p.boundary_[v] = 1;
        break;
      }
    }
  }
  return p;
}

}  // namespace seg
