#include "lattice/sharded.h"

#include "obs/telemetry.h"
#include "util/seg_assert.h"

namespace seg {

ShardLayout ShardLayout::stripes(int n, int w, int shards) {
  SEG_ASSERT(n > 0 && w >= 1, "stripes over n=" << n << ", w=" << w);
  SEG_ASSERT(shards >= 1 && shards <= n,
             "stripes needs 1 <= shards <= n; got shards=" << shards
                                                            << ", n=" << n);
  ShardLayout layout;
  layout.n_ = n;
  layout.w_ = w;
  layout.shard_count_ = shards;
  // Stripe s covers [s*n/shards, (s+1)*n/shards): heights differ by at
  // most 1.
  layout.row_start_.resize(static_cast<std::size_t>(shards) + 1);
  for (int s = 0; s <= shards; ++s) {
    layout.row_start_[s] =
        static_cast<int>(static_cast<std::int64_t>(s) * n / shards);
  }
  layout.row_shard_.assign(static_cast<std::size_t>(n), 0);
  layout.row_boundary_.assign(static_cast<std::size_t>(n), 0);
  std::int64_t boundary_rows = 0;
  if (shards > 1) {  // one stripe is the whole ring: nothing to cross
    for (int s = 0; s < shards; ++s) {
      const int lo = layout.row_start_[s];
      const int hi = layout.row_start_[s + 1];  // exclusive
      for (int y = lo; y < hi; ++y) {
        layout.row_shard_[y] = s;
        // Within w of either cut: the radius-w window leaves the stripe.
        layout.row_boundary_[y] = (y - lo < w) || (hi - 1 - y < w);
        boundary_rows += layout.row_boundary_[y];
      }
    }
  }
  // Layout telemetry: shard count and boundary-site volume, the two
  // numbers that predict conflict-queue pressure (every boundary draw
  // defers to phase B).
  SEG_GAUGE_SET("sharded.shards", shards);
  SEG_GAUGE_SET("sharded.boundary_sites", boundary_rows * n);
  return layout;
}

std::pair<std::uint32_t, std::uint32_t> ShardLayout::id_window(
    int shard) const {
  if (trivial()) return {0, 0};  // caller sizes to the full lattice
  const auto n = static_cast<std::size_t>(n_);
  const auto base = static_cast<std::uint32_t>(row_start_[shard] * n);
  const auto end = static_cast<std::uint32_t>(row_start_[shard + 1] * n);
  return {base, end - base};
}

}  // namespace seg
