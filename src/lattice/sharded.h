// Domain decomposition of the torus for sharded parallel dynamics.
//
// A ShardLayout partitions the n x n torus into `shards` row stripes and
// classifies every site as *interior* or *boundary* with respect to the
// interaction margin w (the model's neighborhood radius). A site is
// interior iff its whole l-infinity window of radius w lies inside its own
// stripe; equivalently, boundary sites are those within w rows of a
// stripe edge. The 1-shard layout cuts nothing, so it has no boundary at
// all and sharded dynamics degenerate exactly to the serial process.
//
// The isolation guarantee the parallel sweep engine builds on: a flip at
// an interior site of shard s reads and writes only sites of shard s
// (its window is contained in s by definition), and conversely no other
// shard's interior flip can touch any site of s. Boundary flips are the
// only cross-shard interactions and are deferred by the sweep engine into
// a serial reconciliation queue.
//
// Stripes own whole rows, so window spans never wrap mid-shard, a shard's
// sites are one contiguous id range, and no 64-bit spin word ever holds
// sites of two shards.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace seg {

class ShardLayout {
 public:
  // Trivial layout: one shard covering everything, no boundary.
  ShardLayout() = default;

  // `shards` row stripes of near-equal height over an n x n torus with
  // interaction margin w; requires 1 <= shards <= n (callers validate
  // user input, this asserts).
  static ShardLayout stripes(int n, int w, int shards);

  int shard_count() const { return shard_count_; }
  bool trivial() const { return shard_count_ == 1; }

  // Shard owning site id (row-major id over the n*n torus).
  int shard_of(std::uint32_t id) const {
    if (trivial()) return 0;
    return row_shard_[id / static_cast<std::uint32_t>(n_)];
  }

  // True iff the window of radius w around id leaves id's shard.
  bool boundary(std::uint32_t id) const {
    if (trivial()) return false;
    return row_boundary_[id / static_cast<std::uint32_t>(n_)] != 0;
  }

  // {first id, id count} of `shard`'s rows ({0, 0} for the trivial
  // layout). Engines size their per-shard set slices to this window,
  // keeping sharded set memory O(sites) instead of O(sites * shards).
  std::pair<std::uint32_t, std::uint32_t> id_window(int shard) const;

  // True iff this layout partitions an n x n torus with margin w — the
  // compatibility check engines run at construction.
  bool compatible(int n, int w) const {
    return trivial() || (n_ == n && w_ == w);
  }

 private:
  int n_ = 0;
  int w_ = 0;
  int shard_count_ = 1;
  // Stripe s covers rows [row_start_[s], row_start_[s + 1]).
  std::vector<int> row_start_;
  std::vector<int> row_shard_;
  std::vector<std::uint8_t> row_boundary_;
};

}  // namespace seg
