// O(1) rectangle/box queries on the torus via a 2x2 replicated summed-area
// table. Build is O(n^2); any axis-aligned box whose side is < n can then
// be summed in constant time, including boxes that wrap around the torus
// seam. Used by the renormalization good-block classifier (Lemma 11),
// which issues millions of box queries.
#pragma once

#include <cstdint>
#include <vector>

namespace seg {

class PrefixSum2D {
 public:
  // values: n*n row-major site values.
  PrefixSum2D(const std::vector<std::int32_t>& values, int n);
  PrefixSum2D(const std::vector<std::int8_t>& values, int n);

  int side() const { return n_; }

  // Sum over the inclusive rectangle [x0, x1] x [y0, y1] in torus
  // coordinates. Requires spans x1-x0+1 <= n and y1-y0+1 <= n (x0/x1 may be
  // any integers; only their wrapped positions and the span matter).
  std::int64_t rect_sum(int x0, int y0, int x1, int y1) const;

  // Sum over the l-infinity ball of radius r centered at (cx, cy).
  // Requires 2r+1 <= n.
  std::int64_t box_sum(int cx, int cy, int r) const;

  // Total sum of the grid.
  std::int64_t total() const;

 private:
  void build(const std::int32_t* values);

  int n_ = 0;
  int m_ = 0;  // replicated side = 2n
  // table_[(i)*(m_+1) + j] = sum over replicated rows < i, cols < j.
  std::vector<std::int64_t> table_;
};

}  // namespace seg
