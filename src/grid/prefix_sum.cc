#include "grid/prefix_sum.h"

#include <cassert>

#include "grid/point.h"

namespace seg {

PrefixSum2D::PrefixSum2D(const std::vector<std::int32_t>& values, int n)
    : n_(n), m_(2 * n) {
  assert(n > 0);
  assert(values.size() == static_cast<std::size_t>(n) * n);
  build(values.data());
}

PrefixSum2D::PrefixSum2D(const std::vector<std::int8_t>& values, int n)
    : n_(n), m_(2 * n) {
  assert(n > 0);
  assert(values.size() == static_cast<std::size_t>(n) * n);
  std::vector<std::int32_t> widened(values.begin(), values.end());
  build(widened.data());
}

void PrefixSum2D::build(const std::int32_t* values) {
  const std::size_t stride = static_cast<std::size_t>(m_) + 1;
  table_.assign(stride * (m_ + 1), 0);
  for (int i = 0; i < m_; ++i) {
    const std::int32_t* row =
        values + static_cast<std::size_t>(i % n_) * n_;
    std::int64_t row_acc = 0;
    const std::int64_t* prev = table_.data() + static_cast<std::size_t>(i) * stride;
    std::int64_t* cur = table_.data() + static_cast<std::size_t>(i + 1) * stride;
    for (int j = 0; j < m_; ++j) {
      row_acc += row[j % n_];
      cur[j + 1] = prev[j + 1] + row_acc;
    }
  }
}

std::int64_t PrefixSum2D::rect_sum(int x0, int y0, int x1, int y1) const {
  const int sx = x1 - x0 + 1;
  const int sy = y1 - y0 + 1;
  assert(sx >= 1 && sx <= n_ && sy >= 1 && sy <= n_);
  const int bx = torus_wrap(x0, n_);
  const int by = torus_wrap(y0, n_);
  const int ex = bx + sx;  // exclusive, < 2n
  const int ey = by + sy;
  const std::size_t stride = static_cast<std::size_t>(m_) + 1;
  const auto at = [&](int i, int j) {
    return table_[static_cast<std::size_t>(i) * stride + j];
  };
  return at(ey, ex) - at(by, ex) - at(ey, bx) + at(by, bx);
}

std::int64_t PrefixSum2D::box_sum(int cx, int cy, int r) const {
  assert(r >= 0 && 2 * r + 1 <= n_);
  return rect_sum(cx - r, cy - r, cx + r, cy + r);
}

std::int64_t PrefixSum2D::total() const {
  return rect_sum(0, 0, n_ - 1, n_ - 1);
}

}  // namespace seg
