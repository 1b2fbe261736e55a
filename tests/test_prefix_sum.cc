#include "grid/prefix_sum.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "grid/point.h"
#include "rng/rng.h"

namespace seg {
namespace {

std::int64_t naive_rect_sum(const std::vector<std::int32_t>& v, int n, int x0,
                            int y0, int x1, int y1) {
  std::int64_t acc = 0;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      acc += v[static_cast<std::size_t>(torus_wrap(y, n)) * n +
               torus_wrap(x, n)];
    }
  }
  return acc;
}

TEST(PrefixSum, TotalMatchesDirectSum) {
  const int n = 6;
  std::vector<std::int32_t> v(n * n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int32_t>(i % 5);
    expected += v[i];
  }
  const PrefixSum2D p(v, n);
  EXPECT_EQ(p.total(), expected);
}

TEST(PrefixSum, SingleCellRect) {
  const int n = 5;
  std::vector<std::int32_t> v(n * n, 0);
  v[2 * n + 3] = 42;
  const PrefixSum2D p(v, n);
  EXPECT_EQ(p.rect_sum(3, 2, 3, 2), 42);
  EXPECT_EQ(p.rect_sum(0, 0, 0, 0), 0);
}

TEST(PrefixSum, WrappingRect) {
  const int n = 4;
  std::vector<std::int32_t> v(n * n, 1);
  const PrefixSum2D p(v, n);
  // A 3x3 rect crossing both seams still sums 9 cells.
  EXPECT_EQ(p.rect_sum(3, 3, 5, 5), 9);
  EXPECT_EQ(p.rect_sum(-1, -1, 1, 1), 9);
}

TEST(PrefixSum, BoxSumEqualsRectSum) {
  const int n = 9;
  Rng rng(3);
  std::vector<std::int32_t> v(n * n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_below(10));
  const PrefixSum2D p(v, n);
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      EXPECT_EQ(p.box_sum(cx, cy, 2),
                p.rect_sum(cx - 2, cy - 2, cx + 2, cy + 2));
    }
  }
}

TEST(PrefixSum, Int8OverloadMatches) {
  const int n = 6;
  Rng rng(4);
  std::vector<std::int8_t> v8(n * n);
  std::vector<std::int32_t> v32(n * n);
  for (std::size_t i = 0; i < v8.size(); ++i) {
    v8[i] = rng.bernoulli(0.5) ? 1 : -1;
    v32[i] = v8[i];
  }
  const PrefixSum2D a(v8, n);
  const PrefixSum2D b(v32, n);
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.rect_sum(4, 4, 8, 7), b.rect_sum(4, 4, 8, 7));
}

TEST(PrefixSum, FullSpanRectEqualsTotal) {
  const int n = 7;
  Rng rng(6);
  std::vector<std::int32_t> v(n * n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_below(3));
  const PrefixSum2D p(v, n);
  EXPECT_EQ(p.rect_sum(2, 5, 2 + n - 1, 5 + n - 1), p.total());
}

class PrefixSumParam : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSumParam, RandomRectsMatchNaive) {
  const int n = GetParam();
  Rng rng(42 + n);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n) * n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_int(-3, 9));
  const PrefixSum2D p(v, n);
  for (int trial = 0; trial < 50; ++trial) {
    const int x0 = static_cast<int>(rng.uniform_int(-n, n));
    const int y0 = static_cast<int>(rng.uniform_int(-n, n));
    const int sx = static_cast<int>(rng.uniform_int(1, n));
    const int sy = static_cast<int>(rng.uniform_int(1, n));
    const int x1 = x0 + sx - 1;
    const int y1 = y0 + sy - 1;
    EXPECT_EQ(p.rect_sum(x0, y0, x1, y1), naive_rect_sum(v, n, x0, y0, x1, y1))
        << "rect (" << x0 << "," << y0 << ")..(" << x1 << "," << y1 << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumParam,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace seg
