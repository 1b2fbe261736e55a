#include "analysis/almost.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "core/model.h"
#include "grid/distance_transform.h"

namespace seg {
namespace {

// Centers scanned together: one box-sum pass per radius covers a block
// of a row, which vectorizes, and the block stops once all of its
// centers are done. Wider blocks amortize more per radius; narrower ones
// stop sooner.
constexpr int kBlock = 16;

// Largest passing radius per center, given each center's mono radius
// (overwritten in place and returned). A center's ball at its mono radius
// is monochromatic, so every r up to it passes and its scan starts one
// past it. Beyond that, passing is not monotone in r, so a failure does
// not end the scan. But balls nest, so both colour counts, and hence the
// minority count, only grow with r, and so does the largest passing
// minority allow[r]. Once a center's minority exceeds allow[max_radius]
// no larger radius can pass; a block stops when all of its centers have.
std::vector<std::int32_t> almost_radius(const std::vector<std::int8_t>& spins,
                                        int n, double ratio_threshold,
                                        int max_radius,
                                        std::vector<std::int32_t> radius) {
  assert(spins.size() == static_cast<std::size_t>(n) * n);
  assert(radius.size() == spins.size());
  if (max_radius <= 0) max_radius = (n - 1) / 2;
  max_radius = std::min(max_radius, (n - 1) / 2);
  const int R = max_radius;

  // For a fixed radius the ratio test minority <= threshold * (size -
  // minority) is monotone in the minority count, so it reduces to
  // comparing the minority with the largest passing count, found once per
  // radius by bisection on the same floating-point expression.
  const auto passes = [&](std::int64_t minority, std::int64_t size) {
    return static_cast<double>(minority) <=
           ratio_threshold * static_cast<double>(size - minority);
  };
  // A negative (or NaN) threshold fails even monochromatic balls.
  if (!passes(0, 1)) {
    std::fill(radius.begin(), radius.end(), 0);
    return radius;
  }
  std::vector<std::int32_t> allow(static_cast<std::size_t>(R) + 1, 0);
  for (int r = 1; r <= R; ++r) {
    const std::int64_t size = ball_size(r);
    std::int64_t max_minority = 0;
    for (std::int64_t hi = size / 2; max_minority < hi;) {
      const std::int64_t mid = (max_minority + hi + 1) / 2;
      if (passes(mid, size)) {
        max_minority = mid;
      } else {
        hi = mid - 1;
      }
    }
    allow[r] = static_cast<std::int32_t>(max_minority);
  }
  for (std::int32_t& r : radius) r = std::min(r, R);
  // With no minority ever allowed, a ball passes iff it is monochromatic.
  const std::int32_t top = allow[R];
  if (top == 0) return radius;

  // Summed-area table of plus counts over the torus padded by R on every
  // side: padded row/column j is site row/column (j - R) mod n, so every
  // ball of radius <= R is one rectangle of it, seam or no seam. Counts
  // wrap modulo 2^32, which leaves every box difference exact. (Not
  // PrefixSum2D: its 64-bit sums vectorize half as wide, and its 2n
  // replication splits each row at the seam.)
  const int padded = n + 2 * R;
  const std::size_t stride = static_cast<std::size_t>(padded) + 1;
  std::vector<int> site(padded);
  for (int j = 0; j < padded; ++j) site[j] = ((j - R) % n + n) % n;
  std::vector<std::uint32_t> table(stride * stride, 0);
  for (int i = 0; i < padded; ++i) {
    const std::int8_t* row =
        spins.data() + static_cast<std::size_t>(site[i]) * n;
    const std::uint32_t* above = table.data() + i * stride;
    std::uint32_t* cur = table.data() + (i + 1) * stride;
    std::uint32_t acc = 0;
    for (int j = 0; j < padded; ++j) {
      acc += row[site[j]] > 0 ? 1u : 0u;
      cur[j + 1] = above[j + 1] + acc;
    }
  }

  for (int cy = 0; cy < n; ++cy) {
    for (int x0 = 0; x0 < n; x0 += kBlock) {
      const int len = std::min(kBlock, n - x0);
      std::int32_t* best =
          radius.data() + static_cast<std::size_t>(cy) * n + x0;
      // r only grows and every r up to a center's mono radius passes, so
      // the last passing r written below is that center's answer.
      for (int r = *std::min_element(best, best + len) + 1; r <= R; ++r) {
        const int side = 2 * r + 1;
        const std::int32_t size = side * side;
        const std::uint32_t* top_row =
            table.data() + (cy - r + R) * stride + (x0 - r + R);
        const std::uint32_t* bottom_row = top_row + side * stride;
        const std::int32_t a = allow[r];
        std::int32_t least = top + 1;
        for (int k = 0; k < len; ++k) {
          const auto plus = static_cast<std::int32_t>(
              bottom_row[k + side] - bottom_row[k] - top_row[k + side] +
              top_row[k]);
          const std::int32_t minority = std::min(plus, size - plus);
          best[k] = minority <= a ? r : best[k];
          least = std::min(least, minority);
        }
        if (least > top) break;
      }
    }
  }
  return radius;
}

AlmostMonoField make_field(int n, double ratio_threshold,
                           std::vector<std::int32_t> radius) {
  AlmostMonoField field;
  field.n = n;
  field.ratio_threshold = ratio_threshold;
  field.radius = std::move(radius);
  index_region_field(field);
  return field;
}

}  // namespace

double almost_mono_threshold(double eps, int neighborhood_size) {
  assert(eps > 0.0 && neighborhood_size > 0);
  return std::exp(-eps * static_cast<double>(neighborhood_size));
}

AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius) {
  return make_field(n, ratio_threshold,
                    almost_radius(spins, n, ratio_threshold, max_radius,
                                  mono_ball_radius(spins, n)));
}

AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  const MonoRegionField& mono,
                                  double ratio_threshold, int max_radius) {
  return make_field(
      mono.n, ratio_threshold,
      almost_radius(spins, mono.n, ratio_threshold, max_radius, mono.radius));
}

AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius) {
  return almost_mono_field(
      model.spins(), model.side(),
      almost_mono_threshold(eps, model.neighborhood_size()), max_radius);
}

}  // namespace seg
