#include "analysis/almost.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/model.h"
#include "grid/prefix_sum.h"

namespace seg {

double almost_mono_threshold(double eps, int neighborhood_size) {
  assert(eps > 0.0 && neighborhood_size > 0);
  return std::exp(-eps * static_cast<double>(neighborhood_size));
}

AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius) {
  assert(spins.size() == static_cast<std::size_t>(n) * n);
  if (max_radius <= 0) max_radius = (n - 1) / 2;
  max_radius = std::min(max_radius, (n - 1) / 2);

  AlmostMonoField field;
  field.n = n;
  field.ratio_threshold = ratio_threshold;
  field.radius.assign(spins.size(), 0);

  std::vector<std::int32_t> plus_indicator(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) {
    plus_indicator[i] = spins[i] > 0 ? 1 : 0;
  }
  const PrefixSum2D prefix(plus_indicator, n);

  // Largest passing r per center; the property is not monotone in r, so
  // every radius is tried, ascending, and the last pass wins. For a fixed
  // radius the ratio test minority <= threshold * (size - minority) is
  // monotone in the minority count, so it reduces to comparing the
  // minority with the largest passing count, found once per radius by
  // bisection on the same floating-point expression.
  const auto passes = [&](std::int64_t minority, std::int64_t size) {
    return static_cast<double>(minority) <=
           ratio_threshold * static_cast<double>(size - minority);
  };
  std::vector<std::int64_t> plus(n);
  for (int r = 1; r <= max_radius; ++r) {
    const std::int64_t size = ball_size(r);
    if (!passes(0, size)) continue;
    std::int64_t max_minority = 0;
    for (std::int64_t hi = size / 2; max_minority < hi;) {
      const std::int64_t mid = (max_minority + hi + 1) / 2;
      if (passes(mid, size)) {
        max_minority = mid;
      } else {
        hi = mid - 1;
      }
    }
    for (int cy = 0; cy < n; ++cy) {
      prefix.box_sums_row(cy, r, plus.data());
      std::int32_t* best =
          field.radius.data() + static_cast<std::size_t>(cy) * n;
      for (int cx = 0; cx < n; ++cx) {
        if (std::min(plus[cx], size - plus[cx]) <= max_minority) best[cx] = r;
      }
    }
  }
  field.cover = covering_radius(field.radius, n);
  return field;
}

AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius) {
  return almost_mono_field(
      model.spins(), model.side(),
      almost_mono_threshold(eps, model.neighborhood_size()), max_radius);
}

}  // namespace seg
