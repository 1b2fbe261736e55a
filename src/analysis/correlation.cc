#include "analysis/correlation.h"

#include <cassert>
#include <cmath>

#include "grid/point.h"

namespace seg {

std::vector<double> pair_correlation(const std::vector<std::int8_t>& spins,
                                     int n, int max_r) {
  assert(spins.size() == static_cast<std::size_t>(n) * n);
  assert(max_r >= 0 && max_r < n / 2);

  double mean = 0.0;
  for (const std::int8_t s : spins) mean += s;
  mean /= static_cast<double>(spins.size());

  // Directions at l-infinity distance r: two axes and two diagonals.
  static constexpr int kDx[4] = {1, 0, 1, 1};
  static constexpr int kDy[4] = {0, 1, 1, -1};

  std::vector<double> c(static_cast<std::size_t>(max_r) + 1, 0.0);
  for (int r = 0; r <= max_r; ++r) {
    double acc = 0.0;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const double s0 =
            spins[static_cast<std::size_t>(y) * n + x];
        for (int d = 0; d < 4; ++d) {
          const int nx = torus_wrap(x + kDx[d] * r, n);
          const int ny = torus_wrap(y + kDy[d] * r, n);
          acc += s0 * spins[static_cast<std::size_t>(ny) * n + nx];
        }
      }
    }
    c[r] = acc / (4.0 * static_cast<double>(spins.size())) - mean * mean;
  }
  return c;
}

std::vector<double> autocovariance(const std::vector<std::int64_t>& series,
                                   std::size_t max_lag) {
  const std::size_t t_count = series.size();
  std::vector<double> out(max_lag + 1, 0.0);
  if (t_count == 0) return out;
  std::int64_t sum = 0;
  for (const std::int64_t v : series) sum += v;
  const double total = static_cast<double>(sum);
  const double mean = total / static_cast<double>(t_count);
  for (std::size_t l = 0; l <= max_lag; ++l) {
    if (l >= t_count) continue;
    // Closed form: sum (x_t - m)(x_{t-l} - m) = sum x_t x_{t-l}
    //   - m * (head + tail) + (T - l) m^2, with head/tail the lagged and
    // leading partial sums. The sums are exact integers and the
    // expression (and operation order) matches
    // StreamingObservables::autocovariance, so the two agree bitwise.
    std::int64_t prod = 0;
    for (std::size_t t = l; t < t_count; ++t) {
      prod += series[t] * series[t - l];
    }
    std::int64_t head_excl = 0;
    for (std::size_t t = 0; t < l; ++t) head_excl += series[t];
    std::int64_t tail_excl = 0;
    for (std::size_t t = t_count - l; t < t_count; ++t) {
      tail_excl += series[t];
    }
    const double head = total - static_cast<double>(head_excl);
    const double tail = total - static_cast<double>(tail_excl);
    const double tl = static_cast<double>(t_count - l);
    out[l] = (static_cast<double>(prod) - mean * (head + tail) +
              tl * mean * mean) /
             tl;
  }
  return out;
}

double correlation_length(const std::vector<double>& c) {
  assert(!c.empty());
  const double target = c[0] / std::exp(1.0);
  if (c[0] <= 0.0) return 0.0;
  for (std::size_t r = 1; r < c.size(); ++r) {
    if (c[r] <= target) {
      // Linear interpolation between r-1 and r.
      const double hi = c[r - 1];
      const double lo = c[r];
      if (hi == lo) return static_cast<double>(r);
      const double frac = (hi - target) / (hi - lo);
      return static_cast<double>(r - 1) + frac;
    }
  }
  return static_cast<double>(c.size() - 1);
}

}  // namespace seg
