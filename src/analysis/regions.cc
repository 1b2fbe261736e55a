#include "analysis/regions.h"

#include <algorithm>
#include <cassert>

#include "core/model.h"
#include "grid/distance_transform.h"

namespace seg {
namespace {

// A row run of surviving centers [x0, x1] x {y} sharing one radius r;
// their balls' union is the rectangle [x0 - r, x1 + r] x [y - r, y + r].
struct CenterRun {
  int y, x0, x1;
  std::int32_t r;
};

// The interval [lo, hi] on a ring of n sites as up to two closed runs in
// [0, n): the whole ring when it spans n sites or more, else split at the
// seam (then -n <= lo and hi < 2n). Returns the run count.
int ring_runs(int lo, int hi, int n, int run_lo[2], int run_hi[2]) {
  if (hi - lo + 1 >= n) {
    run_lo[0] = 0;
    run_hi[0] = n - 1;
    return 1;
  }
  if (lo < 0) {
    run_lo[0] = 0, run_hi[0] = hi;
    run_lo[1] = lo + n, run_hi[1] = n - 1;
    return 2;
  }
  if (hi >= n) {
    run_lo[0] = lo, run_hi[0] = n - 1;
    run_lo[1] = 0, run_hi[1] = hi - n;
    return 2;
  }
  run_lo[0] = lo, run_hi[0] = hi;
  return 1;
}

}  // namespace

std::vector<std::int32_t> covering_radius(
    const std::vector<std::int32_t>& radius, int n) {
  const std::size_t total = static_cast<std::size_t>(n) * n;
  assert(n > 0 && radius.size() == total);
  // Without this, every center of a uniform field (common after fixation)
  // survives the pruning below and paints a whole ball.
  if (std::all_of(radius.begin(), radius.end(),
                  [&](std::int32_t r) { return r == radius[0]; })) {
    return radius;
  }
  const std::int32_t top = *std::max_element(radius.begin(), radius.end());
  std::vector<std::int32_t> cover(total, 0);
  if (top <= 0) return cover;

  // A center with an 8-neighbor of larger radius is dominated: that ball,
  // of radius >= r + 1 around a site one step away, contains its own. The
  // survivors, grouped into row runs, are bucketed by descending radius.
  std::vector<std::int32_t> row_max(total);
  for (int y = 0; y < n; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * n;
    ring_triples(radius.data() + row, row_max.data() + row, n,
                 [](std::int32_t a, std::int32_t b, std::int32_t c) {
                   return std::max({a, b, c});
                 });
  }
  std::vector<CenterRun> runs;
  std::vector<std::size_t> bucket(static_cast<std::size_t>(top) + 2, 0);
  for (int y = 0; y < n; ++y) {
    const std::int32_t* up =
        row_max.data() + static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * n;
    const std::int32_t* mid = row_max.data() + static_cast<std::size_t>(y) * n;
    const std::int32_t* down =
        row_max.data() + static_cast<std::size_t>(y + 1 == n ? 0 : y + 1) * n;
    const std::int32_t* r = radius.data() + static_cast<std::size_t>(y) * n;
    for (int x = 0; x < n; ++x) {
      if (r[x] <= 0 || r[x] < std::max({up[x], mid[x], down[x]})) continue;
      if (!runs.empty() && runs.back().y == y && runs.back().x1 + 1 == x &&
          runs.back().r == r[x]) {
        runs.back().x1 = x;
      } else {
        runs.push_back({y, x, x, r[x]});
        ++bucket[top - r[x] + 1];
      }
    }
  }
  for (std::size_t k = 1; k < bucket.size(); ++k) bucket[k] += bucket[k - 1];
  std::vector<CenterRun> order(runs.size());
  for (const CenterRun& run : runs) order[bucket[top - run.r]++] = run;

  // Paint in descending radius, so the first ball to reach a site is its
  // largest. next_free[y * (n + 1) + x] chains row y's painted columns to
  // the first unpainted column >= x (n when none is left).
  std::vector<std::int32_t> next_free(static_cast<std::size_t>(n + 1) * n);
  for (int y = 0; y < n; ++y) {
    std::int32_t* next =
        next_free.data() + static_cast<std::size_t>(y) * (n + 1);
    for (int x = 0; x <= n; ++x) next[x] = x;
  }
  const auto find = [](std::int32_t* next, std::int32_t x) {
    while (next[x] != x) x = next[x] = next[next[x]];
    return x;
  };
  std::size_t painted = 0;
  for (const CenterRun& run : order) {
    const std::int32_t r = run.r;
    int xlo[2], xhi[2], ylo[2], yhi[2];
    const int xruns = ring_runs(run.x0 - r, run.x1 + r, n, xlo, xhi);
    const int yruns = ring_runs(run.y - r, run.y + r, n, ylo, yhi);
    for (int yr = 0; yr < yruns; ++yr) {
      for (int y = ylo[yr]; y <= yhi[yr]; ++y) {
        std::int32_t* row = cover.data() + static_cast<std::size_t>(y) * n;
        std::int32_t* next =
            next_free.data() + static_cast<std::size_t>(y) * (n + 1);
        for (int xr = 0; xr < xruns; ++xr) {
          for (std::int32_t x = find(next, xlo[xr]); x <= xhi[xr];
               x = find(next, x + 1)) {
            row[x] = r;
            next[x] = x + 1;
            ++painted;
          }
        }
      }
    }
    if (painted == total) break;
  }
  return cover;
}

std::int64_t region_size_of(const RegionField& field, Point u) {
  assert(field.cover.size() == static_cast<std::size_t>(field.n) * field.n);
  return ball_size(field.cover[static_cast<std::size_t>(u.y) * field.n + u.x]);
}

double mean_region_size(const RegionField& field, std::size_t samples,
                        Rng& rng) {
  assert(samples > 0);
  const auto total =
      static_cast<std::uint64_t>(field.n) * static_cast<std::uint64_t>(field.n);
  assert(field.cover.size() == total);
  double sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    sum += static_cast<double>(ball_size(field.cover[rng.uniform_below(total)]));
  }
  return sum / static_cast<double>(samples);
}

std::int64_t largest_region(const RegionField& field) {
  std::int32_t best = 0;
  for (const std::int32_t r : field.radius) best = std::max(best, r);
  return ball_size(best);
}

MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n) {
  MonoRegionField field;
  field.n = n;
  field.radius = mono_ball_radius(spins, n);
  field.cover = covering_radius(field.radius, n);
  return field;
}

MonoRegionField mono_region_field(const SchellingModel& model) {
  return mono_region_field(model.spins(), model.side());
}

}  // namespace seg
