// Monochromatic-region measurement (paper Sec. II-A "Segregation" and the
// quantity M of Theorems 1-2).
//
// The monochromatic region of an agent u is the largest-radius
// l-infinity ball (neighborhood) of single-type agents that contains u;
// M is its size (agent count). We compute, per final configuration:
//   * radius(c) for every center c (one distance transform, O(n^2));
//   * cover(u) for every agent u: the largest radius(c) over the centers
//     c whose ball contains u, so M(u) = ball_size(cover(u)) is a lookup;
//   * the grid-wide largest monochromatic ball.
// The almost-monochromatic measurement (analysis/almost.h) shares the
// cover field, sampling and maximum; only its radius field differs.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "rng/rng.h"

namespace seg {

class SchellingModel;

// A per-center radius field and the covering-radius field derived from it.
struct RegionField {
  int n = 0;
  // Per-center radius of the largest qualifying ball centered there.
  std::vector<std::int32_t> radius;
  // Per-site covering radius: max radius[c] over the centers c whose ball
  // contains the site (0 where no ball of radius >= 1 does).
  std::vector<std::int32_t> cover;
};

struct MonoRegionField : RegionField {};

// The covering-radius field of `radius` on the n x n torus, exact for any
// radius field. Centers with an 8-neighbor of larger radius are skipped
// (that neighbor's ball contains theirs); the rest paint their balls in
// descending radius, each site once, through per-row next-unpainted
// pointers. A uniform field is its own cover.
std::vector<std::int32_t> covering_radius(
    const std::vector<std::int32_t>& radius, int n);

// Size (agent count) of a ball of radius r.
inline std::int64_t ball_size(std::int32_t r) {
  const std::int64_t side = 2 * static_cast<std::int64_t>(r) + 1;
  return side * side;
}

// Size of the largest qualifying ball containing the agent at u: one
// lookup in the cover field.
std::int64_t region_size_of(const RegionField& field, Point u);

// Mean region size over `samples` agents drawn uniformly, one
// rng.uniform_below(n * n) draw each, in order. Deterministic given rng.
double mean_region_size(const RegionField& field, std::size_t samples,
                        Rng& rng);

// Largest qualifying ball size anywhere on the grid.
std::int64_t largest_region(const RegionField& field);

// One distance transform over the spin field, plus its cover field.
MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n);

// Convenience overload on a model's current spins.
MonoRegionField mono_region_field(const SchellingModel& model);

// M(u): size of the largest monochromatic ball containing the agent at u.
inline std::int64_t mono_region_size_of(const MonoRegionField& field,
                                        Point u) {
  return region_size_of(field, u);
}

// Mean of M(u) over `samples` agents drawn uniformly (the estimator for
// E[M] of an arbitrary agent).
inline double mean_mono_region_size(const MonoRegionField& field,
                                    std::size_t samples, Rng& rng) {
  return mean_region_size(field, samples, rng);
}

// Largest monochromatic ball size anywhere on the grid.
inline std::int64_t largest_mono_region(const MonoRegionField& field) {
  return largest_region(field);
}

}  // namespace seg
